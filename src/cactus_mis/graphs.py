"""Construction of regular polygonal cactus chains and their pendant-gadget variants.

A chain cactus here is a sequence of n cycles ("blocks") of a fixed length k,
consecutive blocks sharing a single cut vertex. The attachment distance d
(1 = ortho, 2 = meta, 3 = para) fixes how far around each cycle the next
block attaches. Eight (k, d) combinations are supported, one per family.

Auxiliary graphs attach a small pendant tree ("gadget") at the anchor vertex,
i.e. the vertex where block n+1 would attach. Each gadget is a set of pendant
paths ("legs") hanging off the anchor.

A `Graph` is the adjacency alone. The text labels that `build`'s output
formats print come from `graph_labels(family_id, n, kind)`, in the builder's
vertex order: `b<block>_p<pos>` on the cycles (1-based; a cut vertex keeps
the earlier block's label), `root` for a gadget's anchor on the empty chain,
and `g<leg>_<pos>` on the gadget legs. Only `build` formats them; `verify`
and `census` never do.

The builder writes each vertex's neighbor mask directly, with no edge list,
and skips the edge checks of `Graph(vertex_count, edges)` through
`Graph._trusted`, so it keeps the invariant `Graph` states itself. Every
other caller goes through `Graph(...)`.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ._frozen import Frozen


class FamilySpec(Frozen):
    """One polygonal family: identifier, cycle length k, attachment distance d.

    `symbol` is the single-letter name of its count function (t, d, s, p, m,
    h, g, q); `cycle_len` and `attach_dist` are ints.
    """

    __slots__ = ("family_id", "symbol", "cycle_len", "attach_dist")


FAMILIES: dict[str, FamilySpec] = {
    spec.family_id: spec
    for spec in (
        FamilySpec("triangular", "t", 3, 1),
        FamilySpec("diamond", "d", 4, 2),
        FamilySpec("square", "s", 4, 1),
        FamilySpec("pentagonal", "p", 5, 1),
        FamilySpec("meta-pentagonal", "m", 5, 2),
        FamilySpec("meta-hexagonal", "h", 6, 2),
        FamilySpec("para-hexagonal", "g", 6, 3),
        FamilySpec("ortho-hexagonal", "q", 6, 1),
    )
}

FAMILY_IDS = tuple(FAMILIES)

# A graph is named by (family id, kind, n): the n-block chain itself, or the
# chain with its bar or tilde gadget.
GRAPH_KINDS = ("family", "bar", "tilde")

# Pendant-path gadgets, as tuples of leg lengths hanging off the anchor.
BAR_GADGETS: dict[str, tuple[int, ...]] = {
    "triangular": (1,),
    "diamond": (1, 1),
    "square": (2,),
    "pentagonal": (3,),
    "meta-pentagonal": (1,),
    "meta-hexagonal": (1, 1),
    "para-hexagonal": (1, 1),
    "ortho-hexagonal": (1, 1),
}
TILDE_GADGETS: dict[str, tuple[int, ...]] = {
    "meta-pentagonal": (1, 2),
    "meta-hexagonal": (1, 3),
    "para-hexagonal": (2, 2),
    "ortho-hexagonal": (4,),
}


def family_spec(family_id: str) -> FamilySpec:
    """Look up a family spec by its exact id."""
    if family_id not in FAMILIES:
        raise ValueError(f"unknown family {family_id!r}; known: {', '.join(FAMILY_IDS)}")
    return FAMILIES[family_id]


class Graph(Frozen):
    """Simple undirected graph with dense 0-based vertex ids, a `Frozen` value.

    The graph is its one field, `masks`: one neighbor bitmask per vertex, bit
    u of `masks[v]` set iff uv is an edge, so `vertex_count` is `len(masks)`.
    The masks are symmetric and loop-free. Construction from an edge list
    checks that and refuses parallel edges; `build_graph` writes the masks
    itself, keeps it, and constructs through `_trusted`, unchecked. Two
    graphs are equal when they have the same vertex count and the same edges.
    """

    __slots__ = ("masks",)

    def __init__(self, vertex_count: int, edges: Sequence[tuple[int, int]]):
        masks = [0] * vertex_count
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range for {vertex_count} vertices")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if masks[u] >> v & 1:
                raise ValueError(f"parallel edge ({u}, {v})")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        object.__setattr__(self, "masks", tuple(masks))

    def __reduce__(self):
        return Graph, (self.vertex_count, tuple(self.edges()))

    @property
    def vertex_count(self) -> int:
        return len(self.masks)

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.masks) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in sorted order."""
        for u, m in enumerate(self.masks):
            m >>= u + 1  # the neighbors above u; bit i of m stands for vertex v + 1 + i
            v = u
            while m:
                step = (m & -m).bit_length()
                v += step
                m >>= step
                yield (u, v)

    def __repr__(self) -> str:
        return f"Graph(|V|={self.vertex_count}, |E|={self.edge_count})"


def _shape(family_id: str, n: int, kind: str) -> tuple[FamilySpec, tuple[int, ...]]:
    """The family's spec and the leg lengths of the kind's gadget, () for "family".

    ValueError for an unknown family or kind, a negative n, or a family
    that has no gadget of the kind.
    """
    spec = family_spec(family_id)
    if n < 0:
        raise ValueError("block count must be >= 0")
    if kind not in GRAPH_KINDS:
        raise ValueError(f"unknown graph kind {kind!r}; expected one of {GRAPH_KINDS}")
    if kind == "family":
        return spec, ()
    table = BAR_GADGETS if kind == "bar" else TILDE_GADGETS
    if spec.family_id not in table:
        raise ValueError(f"no {kind} auxiliary graph for family {spec.family_id!r}")
    return spec, table[spec.family_id]


def build_graph(family_id: str, n: int, kind: str = "family") -> Graph:
    """The chain of n blocks, plus the kind's gadget at the anchor for "bar" and "tilde".

    Block i+1 attaches at the vertex of block i at cycle distance d from
    block i's own entry vertex, so the chain has |V| = (k-1)n + 1 and
    |E| = kn for n >= 1, and is the empty graph for n = 0. A gadget on the
    empty chain hangs on a lone root vertex.

    Each block's neighbor masks are written directly, with no edge list: a
    block adds k-1 vertices first..last after its entry vertex, in cycle
    order, so an inner one u is adjacent to u-1 and u+1 (`5 << (u - 1)`),
    and the two ends and the entry get their bits by hand. The vertex
    order is the one `graph_labels` names.
    """
    spec, legs = _shape(family_id, n, kind)
    k, d = spec.cycle_len, spec.attach_dist
    masks: list[int] = []
    if n or legs:  # block 1's entry, or the root a gadget hangs on
        masks.append(0)
    anchor = 0  # vertex 0, then after each block the vertex where the next attaches
    for _ in range(n):
        first = len(masks)
        last = first + k - 2
        masks.append(1 << anchor | 2 << first)
        masks += [5 << (u - 1) for u in range(first + 1, last)]
        masks.append(1 << (last - 1) | 1 << anchor)
        masks[anchor] |= 1 << first | 1 << last
        anchor = first + d - 1  # cycle position d+1 of this block
    for length in legs:
        prev = anchor
        for _ in range(length):
            v = len(masks)
            masks.append(1 << prev)
            masks[prev] |= 1 << v
            prev = v
    return Graph._trusted(tuple(masks))


def graph_labels(family_id: str, n: int, kind: str = "family") -> list[str]:
    """The text label of each vertex of build_graph(family_id, n, kind), in vertex order."""
    spec, legs = _shape(family_id, n, kind)
    labels = ["b1_p1" if n else "root"] if n or legs else []
    labels += [f"b{b}_p{pos}" for b in range(1, n + 1) for pos in range(2, spec.cycle_len + 1)]
    labels += [f"g{leg}_{pos}" for leg, length in enumerate(legs, 1) for pos in range(1, length + 1)]
    return labels


def graph_order(family_id: str, n: int, kind: str = "family") -> int:
    """Vertex count of build_graph(family_id, n, kind) without building it."""
    spec, legs = _shape(family_id, n, kind)
    chain = (spec.cycle_len - 1) * n + 1 if n else 0
    if not legs:
        return chain
    return max(chain, 1) + sum(legs)  # n = 0: the lone root


def last_n_within(family_id: str, kind: str, cap: int) -> int:
    """Largest n >= 1 whose graph has at most `cap` vertices, or 0 if none has;
    each block past the first adds k - 1 vertices."""
    first = graph_order(family_id, 1, kind)
    return max(0, 1 + (cap - first) // (family_spec(family_id).cycle_len - 1))
