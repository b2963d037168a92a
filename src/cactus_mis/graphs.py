"""Construction of regular polygonal cactus chains and their pendant-gadget variants.

A chain cactus here is a sequence of n cycles ("blocks") of a fixed length k,
consecutive blocks sharing a single cut vertex. The attachment distance d
(1 = ortho, 2 = meta, 3 = para) fixes how far around each cycle the next
block attaches. Eight (k, d) combinations are supported, one per family.

Auxiliary graphs attach a small pendant tree ("gadget") at the anchor vertex,
i.e. the vertex where block n+1 would attach. Each gadget is a set of pendant
paths ("legs") hanging off the anchor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

GADGET_BLOCK = 0  # sentinel block id for gadget vertices (real blocks are 1-based)


@dataclass(frozen=True)
class VertexLabel:
    """Structural label: (block, position) for cycle vertices, slot name for gadget ones.

    Shared cut vertices keep the label of the earlier block. Positions are
    1-based within a block's cycle.
    """

    block: int
    position: "int | str"

    def text(self) -> str:
        if self.block == GADGET_BLOCK:
            return str(self.position)
        return f"b{self.block}_p{self.position}"


@dataclass(frozen=True)
class FamilySpec:
    """One polygonal family: identifier, cycle length k, attachment distance d."""

    family_id: str
    symbol: str  # single-letter count-function name (t, d, s, p, m, h, g, q)
    cycle_len: int
    attach_dist: int


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

AUX_KINDS = ("bar", "tilde")


def family_spec(family_id: str) -> FamilySpec:
    """Look up a family spec, accepting any case."""
    key = family_id.strip().lower()
    if key not in FAMILIES:
        raise ValueError(f"unknown family {family_id!r}; known: {', '.join(FAMILY_IDS)}")
    return FAMILIES[key]


class Graph:
    """Immutable simple undirected graph with dense 0-based vertex ids.

    Adjacency is one neighbor bitmask per vertex: bit u of `masks[v]` is set
    iff uv is an edge. Construction enforces simplicity (no loops, no
    parallel edges).
    """

    __slots__ = ("vertex_count", "masks", "labels")

    def __init__(self, vertex_count: int, edges: Sequence[tuple[int, int]],
                 labels: Optional[Sequence[VertexLabel]] = None):
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
        if labels is not None and len(labels) != vertex_count:
            raise ValueError("label count does not match vertex count")
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "masks", tuple(masks))
        object.__setattr__(self, "labels", tuple(labels) if labels is not None else None)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Graph is immutable")

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

    def label_text(self, v: int) -> str:
        if self.labels is None:
            return f"v{v}"
        return self.labels[v].text()

    def __repr__(self) -> str:
        return f"Graph(|V|={self.vertex_count}, |E|={self.edge_count})"


class _Builder:
    """Mutable accumulator used by the construction functions."""

    def __init__(self):
        self.edges: list[tuple[int, int]] = []
        self.labels: list[VertexLabel] = []

    def add_vertex(self, label: VertexLabel) -> int:
        self.labels.append(label)
        return len(self.labels) - 1

    def add_edge(self, u: int, v: int) -> None:
        self.edges.append((u, v))

    def freeze(self) -> Graph:
        return Graph(len(self.labels), self.edges, self.labels)


def _append_block(b: _Builder, entry: Optional[int], block_no: int, k: int) -> list[int]:
    """Add one k-cycle, reusing `entry` as its position-1 vertex when given."""
    cyc: list[int] = []
    for pos in range(1, k + 1):
        if pos == 1 and entry is not None:
            cyc.append(entry)
        else:
            cyc.append(b.add_vertex(VertexLabel(block_no, pos)))
    for i in range(k):
        b.add_edge(cyc[i], cyc[(i + 1) % k])
    return cyc


def _append_chain(b: _Builder, spec: FamilySpec, n: int) -> Optional[int]:
    """Add blocks 1..n; return the vertex where block n+1 would attach (None for n = 0)."""
    if n < 0:
        raise ValueError("block count must be >= 0")
    entry: Optional[int] = None
    for block_no in range(1, n + 1):
        cyc = _append_block(b, entry, block_no, spec.cycle_len)
        entry = cyc[spec.attach_dist]
    return entry


def _gadget_legs(family_id: str, kind: str) -> tuple[int, ...]:
    """Leg lengths of the bar/tilde gadget; ValueError if the family has none."""
    if kind not in AUX_KINDS:
        raise ValueError(f"unknown auxiliary kind {kind!r}; expected one of {AUX_KINDS}")
    table = BAR_GADGETS if kind == "bar" else TILDE_GADGETS
    if family_id not in table:
        raise ValueError(f"no {kind} auxiliary graph for family {family_id!r}")
    return table[family_id]


def _attach_gadget(b: _Builder, anchor: int, legs: Sequence[int]) -> None:
    for leg_no, length in enumerate(legs, start=1):
        prev = anchor
        for pos in range(1, length + 1):
            v = b.add_vertex(VertexLabel(GADGET_BLOCK, f"g{leg_no}_{pos}"))
            b.add_edge(prev, v)
            prev = v


def build_family(spec: FamilySpec, n: int) -> Graph:
    """Chain of n blocks; the empty graph for n = 0.

    Block i+1 attaches at the vertex of block i at cycle distance d from
    block i's own entry vertex, so |V| = (k-1)n + 1 and |E| = kn for n >= 1.
    """
    b = _Builder()
    _append_chain(b, spec, n)
    return b.freeze()


def build_aux(spec: FamilySpec, kind: str, n: int) -> Graph:
    """Family graph of n blocks plus the bar/tilde gadget at the anchor.

    For n = 0 the result is the gadget hung on a lone root vertex.
    """
    b = _Builder()
    anchor = _append_chain(b, spec, n)
    legs = _gadget_legs(spec.family_id, kind)
    if anchor is None:
        anchor = b.add_vertex(VertexLabel(GADGET_BLOCK, "root"))
    _attach_gadget(b, anchor, legs)
    return b.freeze()


def build_graph(family_id: str, n: int, aux: Optional[str] = None) -> Graph:
    """Convenience front end: family graph, or bar/tilde variant when aux given."""
    spec = family_spec(family_id)
    if aux is None:
        return build_family(spec, n)
    return build_aux(spec, aux, n)


def gadget_size(family_id: str, kind: str) -> int:
    """Number of vertices (= edges) the gadget adds."""
    return sum(_gadget_legs(family_id, kind))


def graph_order(family_id: str, n: int, aux: Optional[str] = None) -> int:
    """Vertex count of build_graph(family_id, n, aux) without building it."""
    spec = family_spec(family_id)
    base = (spec.cycle_len - 1) * n + 1 if n >= 1 else 0
    if aux is None:
        return base
    return max(base, 1) + gadget_size(spec.family_id, aux)  # n = 0: the lone root
