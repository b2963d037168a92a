"""Exact counts of maximal independent sets, tabulated by size.

This is the project's ground truth. It counts the sets without listing them:
a frontier sweep decides the vertices in index order, one layer per vertex,
and keeps only what the rest of the graph can still see (the chosen vertices
with a neighbor ahead, and the excluded vertices not yet dominated). Partial
choices with the same frontier state are merged. A state dies as soon as an
undominated excluded vertex has no neighbor left ahead: it could then be
added, so no extension is maximal. On the chain cacti every block meets the
next in one cut vertex, so the frontier stays a few vertices wide and the
work grows linearly with the number of blocks. Counts are exact Python
integers.

State encoding. Each frontier state carries its size polynomial
sum_k count_k * y^k packed into one integer evaluated at y = 2^w (Kronecker
substitution), P = sum_k count_k * 2^(w*k). The digit width is w =
TRAIL_WIDTH = 64 for a graph on n < 64 vertices and w = n + 1 for a larger
one (why all small graphs share one width: see Resumed sweeps). Choosing a
vertex multiplies by y, which is `P << w`; merging two equal states adds
their polynomials, which is `P1 + P2`. Both
are single big-integer operations, and P is unpacked into {k: count} once,
at the end. The unpacking keeps only the nonzero digits, so the counts come
back zero-free and go to `SizeDistribution._trusted` unchecked: every key is
a digit index k >= 0 and every value a positive digit, which is all that
`SizeDistribution(...)` would check or drop.

Why the digits never carry. After the first j vertices are decided, count_k
of a state is the number of partial choices with k chosen vertices that
reach that state. Distinct partial choices are distinct k-subsets of those
j vertices, and a merge only adds counts of disjoint families of them, so
count_k <= C(j, k) <= 2^j <= 2^n < 2^(n+1) <= 2^w at every step, including
the digit sums formed by a merge: from 64 vertices on w = n + 1, and below
that n <= 63 gives n + 1 <= 64 = w. Each digit therefore stays in [0, 2^w),
no operation carries into the next digit, and unpacking by w-bit digits
returns the exact counts. (A digit can reach 2^(n/2): a perfect matching on
n vertices has 2^(n/2) maximal independent sets, all of size n/2, so a width
near n/2 is already too narrow.)

Cost. A packed state holds about n/2 digits of w bits, zeros included,
while a {k: count} dict holds only its nonzero counts, each no wider than it
has to be. On the ortho-hexagonal chains the two forms cost about the same
at 400-500 vertices; past that the packed form is slower, about three times
slower at 1501 vertices. The default 64-vertex guard and the verifier's
graphs (at most 45 vertices) sit far below that crossover.

Resumed sweeps. The layer after vertices 0..v-1 is a function of the masks
nb[0..v-1] and of w alone. Step u reads the layer before it, nb[u] and
ahead[u+1], and it meets ahead[u+1] only in states whose bits are vertices
<= u. For such a vertex x, bit x of ahead[u+1] says whether x has a neighbor
at index u+1 or later, and adjacency is symmetric, so that bit is read off
nb[x]. By induction on v, two graphs with the same w whose masks agree on
vertices 0..v-1 (whole masks, bits of later vertices included) have the same
layers 0..v; nothing here assumes a chain. A caller may therefore pass a
trail, the (mask, layer) pairs of the last graph it swept: the sweep starts
from the layer after the longest prefix of masks the two graphs share, and
leaves its own pairs in the trail. Whole masks are what keep this exact: a
later vertex with an edge back into the prefix changes the mask of the
vertex it joins, and the resume stops there. Graphs that share a trail must
share w, hence the one width 64 for every graph under 64 vertices. A larger
graph neither reads nor writes a trail, so a trail holds at most 63 layers
of one graph, and each state in them at most 64 digits of 64 bits. The
pairs go in one at a time, each complete, so a sweep cut short still leaves
a trail that holds.

Work of one `verify --scope all` run: 243 sweeps of 5,592 vertices in all.
Each from the start, they would sweep 5,592 layers (one per vertex) with
22,804 state visits. From one trail, in lexicographic order of their mask
tuples (the depth-first order of their trie), each of the 1,256 distinct
mask prefixes is swept once: 5,321 visits (in plan order, 1,814 layers with
7,831). No layer holds more than 11 states. At that size the fixed cost of
each visit counts, so the loop keeps to plain integer tests: a state
survives if `x & keep == x` for its open set x, and a merge is `+=` on a key
already present, else a store.

The survival tests only prune. Open bits are never masked off, so a state
with an open vertex that can no longer be dominated keeps that bit to the
end and never reaches the final (0, 0) key; dropping a test changes the work
but not the counts. So a copy without the dominated branch's test still
counts right; the per-layer state counts a trail records show the pruning
(on the verify run above, that copy makes 5,818 visits instead of 5,321).

SizeDistribution is a `__slots__` class, not a frozen dataclass, for the
import cost (see `_frozen`).
"""

from __future__ import annotations

from typing import Mapping, Optional

from ._frozen import Frozen
from .graphs import Graph

DEFAULT_VERTEX_LIMIT = 64
TRAIL_WIDTH = 64  # digit width of every graph under 64 vertices; only they use a trail


class VertexLimitExceeded(Exception):
    """Raised when a graph is larger than the configured enumeration limit."""

    def __init__(self, vertex_count: int, limit: int):
        super().__init__(
            f"graph has {vertex_count} vertices, above the enumeration limit of "
            f"{limit}; raise the limit explicitly to proceed"
        )
        self.vertex_count = vertex_count
        self.limit = limit


class SizeDistribution(Frozen):
    """Exact map from set size k to the number of maximal independent sets.

    `counts` holds positive int counts at int keys >= 0, with no zero count,
    which a `_trusted` caller keeps itself.
    """

    __slots__ = ("counts",)

    def __init__(self, counts: Mapping[int, int]):
        frozen = {int(k): int(v) for k, v in counts.items() if v}
        if any(k < 0 or v < 0 for k, v in frozen.items()):
            raise ValueError("sizes and counts must be nonnegative")
        object.__setattr__(self, "counts", frozen)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def __getitem__(self, k: int) -> int:
        return self.counts.get(k, 0)

    def __eq__(self, other) -> bool:
        if isinstance(other, SizeDistribution):
            return self.counts == other.counts
        if isinstance(other, dict):
            return self.counts == {k: v for k, v in other.items() if v}
        return NotImplemented

    __hash__ = Frozen.__hash__  # a class that defines __eq__ alone gets no hash

    def items(self):
        return sorted(self.counts.items())

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in self.items())
        return "{" + inner + "}"


def enumerate_mis(g: Graph, vertex_limit: int = DEFAULT_VERTEX_LIMIT,
                  trail: Optional[list] = None) -> SizeDistribution:
    """Count all maximal independent sets of g by cardinality.

    The empty graph has exactly one maximal independent set, the empty set.

    `trail` is a list the caller owns, empty at first, that carries one
    graph's sweep to the next call: entry v is (mask of vertex v, layer
    after vertices 0..v). Given one, and g under TRAIL_WIDTH vertices, the
    sweep resumes after the longest prefix of `g.masks` the trail records,
    and leaves g's own entries there; the counts are the same as without
    one. A caller passes its trail to the calls of one run and drops it at
    the end; it holds fewer than TRAIL_WIDTH entries.

    Raises VertexLimitExceeded for graphs above `vertex_limit` vertices.
    """
    n = g.vertex_count
    if n > vertex_limit:
        raise VertexLimitExceeded(n, vertex_limit)

    nb = g.masks
    # one digit width for every graph a trail can hold, so that their layers
    # mix (the module docstring proves it wide enough)
    w = max(n + 1, TRAIL_WIDTH)
    layer: dict[tuple[int, int], int] = {(0, 0): 1}
    start = 0
    if n >= TRAIL_WIDTH:
        trail = None  # a larger graph neither reads nor writes a trail
    elif trail is not None:
        # the layer after vertices 0..v depends on nb[0..v] and w alone
        stop = min(n, len(trail))
        while start < stop and trail[start][0] == nb[start]:
            start += 1
        del trail[start:]
        if start:
            layer = trail[-1][1]

    # ahead[v]: vertices with a neighbor at index v or later (read from
    # ahead[start + 1] on)
    ahead = [0] * (n + 1)
    for v in range(n - 1, start, -1):
        ahead[v] = ahead[v + 1] | nb[v]

    # A state is (chosen, open): chosen vertices that still have a neighbor
    # at or after the cursor, and excluded vertices no chosen vertex
    # dominates yet. Each state carries its packed size polynomial (see the
    # module docstring), so choosing v is `poly << w` and a merge is `+`.
    for v in range(start, n):
        bit, nbv, keep = 1 << v, nb[v], ahead[v + 1]
        nxt: dict[tuple[int, int], int] = {}
        # a state survives only if each of its open vertices has a neighbor
        # ahead: one with none can never be dominated (it could be added),
        # so no extension is maximal
        for (chosen, open_excluded), poly in layer.items():
            if nbv & chosen:
                # v is dominated: it stays out and is not open
                if open_excluded & keep == open_excluded:
                    key = (chosen & keep, open_excluded)
                    if key in nxt:
                        nxt[key] += poly
                    else:
                        nxt[key] = poly
                continue
            # v is chosen: it dominates its open neighbors
            in_open = open_excluded ^ (open_excluded & nbv)
            if in_open & keep == in_open:
                key = ((chosen | bit) & keep, in_open)
                if key in nxt:
                    nxt[key] += poly << w
                else:
                    nxt[key] = poly << w
            out_open = open_excluded | bit
            if out_open & keep == out_open:
                key = (chosen & keep, out_open)
                if key in nxt:
                    nxt[key] += poly
                else:
                    nxt[key] = poly
        layer = nxt
        if trail is not None:
            trail.append((nbv, nxt))
    # nothing is ahead of the last vertex, so (0, 0) is the only state left
    # (every graph has a maximal independent set, so it is there)
    packed = layer[(0, 0)]
    counts: dict[int, int] = {}
    mask = (1 << w) - 1
    k = 0
    while packed:
        digit = packed & mask
        if digit:
            counts[k] = digit
        packed >>= w
        k += 1
    return SizeDistribution._trusted(counts)
