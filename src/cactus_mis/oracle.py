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
substitution), P = sum_k count_k * 2^(w*k), with digit width w = n + 1 for a
graph on n vertices. Choosing a vertex multiplies by y, which is `P << w`;
merging two equal states adds their polynomials, which is `P1 + P2`. Both
are single big-integer operations, and P is unpacked into {k: count} once,
at the end.

Why the digits never carry. After the first j vertices are decided, count_k
of a state is the number of partial choices with k chosen vertices that
reach that state. Distinct partial choices are distinct k-subsets of those
j vertices, and a merge only adds counts of disjoint families of them, so
count_k <= C(j, k) <= 2^j <= 2^n < 2^w at every step, including the digit
sums formed by a merge. Each digit therefore stays in [0, 2^w), no operation
carries into the next digit, and unpacking by w-bit digits returns the exact
counts. (A digit can reach 2^(n/2): a perfect matching on n vertices has
2^(n/2) maximal independent sets, all of size n/2, so a width near n/2 is
already too narrow.)

Cost. A packed state holds about n/2 digits of n + 1 bits, zeros included,
while a {k: count} dict holds only its nonzero counts, each no wider than it
has to be. On the ortho-hexagonal chains the two forms cost about the same
at 400-500 vertices; past that the packed form is slower, about three times
slower at 1501 vertices. The default 64-vertex guard and the verifier's
graphs (at most 45 vertices) sit far below that crossover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .graphs import Graph

DEFAULT_VERTEX_LIMIT = 64


class VertexLimitExceeded(Exception):
    """Raised when a graph is larger than the configured enumeration limit."""

    def __init__(self, vertex_count: int, limit: int):
        super().__init__(
            f"graph has {vertex_count} vertices, above the enumeration limit of "
            f"{limit}; raise the limit explicitly to proceed"
        )
        self.vertex_count = vertex_count
        self.limit = limit


@dataclass(frozen=True)
class SizeDistribution:
    """Exact map from set size k to the number of maximal independent sets."""

    counts: Mapping[int, int]

    def __post_init__(self):
        frozen = {int(k): int(v) for k, v in self.counts.items() if v}
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

    def __hash__(self):
        return hash(frozenset(self.counts.items()))

    def items(self):
        return sorted(self.counts.items())

    def as_dict(self) -> dict[int, int]:
        return dict(sorted(self.counts.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in self.items())
        return "{" + inner + "}"


def enumerate_mis(g: Graph, vertex_limit: int = DEFAULT_VERTEX_LIMIT) -> SizeDistribution:
    """Count all maximal independent sets of g by cardinality.

    The empty graph has exactly one maximal independent set, the empty set.

    Raises VertexLimitExceeded for graphs above `vertex_limit` vertices.
    """
    n = g.vertex_count
    if n > vertex_limit:
        raise VertexLimitExceeded(n, vertex_limit)

    nb = g.masks
    # ahead[v]: vertices with a neighbor at index v or later
    ahead = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        ahead[v] = ahead[v + 1] | nb[v]

    # A state is (chosen, open): chosen vertices that still have a neighbor
    # at or after the cursor, and excluded vertices no chosen vertex
    # dominates yet. Each state carries its packed size polynomial (see the
    # module docstring), so choosing v is `poly << w` and a merge is `+`.
    w = n + 1
    layer: dict[tuple[int, int], int] = {(0, 0): 1}
    for v in range(n):
        bit, nbv, keep = 1 << v, nb[v], ahead[v + 1]
        dead = ~keep
        nxt: dict[tuple[int, int], int] = {}
        get = nxt.get
        for (chosen, open_excluded), poly in layer.items():
            if nbv & chosen:
                # v is dominated: it stays out and is not open
                out_open = open_excluded
            else:
                in_open = open_excluded & ~nbv
                # an open vertex with no neighbor left ahead can never be
                # dominated (it could be added), so no extension is maximal
                if not in_open & dead:
                    key = ((chosen | bit) & keep, in_open)
                    nxt[key] = get(key, 0) + (poly << w)
                out_open = open_excluded | bit
            if not out_open & dead:
                key = (chosen & keep, out_open)
                nxt[key] = get(key, 0) + poly
        layer = nxt
    # nothing is ahead of the last vertex, so (0, 0) is the only state left
    # (every graph has a maximal independent set, so it is there)
    packed = layer[(0, 0)]
    counts: dict[int, int] = {}  # zero digits are dropped by SizeDistribution
    mask = (1 << w) - 1
    k = 0
    while packed:
        counts[k] = packed & mask
        packed >>= w
        k += 1
    return SizeDistribution(counts)


def is_maximal_independent(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff `vertices` is independent and no outside vertex can be added."""
    chosen = 0
    for v in vertices:
        if not (0 <= v < g.vertex_count):
            raise ValueError(f"vertex {v} out of range")
        chosen |= 1 << v
    # every chosen vertex has no chosen neighbor, every other vertex has one
    return all(bool(chosen >> v & 1) != bool(nb & chosen) for v, nb in enumerate(g.masks))
