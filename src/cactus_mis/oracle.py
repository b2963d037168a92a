"""Exact counts of maximal independent sets, tabulated by size.

This is the project's ground truth. It counts the sets without listing them:
a frontier sweep decides the vertices in index order, one layer per vertex,
and keeps only what the rest of the graph can still see (the chosen vertices
with a neighbor ahead, and the excluded vertices not yet dominated). Partial
choices with the same frontier state are merged, each carrying a size
polynomial {k: count}. A state dies as soon as an undominated excluded vertex
has no neighbor left ahead: it could then be added, so no extension is
maximal. On the chain cacti every block meets the next in one cut vertex, so
the frontier stays a few vertices wide and the work grows linearly with the
number of blocks. Counts are exact Python integers.
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

    def shifted(self, dk: int) -> "SizeDistribution":
        """Same counts with every size increased by dk."""
        return SizeDistribution({k + dk: v for k, v in self.counts.items()})

    def scaled(self, c: int) -> "SizeDistribution":
        return SizeDistribution({k: c * v for k, v in self.counts.items()})

    def __add__(self, other: "SizeDistribution") -> "SizeDistribution":
        out = dict(self.counts)
        for k, v in other.counts.items():
            out[k] = out.get(k, 0) + v
        return SizeDistribution(out)

    def convolve(self, other: "SizeDistribution") -> "SizeDistribution":
        """Distribution of a disjoint union: sizes add, counts multiply."""
        out: dict[int, int] = {}
        for ka, va in self.counts.items():
            for kb, vb in other.counts.items():
                out[ka + kb] = out.get(ka + kb, 0) + va * vb
        return SizeDistribution(out)

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

    nb = g.neighbor_masks()
    # ahead[v]: vertices with a neighbor at index v or later
    ahead = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        ahead[v] = ahead[v + 1] | nb[v]

    # A state is (chosen, open): chosen vertices that still have a neighbor
    # at or after the cursor, and excluded vertices no chosen vertex
    # dominates yet. Each state carries its size polynomial {k: count}.
    layer: dict[tuple[int, int], dict[int, int]] = {(0, 0): {0: 1}}
    for v in range(n):
        bit, nbv, keep = 1 << v, nb[v], ahead[v + 1]
        dead = ~keep
        nxt: dict[tuple[int, int], dict[int, int]] = {}
        for (chosen, open_excluded), poly in layer.items():
            if nbv & chosen:
                # v is dominated: it stays out and is not open
                moves = ((chosen & keep, open_excluded, 0),)
            else:
                moves = (((chosen | bit) & keep, open_excluded & ~nbv, 1),
                         (chosen & keep, open_excluded | bit, 0))
            for key_chosen, key_open, dk in moves:
                if key_open & dead:
                    # an open vertex with no neighbor left ahead can never be
                    # dominated (it could be added), so no extension is maximal
                    continue
                acc = nxt.get((key_chosen, key_open))
                if acc is None:
                    nxt[(key_chosen, key_open)] = ({k + 1: c for k, c in poly.items()}
                                                   if dk else dict(poly))
                else:
                    for k, c in poly.items():
                        acc[k + dk] = acc.get(k + dk, 0) + c
        layer = nxt
    # nothing is ahead of the last vertex, so (0, 0) is the only state left
    # (every graph has a maximal independent set, so it is there)
    return SizeDistribution(layer[(0, 0)])


def mis_count(g: Graph, vertex_limit: int = DEFAULT_VERTEX_LIMIT) -> int:
    """Total number of maximal independent sets of g."""
    return enumerate_mis(g, vertex_limit=vertex_limit).total


def is_maximal_independent(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff `vertices` is independent and no outside vertex can be added."""
    s = set(vertices)
    for v in s:
        if not (0 <= v < g.vertex_count):
            raise ValueError(f"vertex {v} out of range")
    for v in s:
        if any(w in s for w in g.adjacency[v]):
            return False
    for v in range(g.vertex_count):
        if v not in s and not any(w in s for w in g.adjacency[v]):
            return False
    return True
