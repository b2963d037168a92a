"""Independent re-counting oracles used only by the tests.

These deliberately share no code with the frontier-sweep oracle
(`cactus_mis.oracle.enumerate_mis`):

* subset_filter_slow: try literally every vertex subset through the public
  maximality predicate.
* subset_filter_masks: tabulate independence and closed-neighborhood coverage
  for all 2^n bitmasks; a mask counts when it is independent and covers V.
* complement_cliques: pivoted Bron-Kerbosch on the complement graph; its
  maximal cliques are exactly the maximal independent sets.

`convolve` gives the distribution of a disjoint union from those of its
parts (sizes add, counts multiply).
"""

import itertools

from cactus_mis.oracle import is_maximal_independent


def subset_filter_slow(g):
    if g.vertex_count == 0:
        return {0: 1}
    counts = {}
    for r in range(g.vertex_count + 1):
        for subset in itertools.combinations(range(g.vertex_count), r):
            if is_maximal_independent(g, subset):
                counts[r] = counts.get(r, 0) + 1
    return counts


def subset_filter_masks(g):
    n = g.vertex_count
    if n == 0:
        return {0: 1}
    nb = g.masks
    full = (1 << n) - 1
    independent = bytearray(1 << n)
    independent[0] = 1
    coverage = [0] * (1 << n)
    counts = {}
    popcount = int.bit_count
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        v = low.bit_length() - 1
        coverage[mask] = coverage[rest] | nb[v] | low
        if independent[rest] and nb[v] & rest == 0:
            independent[mask] = 1
            if coverage[mask] == full:
                k = popcount(mask)
                counts[k] = counts.get(k, 0) + 1
    return counts


def complement_cliques(g):
    n = g.vertex_count
    if n == 0:
        return {0: 1}
    comp = [{u for u in range(n) if u != v and not g.masks[v] >> u & 1} for v in range(n)]
    counts = {}

    def expand(r_size, p, x):
        if not p and not x:
            counts[r_size] = counts.get(r_size, 0) + 1
            return
        pivot = max(p | x, key=lambda u: len(comp[u] & p))
        for v in list(p - comp[pivot]):
            expand(r_size + 1, p & comp[v], x & comp[v])
            p.remove(v)
            x.add(v)

    expand(0, set(range(n)), set())
    return counts


def convolve(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            out[ka + kb] = out.get(ka + kb, 0) + va * vb
    return out
