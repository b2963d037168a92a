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

`reduce_fraction_over_q` is the rational-arithmetic reference for the
integer gcd of `cactus_mis.series.reduce_fraction`, `last_n_within_walk`
the step-by-step reference for the closed form of
`cactus_mis.graphs.last_n_within`, and `scan_root_reference` the
every-grid-point scan that `cactus_mis.asymptotics.smallest_positive_root`
must match bit for bit. `univar_text_reference` is the reference formatter
for `cactus_mis.series.UnivarPoly.text`: it formats each exponent where it
is printed, which `text` reads from a table of suffixes.

`recurrence_reference` is the window loop and `rational_series_reference`
the double loop that `cactus_mis.series._iterate`, the self-feeding iterator
kernel behind `recurrence_sequence`, `recurrence_text` and
`UnivarRational.series`, replaced; each runs Python code per term.

`is_maximal_independent` is the maximality predicate and `parse_dot` reads
back the DOT text of `cactus_mis.emit.to_dot`; only the tests use them.

`chain_graph_reference` builds a chain's edge list block by block and hands it
to the validating `Graph(...)`, naming each vertex as it adds it; it is the
reference for `build_graph`, which writes neighbor masks directly and skips
those checks, and for `graph_labels`, which names the vertices apart from
any graph.
"""

import itertools
import re
from collections import deque
from fractions import Fraction
from itertools import compress, count
from operator import mul

from cactus_mis.asymptotics import BISECT_TOL, SCAN_STEP, SIMPLE_ROOT_TOL
from cactus_mis.graphs import BAR_GADGETS, TILDE_GADGETS, Graph, family_spec, graph_order
from cactus_mis.series import UnivarPoly, UnivarRational


def is_maximal_independent(g, vertices):
    """True iff `vertices` is independent and no outside vertex can be added."""
    chosen = 0
    for v in vertices:
        if not (0 <= v < g.vertex_count):
            raise ValueError(f"vertex {v} out of range")
        chosen |= 1 << v
    # every chosen vertex has no chosen neighbor, every other vertex has one
    return all(bool(chosen >> v & 1) != bool(nb & chosen) for v, nb in enumerate(g.masks))


_DOT_NODE = re.compile(r'^\s*v(\d+)\s*\[label="([^"]*)"\];\s*$')
_DOT_EDGE = re.compile(r"^\s*v(\d+)\s*--\s*v(\d+);\s*$")


def parse_dot(text):
    """Read back the DOT produced by `to_dot`: (vertex_count, edges, labels)."""
    labels = {}
    edges = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("graph") or stripped == "}":
            continue
        m = _DOT_NODE.match(line)
        if m:
            labels[int(m.group(1))] = m.group(2)
            continue
        m = _DOT_EDGE.match(line)
        if m:
            edges.append((int(m.group(1)), int(m.group(2))))
            continue
        raise ValueError(f"unrecognized DOT line: {line!r}")
    return len(labels), edges, labels


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


def reduce_fraction_over_q(r):
    """Reference for `cactus_mis.series.reduce_fraction`: Euclid over the rationals.

    Returns `r` itself when num and den are coprime or when the reduced form
    would leave the integers.
    """
    if r.num.is_zero():
        return UnivarRational(UnivarPoly(), UnivarPoly([1]))

    def frac_mod(a, b):
        a = a[:]
        while len(a) >= len(b) and any(a):
            if a[-1] == 0:
                a.pop()
                continue
            q = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] -= q * bc
            a.pop()
        while a and a[-1] == 0:
            a.pop()
        return a

    def frac_divexact(a, b):
        a = a[:]
        q = [Fraction(0)] * (len(a) - len(b) + 1)
        while len(a) >= len(b) and any(a):
            c = a[-1] / b[-1]
            q[len(a) - len(b)] = c
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] -= c * bc
            while a and a[-1] == 0:
                a.pop()
        return q

    num = [Fraction(c) for c in r.num.coeffs]
    den = [Fraction(c) for c in r.den.coeffs]
    x, y = num, den
    while y:
        x, y = y, frac_mod(x, y)
    if len(x) <= 1:
        return r
    new_num, new_den = frac_divexact(num, x), frac_divexact(den, x)
    scale = new_den[0]
    new_num = [c / scale for c in new_num]
    new_den = [c / scale for c in new_den]
    if any(c.denominator != 1 for c in new_num + new_den):
        return r
    return UnivarRational(UnivarPoly([int(c) for c in new_num]),
                          UnivarPoly([int(c) for c in new_den]))


def recurrence_reference(lags, initial, n_max):
    """Reference for `cactus_mis.series._iterate` without a seed: a_0 ..
    a_{n_max} of a_n = sum_i lags[i-1] * a_{n-i} past `initial`, taking a_m = 0
    for m < 0, from a window of the last len(lags) terms. Each term is a sum
    that starts from the int 0, so the terms keep the type of their values."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    vals = list(initial[: n_max + 1])
    reversed_lags = tuple(reversed(lags))
    # the last len(lags) terms, oldest first; zeros stand for those before a_0
    window = deque([0] * len(lags), maxlen=len(lags))
    window.extend(vals)
    for _ in range(len(vals), n_max + 1):
        v = sum(map(mul, reversed_lags, window))
        vals.append(v)
        window.append(v)
    return vals


def rational_series_reference(r, n_max):
    """Reference for `cactus_mis.series.UnivarRational.series`: a_n = num_n -
    sum_j den_j * a_{n-j}, one term at a time."""
    out = []
    d = r.den.coeffs
    for n in range(n_max + 1):
        v = r.num[n]
        for j in range(1, min(n, len(d) - 1) + 1):
            v -= d[j] * out[n - j]
        out.append(v)
    return out


def univar_text_reference(p, var="x"):
    """Reference for `cactus_mis.series.UnivarPoly.text`: the text of `p` in `var`."""
    coeffs = p.coeffs
    if not coeffs:
        return "0"
    parts = []
    for i in compress(count(), coeffs):  # the degrees of the nonzero terms
        c = coeffs[i]
        if i > 1:  # the common term: one f-string
            if c > 1:
                parts.append(f"+ {c}{var}^{i}")
                continue
            if c < -1:
                parts.append(f"- {-c}{var}^{i}")
                continue
        body = "" if i == 0 else var if i == 1 else f"{var}^{i}"
        mag = abs(c)
        if mag != 1 or not body:
            body = f"{mag}{body}"
        parts.append(("- " if c < 0 else "+ ") + body)
    head = parts[0]
    parts[0] = "-" + head[2:] if head[0] == "-" else head[2:]
    return " ".join(parts)


def chain_graph_reference(family_id, n, kind="family"):
    """Reference for `cactus_mis.graphs.build_graph` and `graph_labels`,
    through an edge list: the graph and its vertex labels.

    Each block is a k-cycle whose position 1 is the previous block's anchor,
    the vertex at cycle distance d from that block's entry; the kind's
    gadget legs hang off the last anchor, or off a lone root for n = 0.
    """
    spec = family_spec(family_id)
    legs = () if kind == "family" else (BAR_GADGETS if kind == "bar" else TILDE_GADGETS)[family_id]
    labels = []
    edges = []
    anchor = None
    for block_no in range(1, n + 1):
        cyc = [] if anchor is None else [anchor]
        for pos in range(len(cyc) + 1, spec.cycle_len + 1):
            cyc.append(len(labels))
            labels.append(f"b{block_no}_p{pos}")
        edges += zip(cyc, cyc[1:] + cyc[:1])
        anchor = cyc[spec.attach_dist]
    if legs and anchor is None:
        anchor = len(labels)
        labels.append("root")
    for leg_no, length in enumerate(legs, start=1):
        prev = anchor
        for pos in range(1, length + 1):
            edges.append((prev, len(labels)))
            prev = len(labels)
            labels.append(f"g{leg_no}_{pos}")
    return Graph(len(labels), edges), labels


def last_n_within_walk(family_id, kind, cap):
    """Reference for `cactus_mis.graphs.last_n_within`: walk n up from 0 while
    the next graph of the kind has at most `cap` vertices."""
    n = 0
    while graph_order(family_id, n + 1, kind) <= cap:
        n += 1
    return n


def scan_root_reference(p):
    """Reference for `cactus_mis.asymptotics.smallest_positive_root`: the scan
    that evaluates every grid point. Smallest x in (0, 1] with p(x) = 0, for p
    with p(0) = 1.

    Scans with a fixed step for the first sign change, then bisects.
    Raises ValueError when no sign change exists or the located root looks
    multiple (derivative vanishing there too).
    """
    if p[0] != 1:
        raise ValueError("polynomial must have constant term 1")
    prev_x, prev_v = 0.0, 1.0
    lo = hi = None
    k = 1
    while True:
        x = k * SCAN_STEP
        if x > 1.0 + SCAN_STEP / 2:
            break
        x = min(x, 1.0)
        v = p.eval_float(x)
        if v == 0.0:
            lo = hi = x
            break
        if prev_v * v < 0:
            lo, hi = prev_x, x
            break
        prev_x, prev_v = x, v
        k += 1
    if lo is None:
        raise ValueError("no sign change in (0, 1]; no dominant positive root found")
    while hi - lo > BISECT_TOL:
        mid = (lo + hi) / 2
        if p.eval_float(lo) * p.eval_float(mid) <= 0:
            hi = mid
        else:
            lo = mid
    root = (lo + hi) / 2
    if abs(p.derivative().eval_float(root)) < SIMPLE_ROOT_TOL:
        raise ValueError(f"derivative nearly vanishes at root {root}; suspected multiple root")
    return root
