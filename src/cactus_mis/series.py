"""Exact integer polynomial arithmetic and rational power-series expansion.

Two variable conventions are used throughout:

* BivarPoly: sparse polynomial in x and y, terms keyed by (x-degree, y-degree),
  with x tracking block count and y tracking set size.
* UnivarPoly: dense coefficient list in one variable (x for counting series,
  y for per-n size polynomials).

series_in_x expands num/den in powers of x. It splits den into sparse rows of
(y-degree, coefficient) per power of x once, then builds each coefficient c_n
as a band: the lowest y-degree any of its terms can reach and the plain list
of ints from there to the highest such degree. Each denominator term
contributes one shifted multiple of an earlier band. The first contribution
is copied into the band between runs of zeros (negated or scaled as its
coefficient asks), each later one is added over its slice, and the numerator
terms are added last; so the zeros below the lowest y-degree (over half of a
deep expansion) cost nothing. Each row's tuple is built once, as lo zeros and
the trimmed band, without UnivarPoly's checks. UnivarPoly has no arithmetic
operators of its own.

UnivarPoly.text reads the suffix of each degree ("", "y", "y^2", ...) from a
table, one list per variable name, that grows as longer polynomials are
printed: the list of a variable holds max(2, d + 1) strings, d the highest
degree printed in it. It is the one piece of module state here.

recurrence_sequence, recurrence_text and UnivarRational.series share one
kernel, `_iterate`, which reads each term back from the list it appends it to,
so no bytecode runs per term. recurrence_text runs it on `decimal.Decimal`s,
whose text costs time linear in the digits where an int's costs quadratic.

Everything here is exact. Floats never appear, and the Decimal arithmetic runs
in a context that raises on any rounding. The value classes are `__slots__`
classes, not frozen dataclasses, for the import cost (see `_frozen`).
"""

from __future__ import annotations

import re
from collections import deque
from itertools import chain, compress, islice, repeat
from math import gcd
from operator import add, mul, neg, sub
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ._frozen import Frozen


# ----------------------------------------------------------------------------
# Univariate polynomials: plain coefficient lists, trailing zeros trimmed.
# ----------------------------------------------------------------------------

class UnivarPoly(Frozen):
    """Dense univariate polynomial over exact integers.

    `coeffs` is a tuple of ints with no trailing zero, which a `_trusted`
    caller keeps itself.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        c = list(map(int, coeffs))
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def derivative(self) -> "UnivarPoly":
        return UnivarPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval_float(self, x: float) -> float:
        r = 0.0
        for c in reversed(self.coeffs):
            r = r * x + c
        return r

    def text(self, var: str = "x") -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        # the nonzero terms, each with the suffix of its degree
        for c, suffix in compress(zip(coeffs, _suffixes(var, len(coeffs))), coeffs):
            if c > 1:
                parts.append(f"+ {c}{suffix}")
            elif c < -1:
                parts.append(f"- {-c}{suffix}")
            elif suffix:
                parts.append(("+ " if c > 0 else "- ") + suffix)
            else:
                parts.append("+ 1" if c > 0 else "- 1")
        head = parts[0]
        parts[0] = "-" + head[2:] if head[0] == "-" else head[2:]
        return " ".join(parts)


# The suffix of each degree, "", var, var^2, ..., per variable name, for
# UnivarPoly.text. A list grows only when a longer polynomial is printed in
# its variable, so it holds max(2, d + 1) strings, d the highest degree printed
# in that variable so far; the package prints in "x" and "y" only. Entry i is
# fixed by var and i alone, so what one caller grows no other caller can see.
_SUFFIXES: dict[str, list[str]] = {}


def _suffixes(var: str, length: int) -> list[str]:
    """The suffix list of `var`, extended to at least `length` degrees."""
    table = _SUFFIXES.get(var)
    if table is None:
        table = _SUFFIXES[var] = ["", var]
    if len(table) < length:
        table += [f"{var}^{i}" for i in range(len(table), length)]
    return table


class UnivarRational(Frozen):
    """Ratio of two integer polynomials with unit constant denominator term."""

    __slots__ = ("num", "den")

    def __init__(self, num: UnivarPoly, den: UnivarPoly):
        if den[0] != 1:
            raise ValueError("denominator must have constant term 1")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def series(self, n_max: int) -> list[int]:
        """Coefficients a_0 .. a_{n_max} of the power-series expansion: the
        recurrence a_n = num_n - sum_j den_j * a_{n-j}, seeded with num."""
        return _iterate([-c for c in self.den.coeffs[1:]], (), n_max, self.num.coeffs)


def _primitive(p: list[int]) -> list[int]:
    """p divided by the gcd of its coefficients (the zero polynomial stays [])."""
    g = gcd(*p)
    return [c // g for c in p] if g else p


def _primitive_prem(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of the pseudo-remainder of a by a nonzero b.

    Each step multiplies a by the leading coefficient of b before it cancels
    a's leading term, so everything stays in the integers.
    """
    a = a[:]
    lead, tail = b[-1], b[:-1]
    while len(a) >= len(b):
        top = a.pop()
        shift = len(a) - len(tail)
        a = [c * lead for c in a]
        for i, c in enumerate(tail):
            a[shift + i] -= top * c
        while a and not a[-1]:
            a.pop()
    return _primitive(a)


def _divexact(a: list[int], b: list[int]) -> Optional[list[int]]:
    """a / b over the integers, or None when b does not divide a there."""
    a = a[:]
    q = [0] * (len(a) - len(b) + 1)
    while len(a) >= len(b):
        c, rem = divmod(a[-1], b[-1])
        if rem:
            return None
        shift = len(a) - len(b)
        q[shift] = c
        for i, bc in enumerate(b):
            a[shift + i] -= c * bc
        while a and not a[-1]:
            a.pop()
    return None if a else q


def reduce_fraction(r: UnivarRational) -> UnivarRational:
    """Cancel a common polynomial factor of num and den, keeping den[0] = 1.

    The gcd comes from primitive pseudo-remainders, all in the integers.
    Returns the input unchanged when num and den are coprime, or when the
    reduced form would leave the integers. (By Gauss's lemma the primitive
    gcd g divides both exactly over the integers, and g(0) * (den / g)(0) =
    den(0) = 1 makes both factors +-1, so that second case does not arise
    for a valid UnivarRational.)
    """
    if r.num.is_zero():
        return UnivarRational(UnivarPoly(), UnivarPoly([1]))
    num, den = list(r.num.coeffs), list(r.den.coeffs)
    a, b = _primitive(num), _primitive(den)
    while b:
        a, b = b, _primitive_prem(a, b)
    if len(a) <= 1:
        return r
    new_num, new_den = _divexact(num, a), _divexact(den, a)
    if new_num is None or new_den is None:
        return r
    sign = new_den[0]  # +-1, see above; scales den[0] to 1
    return UnivarRational(UnivarPoly(c * sign for c in new_num),
                          UnivarPoly(c * sign for c in new_den))


# ----------------------------------------------------------------------------
# Bivariate polynomials.
# ----------------------------------------------------------------------------

class BivarPoly(Frozen):
    """Sparse bivariate polynomial: {(x_deg, y_deg): coefficient}."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] = ()):
        frozen = {}
        for (i, j), c in dict(terms).items():
            if i < 0 or j < 0:
                raise ValueError("degrees must be nonnegative")
            if c:
                frozen[(int(i), int(j))] = int(c)
        object.__setattr__(self, "terms", frozen)

    @classmethod
    def constant(cls, c: int) -> "BivarPoly":
        return cls({(0, 0): c})

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return BivarPoly(out)

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
        return BivarPoly(out)

    def degree_x(self) -> int:
        return max((i for (i, _) in self.terms), default=-1)

    def substitute_y1(self) -> UnivarPoly:
        out: dict[int, int] = {}
        for (i, _j), c in self.terms.items():
            out[i] = out.get(i, 0) + c
        if not out:
            return UnivarPoly()
        dense = [0] * (max(out) + 1)
        for i, c in out.items():
            dense[i] = c
        return UnivarPoly(dense)


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?P<coef>\d+)?\s*(?P<star1>\*)?\s*"
    r"(?P<xpart>x(?:\^(?P<xd>\d+))?)?\s*(?P<star2>\*)?\s*"
    r"(?P<ypart>y(?:\^(?P<yd>\d+))?)?"
)
# a term's factors and '*' separators, in the order _TERM_RE matches them
_TERM_PARTS = (("coef", "f"), ("star1", "*"), ("xpart", "f"), ("star2", "*"), ("ypart", "f"))


def parse_bivar(text: str) -> BivarPoly:
    """Parse integer-coefficient terms like "1 + 2xy - 4x^2*y^3".

    Whitespace and explicit '*' separators are optional, but a '*' must
    stand between two factors; bare 'x' or 'y' means exponent 1.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial literal")
    out: dict[tuple[int, int], int] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot parse polynomial near {s[pos:pos + 20]!r}")
        sign, coef, xpart, ypart = m.group("sign"), m.group("coef"), m.group("xpart"), m.group("ypart")
        shape = "".join(mark for group, mark in _TERM_PARTS if m.group(group) is not None)
        if shape[:1] != "f" or shape[-1:] != "f" or "**" in shape:
            raise ValueError(f"cannot parse polynomial near {s[pos:pos + 20]!r}")
        if sign is None and not first:
            raise ValueError(f"missing +/- before term near {s[pos:pos + 20]!r}")
        c = int(coef) if coef is not None else 1
        if sign == "-":
            c = -c
        i = int(m.group("xd")) if m.group("xd") else (1 if xpart else 0)
        j = int(m.group("yd")) if m.group("yd") else (1 if ypart else 0)
        out[(i, j)] = out.get((i, j), 0) + c
        pos = m.end()
        first = False
    return BivarPoly(out)


def parse_univar(text: str) -> UnivarPoly:
    """Parse a literal in x only (y not allowed)."""
    p = parse_bivar(text)
    if any(j for (_i, j) in p.terms):
        raise ValueError("literal contains y terms where a univariate was expected")
    return p.substitute_y1()


# ----------------------------------------------------------------------------
# Rational generating functions in two variables.
# ----------------------------------------------------------------------------

class RationalGF(Frozen):
    """num/den with den(0, y) = 1, so the power series in x is well defined."""

    __slots__ = ("num", "den")

    def __init__(self, num: BivarPoly, den: BivarPoly):
        if {j: c for (i, j), c in den.terms.items() if i == 0} != {0: 1}:
            raise ValueError("denominator must satisfy den(0, y) = 1")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def from_literals(cls, num: str, den: str, offset: int = 0) -> "RationalGF":
        """Build from term literals; a stated additive constant is folded into num."""
        n, d = parse_bivar(num), parse_bivar(den)
        if offset:
            n = n + d * BivarPoly.constant(offset)
        return cls(n, d)


def _rows_by_x(p: BivarPoly) -> list[list[tuple[int, int]]]:
    """The terms of p as one sparse row of (y-degree, coefficient) per x-degree."""
    rows: list[list[tuple[int, int]]] = [[] for _ in range(p.degree_x() + 1)]
    for (i, j), c in sorted(p.terms.items()):
        rows[i].append((j, c))
    return rows


def series_in_x(gf: RationalGF, n_max: int) -> list[UnivarPoly]:
    """Series coefficients c_0 .. c_{n_max}, each a polynomial in y.

    c_n = N_n - sum_{j=1..deg_x(den)} D_j * c_{n-j}, all exact. Each c_n is
    built as a band (lo, list): lo is the lowest y-degree any term can reach
    and the list runs from there to the highest such degree. A term d*y^s of
    D_j subtracts d times the band of c_{n-j}, shifted up by s. The first such
    term's product is copied in between zeros, each later one is subtracted
    in one slice assignment, and the terms of N_n are added last. The band
    loses its trailing zeros, and the row's coefficient tuple is built once
    from it, as lo zeros followed by the band.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    den = _rows_by_x(gf.den)
    num = _rows_by_x(gf.num)
    bands: deque[tuple[int, list[int]]] = deque(maxlen=len(den) - 1)  # c_{n-1} is bands[-1]
    out: list[UnivarPoly] = []
    for n in range(n_max + 1):
        updates = []
        for j in range(1, min(n, len(den) - 1) + 1):
            prev_lo, prev = bands[-j]
            if prev:
                updates += [(s + prev_lo, d, prev) for s, d in den[j]]
        num_row = num[n] if n < len(num) else []
        lo = min([at for at, _d, _prev in updates] + [j for j, _a in num_row], default=0)
        hi = max([at + len(prev) for at, _d, prev in updates] + [j + 1 for j, _a in num_row],
                 default=0)
        c = []
        if updates:  # the first contribution is copied in, between runs of zeros
            at, d, prev = updates[0]
            c = [0] * (at - lo)
            c += prev if d == -1 else map(neg, prev) if d == 1 else map((-d).__mul__, prev)
        c += [0] * (hi - lo - len(c))
        for at, d, prev in updates[1:]:
            at -= lo
            end = at + len(prev)
            if d == -1:  # most den terms are +-1 and need no multiply
                c[at:end] = map(add, c[at:end], prev)
            elif d == 1:
                c[at:end] = map(sub, c[at:end], prev)
            else:
                c[at:end] = map(sub, c[at:end], map(d.__mul__, prev))
        for j, a in num_row:
            c[j - lo] += a
        while c and not c[-1]:  # a cancelled top term; the trimmed band is the same
            c.pop()
        bands.append((lo, c))
        out.append(UnivarPoly._trusted((0,) * lo + tuple(c) if c else ()))
    return out


def specialize_y1(gf: RationalGF) -> UnivarRational:
    """Substitute y = 1, giving the plain counting series in x."""
    num = gf.num.substitute_y1()
    den = gf.den.substitute_y1()  # den(0, 1) = 1, as RationalGF requires den(0, y) = 1
    return UnivarRational(num, den)


def recurrence_from_gf(r: UnivarRational) -> tuple[tuple[int, ...], int]:
    """Lag coefficients and first index from which they hold.

    For a_n the series of num/den with den = 1 - l_1 x - ... - l_r x^r,
    a_n = sum_i l_i a_{n-i} for every n > deg(num).
    """
    lags = tuple(-c for c in r.den.coeffs[1:])
    valid_from = r.num.degree + 1
    return lags, max(valid_from, 1)


# The kernel of recurrence_sequence, recurrence_text and UnivarRational.series.
# It is private because the benchmark's tracer (perfbench/tracer.py) wraps each
# public function here and reads the bit length of recurrence_sequence's terms.
def _iterate(lags: Sequence, initial: Sequence, n_max: int, seed: Iterable = ()) -> list:
    """a_0 .. a_{n_max}: `initial`, then each a_n the next value of `seed` (the
    int 0 once it runs out) plus sum_i lags[i-1] * a_{n-i}, taking a_m = 0 for m < 0.

    A term is that value, plus or minus each term a lag of +-1 reads (with no
    multiply), plus each other lag * term product; so ints give ints, and
    `decimal.Decimal` values in an exact context give Decimals (from no
    initial values the run is zeros, the int 0 where no lag multiplied). No
    bytecode runs per term: `vals` is len(lags) zeros (the terms before a_0),
    then the terms, and lag i reads it from i + 1 places before the next new
    term; `extend` appends each sum as it is made, and a list iterator sees
    items appended after it was made, so each term is there when needed.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    order = len(lags)
    vals = [0] * order + list(initial[: n_max + 1])
    start = len(vals)
    sums = chain(seed, repeat(0))
    for i, lag in enumerate(lags):
        prev = islice(vals, start - 1 - i, None)
        if lag not in (1, -1):
            prev = map(mul, repeat(lag), prev)
        sums = map(sub if lag == -1 else add, sums, prev)
    vals.extend(islice(sums, n_max + 1 + order - start))
    del vals[:order]
    return vals


def recurrence_sequence(lags: Sequence[int], initial: Sequence[int], n_max: int) -> list[int]:
    """a_0 .. a_{n_max} by exact iteration, taking a_m = 0 for m < 0.

    With no lags, every term past `initial` is 0. The terms have the type of
    `lags` and `initial`, and nothing is coerced: ints in give ints out. (The
    catalog holds ints only; `load_catalog` rejects any other value.)
    """
    return _iterate(lags, initial, n_max)


def recurrence_text(lags: Sequence[int], initial: Sequence[int], n_max: int) -> Iterator[str]:
    """`str` of each term `recurrence_sequence` gives, in time linear in the
    length of the text.

    CPython turns an int into decimal text in time quadratic in its digits
    (hence its 4300-digit cap); a `decimal.Decimal` is stored in base-10
    limbs, so its text costs one pass. So the recurrence runs on Decimals, in
    a context whose precision and exponent range no integer here can reach
    and that traps every rounding: a term that could not be held exactly
    would raise, never print a wrong digit. The context is local to the run,
    and the text is made after it, as the caller reads it. `decimal` is
    imported here, not at the top, so that importing the package does not
    load it.
    """
    from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact,
                         InvalidOperation, Overflow, Rounded, localcontext)

    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                    traps=[Inexact, Rounded, InvalidOperation, Overflow])
    with localcontext(exact):
        terms = _iterate(tuple(map(Decimal, lags)), tuple(map(Decimal, initial)), n_max)
    return map(str, terms)


def rational_from_recurrence(lags: Sequence[int], initial: Sequence[int]) -> UnivarRational:
    """The unique rational function whose series starts with `initial` and
    thereafter obeys the given lags: den = 1 - sum l_i x^i, num = den * series."""
    den = UnivarPoly([1] + [-int(l) for l in lags])
    num_coeffs = []
    for i, a in enumerate(initial):
        v = int(a)
        for j, lag in enumerate(lags, start=1):
            if i - j >= 0:
                v -= lag * int(initial[i - j])
        num_coeffs.append(v)
    return UnivarRational(UnivarPoly(num_coeffs), den)
