"""Exact polynomial arithmetic, parsing, series expansion, and recurrences."""

import pickle
import random
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, InvalidOperation,
                     Overflow, Rounded, localcontext)
from itertools import islice, repeat
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (rational_series_reference, recurrence_reference, reduce_fraction_over_q,
                      univar_text_reference)
from cactus_mis import catalog as catalog_mod
from cactus_mis import series as series_mod
from cactus_mis.asymptotics import AsymptoticEstimate
from cactus_mis.catalog import (
    AsymptoticClaim,
    BoundaryCheck,
    Catalog,
    GFCandidate,
    RecurrenceClaim,
    TransferIdentity,
    TransferTerm,
    load_catalog,
)
from cactus_mis.graphs import FAMILIES, FamilySpec, Graph, build_graph
from cactus_mis.oracle import SizeDistribution
from cactus_mis.series import (
    BivarPoly,
    RationalGF,
    UnivarPoly,
    UnivarRational,
    parse_bivar,
    parse_univar,
    rational_from_recurrence,
    recurrence_from_gf,
    recurrence_sequence,
    recurrence_text,
    reduce_fraction,
    series_in_x,
    specialize_y1,
)

small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-9, 9),
    max_size=5,
).map(BivarPoly)


def test_parse_basic_terms():
    p = parse_bivar("1 + 2xy + x^2y^2")
    assert p.terms == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    q = parse_bivar("-11x^2y^4+5xy^2")
    assert q.terms == {(2, 4): -11, (1, 2): 5}
    r = parse_bivar("3 * x^2 * y - y")
    assert r.terms == {(2, 1): 3, (0, 1): -1}
    assert parse_bivar("x - x").terms == {}
    assert parse_univar("-4x^3 - 5x^2 - x + 1").coeffs == (1, -1, -5, -4)


def test_parse_rejects_garbage():
    for bad in ("", "x +", "2z", "x^^2", "x 2", "2*", "x*", "*x", "1 + * x"):
        with pytest.raises(ValueError):
            parse_bivar(bad)
    with pytest.raises(ValueError):
        parse_univar("1 + xy")


# Recorded from text() before each of its rewrites; they pin the printed format.
UNIVAR_TEXT_GOLDEN = [
    ((), "x", "0"),
    ((0, 0), "y", "0"),
    ((-3,), "x", "-3"),
    ((1,), "y", "1"),
    ((-1,), "x", "-1"),
    ((7,), "x", "7"),
    ((0, -1), "y", "-y"),
    ((0, 0, -3), "y", "-3y^2"),
    ((0, -1, 1, -1), "x", "-x + x^2 - x^3"),
    ((0, 1), "y", "y"),
    ((-1, -1, 0, -1), "y", "-1 - y - y^3"),
    ((2, 1, -1, 0, 7), "x", "2 + x - x^2 + 7x^4"),
    ((0, 0, 0, -12, 0, 0, 1), "y", "-12y^3 + y^6"),
    ((-5, 0, 1, 0, -1, 0, -10 ** 21), "x", "-5 + x^2 - x^4 - 1000000000000000000000x^6"),
    ((0, 3, -1, 0, 0, 1), "y", "3y - y^2 + y^5"),
    ((4, -1), "x", "4 - x"),
    # the edges of the degree >= 2, |coefficient| >= 2 fast path
    ((0, 2), "x", "2x"),
    ((0, 0, 1), "y", "y^2"),
    ((0, 0, -1), "y", "-y^2"),
    ((0, 0, 2), "x", "2x^2"),
    ((0, 0, -2), "y", "-2y^2"),
    ((5, 0, 3), "x", "5 + 3x^2"),
    ((-1, 0, -2), "y", "-1 - 2y^2"),
    ((0, -2, 0, 1), "y", "-2y + y^3"),
]


def test_univar_text_golden():
    for coeffs, var, expected in UNIVAR_TEXT_GOLDEN:
        assert UnivarPoly(coeffs).text(var) == expected, coeffs


printable_coeffs = st.lists(
    st.one_of(st.sampled_from([0, 1, -1, 2, -2]), st.integers(-2 ** 80, 2 ** 80)),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(printable_coeffs)
def test_univar_text_round_trip(coeffs):
    p = UnivarPoly(coeffs)
    assert parse_univar(p.text("x")) == p
    assert parse_bivar(p.text("y")) == BivarPoly({(0, j): c for j, c in enumerate(p.coeffs)})


def _text_cases():
    # degrees 0, then 600 (the suffix tables grow), then 5 (they are only
    # read), alternating the variable; the coefficients cycle through 0, +-1
    # and +-2, and the head (the lowest nonzero term) is +-1 or +-2 at degree
    # 0, 1 or 2. Degree 0 is the constant-only polynomial.
    cycle = (0, 1, -1, 2, -2)
    for degree in (0, 600, 5):
        for var in ("x", "y"):
            for head in (1, -1, 2, -2):
                for low in range(min(degree, 2) + 1):
                    middle = [cycle[k % 5] for k in range(low + 1, degree)]
                    yield [0] * low + [head] + middle + [head] * (degree > low), var


def test_univar_text_matches_reference(monkeypatch):
    # in this order from empty tables, so that a short polynomial is also
    # printed from a table a longer one grew
    monkeypatch.setattr(series_mod, "_SUFFIXES", {})
    for coeffs, var in [*_text_cases(), ([], "x"), ([-10 ** 30], "y")]:
        p = UnivarPoly(coeffs)
        assert p.text(var) == univar_text_reference(p, var), (coeffs[:8], var)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0, 0, 0, 1, -1, 2, -2]), st.integers(-2 ** 70, 2 ** 70)),
                max_size=40),
       st.sampled_from(["x", "y"]))
def test_univar_text_matches_reference_property(coeffs, var):
    p = UnivarPoly(coeffs)
    assert p.text(var) == univar_text_reference(p, var)


def test_suffix_table_stays_within_its_bound(monkeypatch):
    # each variable's list holds max(2, d + 1) suffixes, d the highest degree
    # printed in it, and only the variables printed have one
    monkeypatch.setattr(series_mod, "_SUFFIXES", {})
    highest = {}
    for degree, var in ((0, "x"), (600, "y"), (5, "x"), (3, "y"), (40, "x"), (0, "y"), (1, "z")):
        p = UnivarPoly([0] * degree + [1])
        assert p.text(var) == univar_text_reference(p, var)
        highest[var] = max(highest.get(var, 0), degree)
        assert set(series_mod._SUFFIXES) == set(highest)
        for v, d in highest.items():
            table = series_mod._SUFFIXES[v]
            assert len(table) == max(2, d + 1)
            assert table == ["", v] + [f"{v}^{i}" for i in range(2, len(table))]


def test_ring_examples():
    one_plus = parse_bivar("1 + xy")
    one_minus = parse_bivar("1 - xy")
    assert one_plus * one_minus == parse_bivar("1 - x^2y^2")
    assert parse_bivar("x + y") + parse_bivar("-x") == parse_bivar("y")


@settings(max_examples=150, deadline=None)
@given(small_polys, small_polys)
def test_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=100, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_associativity_and_distributivity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_series_in_x_examples():
    gf = RationalGF.from_literals("1 + 2xy + x^2y^2", "1 - xy - x^2y")
    cs = series_in_x(gf, 2)
    assert cs[0].coeffs == (1,)
    assert cs[1].coeffs == (0, 3)  # 3y
    assert cs[2].coeffs == (0, 1, 4)  # y + 4y^2


def _bivar_terms(x_degrees, max_size):
    # sparse in y as well as in x: rows may be empty and y-degrees may skip
    return st.dictionaries(st.tuples(x_degrees, st.integers(0, 6)), st.integers(-5, 5), max_size=max_size)


random_gfs = st.builds(
    lambda num, den: RationalGF(BivarPoly(num), BivarPoly({**den, (0, 0): 1})),
    _bivar_terms(st.integers(0, 7), 8),  # num may reach past deg_x(den)
    _bivar_terms(st.integers(1, 4), 6),
)


def _assert_solves(gf, cs, n_max):
    """den * series and num agree on every term of x-degree <= n_max."""
    assert len(cs) == n_max + 1
    series_poly = BivarPoly({(n, j): c for n, poly in enumerate(cs) for j, c in enumerate(poly.coeffs)})

    def head(p):
        return {k: c for k, c in p.terms.items() if k[0] <= n_max}

    assert head(gf.den * series_poly) == head(gf.num)


@settings(max_examples=200, deadline=None)
@given(random_gfs, st.integers(0, 12))
def test_series_in_x_solves_den_times_series_eq_num(gf, n_max):
    cs = series_in_x(gf, n_max)
    _assert_solves(gf, cs, n_max)
    assert [sum(c.coeffs) for c in cs] == specialize_y1(gf).series(n_max)


@pytest.mark.parametrize("num, den, n_max, head", [
    # c_1 = 0 between nonzero rows
    ("1 + x^3y^2", "1 - x^2y", 6, [(1,), (), (0, 1), (0, 0, 1)]),
    # the y^0 terms of N_1 and D_1 * c_0 cancel, so c_1's lowest degree rises to 1
    ("1 - x + xy", "1 - x", 4, [(1,), (0, 1), (0, 1)]),
    # the top term cancels instead: c_1 = -y + (1 + y)
    ("1 - xy", "1 - x - xy", 4, [(1,), (1,), (1, 1)]),
    # the y^0 term of D_3 brings c_1 = y down into c_4 = y + y^4
    ("xy", "1 - xy - x^3", 6, [(), (0, 1), (0, 0, 1), (0, 0, 0, 1), (0, 1, 0, 0, 1)]),
    # coefficients other than +-1 in den
    ("1", "1 - 3xy + 2x^2", 5, [(1,), (0, 3), (-2, 0, 9)]),
    # n_max 0: N_0 alone
    ("2 + y^3 + x", "1 - x", 0, [(2, 0, 0, 1)]),
    # each band starts as a copy of its first contribution, here negated (d = +1)
    ("1", "1 + xy - x^2", 4, [(1,), (0, -1), (1, 0, 1)]),
    # ... here scaled by 3 and by -2 (|d| >= 2)
    ("1 + y", "1 - 3xy^2", 4, [(1, 1), (0, 0, 3, 3), (0, 0, 0, 0, 9, 9)]),
    ("1", "1 + 2xy^2 - x^2y", 4, [(1,), (0, 0, -2), (0, 1, 0, 0, 4)]),
    # the first contribution starts above the row's lowest degree, set by N_2
    ("1 + x^2", "1 - xy^3", 4, [(1,), (0, 0, 0, 1), (1, 0, 0, 0, 0, 0, 1)]),
    # N_2's term lands inside the copied band and adds to it
    ("1 + x^2y^3", "1 - xy - xy^2", 4, [(1,), (0, 1, 1), (0, 0, 1, 3, 1)]),
])
def test_series_in_x_band_edges(num, den, n_max, head):
    gf = RationalGF.from_literals(num, den)
    cs = series_in_x(gf, n_max)
    assert [c.coeffs for c in cs[:len(head)]] == head
    assert [c.coeffs for c in cs] == _dense_series(gf, n_max)
    _assert_solves(gf, cs, n_max)


def _dense_series(gf, n_max):
    """Coefficient tuples of c_0 .. c_{n_max}: c_n = N_n - sum_j D_j c_{n-j} on whole rows."""
    rows = []
    for n in range(n_max + 1):
        c = {}
        for (i, j), a in gf.num.terms.items():
            if i == n:
                c[j] = c.get(j, 0) + a
        for (i, s), d in gf.den.terms.items():
            if 1 <= i <= n:
                for k, v in enumerate(rows[n - i]):
                    c[k + s] = c.get(k + s, 0) - d * v
        dense = [c.get(k, 0) for k in range(max(c, default=-1) + 1)]
        while dense and not dense[-1]:
            dense.pop()
        rows.append(tuple(dense))
    return rows


def _random_gf(rng):
    # den terms reach |d| = 3; num reaches past deg_x(den), or is den times a
    # polynomial, so that every row past that polynomial cancels to zero
    den = {(0, 0): 1}
    for _ in range(rng.randint(1, 5)):
        den[(rng.randint(1, 4), rng.randint(0, 5))] = rng.choice((-3, -2, -1, 1, 2, 3))
    den = BivarPoly(den)
    if rng.random() < 0.3:
        factor = BivarPoly({(rng.randint(0, 3), rng.randint(0, 4)): rng.randint(-4, 4) for _ in range(3)})
        return RationalGF(den * factor, den)
    num = {(rng.randint(0, 9), rng.randint(0, 6)): rng.randint(-5, 5) for _ in range(rng.randint(0, 6))}
    return RationalGF(BivarPoly(num), den)


def test_series_rows_are_canonical_and_match_dense_expansion(catalog):
    rng = random.Random(1015)
    gfs = [cand.gf for record in catalog.families for cand in record.gf_candidates]
    gfs += [_random_gf(rng) for _ in range(300)]
    zero_rows = 0
    for gf in gfs:
        rows = series_in_x(gf, 25)
        assert [p.coeffs for p in rows] == _dense_series(gf, 25)
        for p in rows:
            assert UnivarPoly(p.coeffs) == p
            assert all(type(c) is int for c in p.coeffs)
            assert not p.coeffs or p.coeffs[-1] != 0
        zero_rows += sum(p.is_zero() for p in rows)
    assert zero_rows > 0


def test_series_round_trip_identity(catalog):
    # den * series - num vanishes to the expansion order, for every stated gf
    for record in catalog.families:
        for cand in record.gf_candidates:
            _assert_solves(cand.gf, series_in_x(cand.gf, 30), 30)


def test_specialize_matches_series_at_y1(catalog):
    for record in catalog.families:
        for cand in record.gf_candidates:
            univ = specialize_y1(cand.gf)
            totals = univ.series(30)
            cs = series_in_x(cand.gf, 30)
            assert totals == [sum(c.coeffs) for c in cs]


def test_specialize_examples(catalog):
    t = specialize_y1(catalog.family("triangular").gf())
    assert (t.num.coeffs, t.den.coeffs) == ((1, 2, 1), (1, -1, -1))
    s = specialize_y1(catalog.family("square").gf())
    assert (s.num.coeffs, s.den.coeffs) == ((1,), (1, -2))
    m = specialize_y1(catalog.family("meta-pentagonal").gf())
    assert (m.num.coeffs, m.den.coeffs) == ((1, 0, -5, 2), (1, -5, 7, -2))
    reduced = reduce_fraction(m)
    assert (reduced.num.coeffs, reduced.den.coeffs) == ((1, 2, -1), (1, -3, 1))


def test_denominator_constant_guard():
    with pytest.raises(ValueError):
        RationalGF.from_literals("1", "2 - x")
    with pytest.raises(ValueError):
        UnivarRational(UnivarPoly([1]), UnivarPoly([2, 1]))


def test_recurrence_from_gf_examples():
    r = UnivarRational(parse_univar("1 + 2x + x^2"), parse_univar("1 - x - x^2"))
    assert recurrence_from_gf(r) == ((1, 1), 3)
    r = UnivarRational(parse_univar("1"), parse_univar("1 - 2x"))
    assert recurrence_from_gf(r) == ((2,), 1)
    r = UnivarRational(parse_univar("1 + x^2 - x^3"), parse_univar("1 - 2x + x^2 - x^3"))
    assert recurrence_from_gf(r) == ((2, -1, 1), 4)


def test_recurrence_sequence_examples():
    assert recurrence_sequence((1, 1), (1, 3, 5), 3)[3] == 8
    assert recurrence_sequence((1, 5, 4), (1, 5, 13, 42, 127), 5)[5] == 389
    assert recurrence_sequence((3, 3), (1, 5, 19, 72), 4)[4] == 273
    assert recurrence_sequence((2,), (1, 2), 20) == [2 ** n for n in range(21)]
    assert recurrence_sequence((1, 1), (1, 3, 5), 1) == [1, 3]  # initial values past n_max are cut


def _recurrence_by_definition(lags, initial, n_max):
    vals = list(initial[: n_max + 1])
    for m in range(len(vals), n_max + 1):
        vals.append(sum(lags[i - 1] * vals[m - i] for i in range(1, len(lags) + 1) if m - i >= 0))
    return vals


@pytest.mark.parametrize("lags, initial, n_max, expected", [
    ((), (4, 5), 4, [4, 5, 0, 0, 0]),  # no lags: zeros past the initial values
    ((), (), 2, [0, 0, 0]),
    ((2, 0, -1), (1,), 4, [1, 2, 4, 7, 12]),  # initial shorter than the order
    ((2,), (1, 1, 1), 4, [1, 1, 1, 2, 4]),  # and longer
    ((3,), (), 3, [0, 0, 0, 0]),
    ((1, 1), (1, 3, 5, 7), 2, [1, 3, 5]),  # n_max below len(initial)
    ((1, 1), (1, 3), 0, [1]),
    ((1, 1), (), 0, [0]),
    # a zero lag or term makes a Decimal -0 (0 * -5); each term is a sum that
    # starts from the int 0, and 0 + -0 is 0, so recurrence_text prints "0"
    ((0,), (-5,), 2, [-5, 0, 0]),
    ((-3, 0), (0, -1), 3, [0, -1, 3, -9]),
    ((1, 1), (1, -1), 3, [1, -1, 0, -1]),  # nonzero terms that sum to 0
])
def test_recurrence_sequence_edge_cases(lags, initial, n_max, expected):
    assert recurrence_sequence(lags, initial, n_max) == expected
    assert _recurrence_by_definition(lags, initial, n_max) == expected
    assert list(recurrence_text(lags, initial, n_max)) == [str(v) for v in expected]


def test_recurrence_sequence_matches_definition_on_random_inputs():
    rng = random.Random(1015)
    for _ in range(500):
        order = rng.randint(0, 6)
        lags = [rng.randint(-4, 4) for _ in range(order)]  # zero and negative lags too
        initial = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(rng.randint(0, order + 3))]
        n_max = rng.randint(0, 30)
        got = recurrence_sequence(lags, initial, n_max)
        assert got == _recurrence_by_definition(lags, initial, n_max), (lags, initial, n_max)
        assert len(got) == n_max + 1 and all(type(v) is int for v in got)
        assert list(recurrence_text(lags, initial, n_max)) == [str(v) for v in got]


# the context recurrence_text runs its Decimals in: no integer here can round
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                 traps=[Inexact, Rounded, InvalidOperation, Overflow])


@settings(max_examples=300, deadline=None)
@given(lags=st.lists(st.integers(-4, 4), max_size=6),  # orders 0-6, zero and negative lags
       initial=st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=9),  # shorter and longer than the order
       n_max=st.integers(0, 40))
def test_recurrence_kernel_matches_the_window_loop(lags, initial, n_max):
    got = recurrence_sequence(lags, initial, n_max)
    assert got == recurrence_reference(lags, initial, n_max)
    assert len(got) == n_max + 1 and all(type(v) is int for v in got)
    # on exact-context Decimals the texts match too, so no Decimal -0 prints
    # where the window loop's does not
    dec_lags, dec_initial = tuple(map(Decimal, lags)), tuple(map(Decimal, initial))
    with localcontext(_EXACT):
        kernel = series_mod._iterate(dec_lags, dec_initial, n_max)
        reference = recurrence_reference(dec_lags, dec_initial, n_max)
    assert list(map(str, kernel)) == list(map(str, reference)) == list(map(str, got))
    if initial:
        assert list(map(type, kernel)) == list(map(type, reference))
    else:  # all zeros, and a lag of +-1 adds the int 0 before a_0 unmultiplied
        assert kernel == [0] * (n_max + 1)


@settings(max_examples=200, deadline=None)
@given(num=st.lists(st.integers(-50, 50), max_size=8),
       den_tail=st.lists(st.integers(-5, 5), max_size=6),
       n_max=st.integers(0, 30))
def test_rational_series_matches_the_double_loop(num, den_tail, n_max):
    r = UnivarRational(UnivarPoly(num), UnivarPoly([1] + den_tail))
    got = r.series(n_max)
    assert got == rational_series_reference(r, n_max)
    assert len(got) == n_max + 1 and all(type(v) is int for v in got)


def test_list_extend_feeds_a_list_iterator_over_the_same_list():
    # _iterate relies on this: a list iterator made before `extend` runs
    # yields the items that `extend` appends from it, one by one. If an
    # interpreter ever buffers an iterable before appending, this fails here
    # rather than as a wrong count elsewhere.
    vals = [1]
    vals.extend(islice(map(add, vals, repeat(1)), 4))
    assert vals == [1, 2, 3, 4, 5]
    fib = [0, 1]
    fib.extend(islice(map(add, islice(fib, 0, None), islice(fib, 1, None)), 8))
    assert fib == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]


def test_recurrence_sequence_keeps_the_type_of_its_values():
    from fractions import Fraction

    half = Fraction(1, 2)
    assert recurrence_sequence((half,), (Fraction(3),), 2) == [3, Fraction(3, 2), Fraction(3, 4)]
    assert all(type(v) is Fraction for v in recurrence_sequence((half,), (Fraction(3),), 2))


@pytest.mark.parametrize("fn", [recurrence_sequence, recurrence_text])
def test_recurrence_rejects_a_negative_depth(fn):
    with pytest.raises(ValueError, match="^n_max must be >= 0$"):
        fn((1, 1), (1, 3), -1)


def test_recurrence_reproduces_series_to_50(catalog):
    for record in catalog.families:
        univ = specialize_y1(record.gf())
        lags, valid_from = recurrence_from_gf(univ)
        totals = univ.series(50)
        regenerated = recurrence_sequence(lags, totals[:valid_from], 50)
        assert regenerated == totals, record.family_id


def test_rational_from_recurrence_round_trip(catalog):
    for record in catalog.families:
        rec = record.recurrence
        r = rational_from_recurrence(rec.lags, rec.initial)
        assert r.series(40) == recurrence_sequence(rec.lags, rec.initial, 40)
        assert r.num.degree < len(rec.initial)


def test_reduce_fraction_is_identity_for_coprime():
    r = UnivarRational(parse_univar("1 + 2x"), parse_univar("1 - x - x^2"))
    assert reduce_fraction(r) is r


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@settings(max_examples=300, deadline=None)
@given(num=st.lists(st.integers(-6, 6), min_size=1, max_size=5),
       den_tail=st.lists(st.integers(-6, 6), max_size=4),
       factor_tail=st.lists(st.integers(-6, 6), max_size=3),
       unit=st.sampled_from([1, -1]))
def test_reduce_fraction_matches_rational_reference(num, den_tail, factor_tail, unit):
    # num * f / (den * f) with den(0) = f(0) = +-1, so den(0) * f(0) = 1
    f = [unit] + factor_tail
    r = UnivarRational(UnivarPoly(_times(num, f)), UnivarPoly(_times([unit] + den_tail, f)))
    got, want = reduce_fraction(r), reduce_fraction_over_q(r)
    assert (got.num, got.den) == (want.num, want.den)
    assert (got is r) == (want is r)


def _fresh_catalog():
    """The shipped catalog parsed anew, not the shared `load_catalog()` value."""
    return catalog_mod._parse_catalog.__wrapped__(catalog_mod._data_text("catalog.json"))


# For each value class: two equal values built differently, a third that
# differs, a field to assign, and what the repr must show.
VALUE_CASES = {
    "UnivarPoly": (lambda: UnivarPoly([1, -2, 0]), lambda: UnivarPoly((1, -2)),
                   lambda: UnivarPoly([1, 2]), "coeffs", ["UnivarPoly(coeffs=(1, -2))"]),
    "BivarPoly": (lambda: BivarPoly({(0, 0): 1, (2, 1): -3, (1, 1): 0}),
                  lambda: BivarPoly({(2, 1): -3, (0, 0): 1}), lambda: BivarPoly({(0, 0): 1}),
                  "terms", ["BivarPoly(terms=", "(0, 0): 1", "(2, 1): -3"]),
    "SizeDistribution": (lambda: SizeDistribution({1: 2, 2: 3, 4: 0}),
                         lambda: SizeDistribution({2: 3, 1: 2}), lambda: SizeDistribution({1: 2}),
                         "counts", ["1: 2", "2: 3"]),
    "UnivarRational": (lambda: UnivarRational(UnivarPoly([1, 1]), UnivarPoly([1, -1, -1])),
                       lambda: UnivarRational(parse_univar("1 + x"), parse_univar("1 - x - x^2")),
                       lambda: UnivarRational(UnivarPoly([1]), UnivarPoly([1, -1, -1])),
                       "den", ["UnivarRational(num=UnivarPoly(coeffs=(1, 1)), "
                               "den=UnivarPoly(coeffs=(1, -1, -1)))"]),
    "RationalGF": (lambda: RationalGF(BivarPoly({(1, 1): 1}), BivarPoly({(0, 0): 1, (1, 0): -1})),
                   lambda: RationalGF.from_literals("xy", "1 - x"),
                   lambda: RationalGF.from_literals("xy", "1 - 2x"),
                   "num", ["RationalGF(num=BivarPoly(terms={(1, 1): 1}), den=BivarPoly(terms=",
                           "(1, 0): -1"]),
    "Graph": (lambda: build_graph("triangular", 1),
              lambda: Graph(3, [(2, 0), (1, 2), (0, 1)]),
              lambda: Graph(3, [(0, 1), (1, 2)]),
              "masks", ["Graph(|V|=3, |E|=3)"]),
    # the records: built from their fields, in slot order
    "FamilySpec": (lambda: FAMILIES["triangular"], lambda: FamilySpec("triangular", "t", 3, 1),
                   lambda: FamilySpec("triangular", "t", 3, 2), "attach_dist",
                   ["FamilySpec(family_id='triangular', symbol='t', cycle_len=3, attach_dist=1)"]),
    "AsymptoticEstimate": (lambda: AsymptoticEstimate(0.5, 2.0), lambda: AsymptoticEstimate(1 / 2, 2),
                           lambda: AsymptoticEstimate(0.5, 3.0), "rho",
                           ["AsymptoticEstimate(rho=0.5, constant=2.0)"]),
    "GFCandidate": (lambda: GFCandidate("statement", "thm:1", RationalGF.from_literals("xy", "1 - x")),
                    lambda: GFCandidate("statement", "thm:1", RationalGF.from_literals("x*y", "1 - 1x^1")),
                    lambda: GFCandidate("alt", "thm:1", RationalGF.from_literals("xy", "1 - x")), "gf",
                    ["GFCandidate(candidate_id='statement', anchor='thm:1', gf=RationalGF("]),
    "RecurrenceClaim": (lambda: RecurrenceClaim("eq:1", (1, 1), (1, 2)),
                        lambda: RecurrenceClaim("eq:1", tuple([1, 1]), tuple([1, 2])),
                        lambda: RecurrenceClaim("eq:1", (1, 1), (1, 3)), "initial",
                        ["RecurrenceClaim(anchor='eq:1', lags=(1, 1), initial=(1, 2))"]),
    "AsymptoticClaim": (lambda: AsymptoticClaim("thm:2", "0.6180", "1.1708"),
                        lambda: AsymptoticClaim("thm:2", "0.618" + "0", "1.1708"),
                        lambda: AsymptoticClaim("thm:2", "0.6180", "1.171"), "rho_printed",
                        ["AsymptoticClaim(anchor='thm:2', rho_printed='0.6180', constant_printed='1.1708')"]),
    "BoundaryCheck": (lambda: BoundaryCheck("eq:3", "bar", 1, SizeDistribution({1: 2, 2: 1})),
                      lambda: BoundaryCheck("eq:3", "bar", 1, SizeDistribution({2: 1, 1: 2, 3: 0})),
                      lambda: BoundaryCheck("eq:3", "bar", 2, SizeDistribution({1: 2, 2: 1})), "claimed",
                      ["BoundaryCheck(anchor='eq:3', kind='bar', n=1, claimed={1: 2, 2: 1})"]),
    "TransferTerm": (lambda: TransferTerm(2, "bar", 1, 0), lambda: TransferTerm(2, "bar", 1, 0),
                     lambda: TransferTerm(2, "bar", 1, 1), "mult",
                     ["TransferTerm(mult=2, kind='bar', n_shift=1, k_shift=0)"]),
    "TransferIdentity": (lambda: TransferIdentity("eq:4", "square", "family", (TransferTerm(1, "bar", 1, 0),), 2, 1),
                         lambda: TransferIdentity("eq:4", "square", "family",
                                                  tuple([TransferTerm(1, "bar", 1, 0)]), 2, 1),
                         lambda: TransferIdentity("eq:4", "square", "family", (), 2, 1), "rhs",
                         ["TransferIdentity(anchor='eq:4', family_id='square', lhs_kind='family', "
                          "rhs=(TransferTerm(mult=1, kind='bar', n_shift=1, k_shift=0),), valid_from=2, "
                          "stated_from=1)"]),
    "FamilyRecord": (lambda: load_catalog().family("square"), lambda: _fresh_catalog().family("square"),
                     lambda: load_catalog().family("diamond"), "asymptotic_note",
                     ["FamilyRecord(spec=FamilySpec(family_id='square', ", "asymptotic=None, "]),
    "Catalog": (load_catalog, _fresh_catalog, lambda: Catalog(load_catalog().families, ()), "identities",
                ["Catalog(families=(FamilyRecord(spec=FamilySpec(family_id='triangular', "]),
}


@pytest.mark.parametrize("name", VALUE_CASES)
def test_value_semantics(name):
    make, make_equal, make_other, field, shown = VALUE_CASES[name]
    a, b, other = make(), make_equal(), make_other()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other
    assert pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b  # unchanged by the refused writes
    for text in shown:
        assert text in repr(a), (text, repr(a))
    assert type(a)._trusted(*a._values()) == a
    assert a != a._values()  # not a tuple


def test_record_takes_one_value_per_field():
    for values in (("triangular", "t", 3), ("triangular", "t", 3, 1, 1)):
        with pytest.raises(TypeError, match=r"^FamilySpec takes 4 values, got \d$"):
            FamilySpec(*values)


def test_big_integer_growth():
    v = recurrence_sequence((3, 3), (1, 5, 19, 72), 200)[200]
    assert v > 10 ** 100  # exact big-int arithmetic, no overflow
