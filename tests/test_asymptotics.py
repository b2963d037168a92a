"""Root finding, leading constants, and estimate quality."""

import math
import random

import pytest

from _oracles import scan_root_reference
from cactus_mis.asymptotics import (
    analyze,
    family_estimate,
    leading_constant,
    ratio_converges,
    relative_errors,
    smallest_positive_root,
    stated_gf_estimate,
)
from cactus_mis.series import UnivarPoly, UnivarRational, parse_univar, recurrence_sequence
from cactus_mis.verify import run_verification

NOISE_FLOOR = 1e-9  # relative errors below this are float noise


def test_root_examples():
    golden = smallest_positive_root(parse_univar("1 - x - x^2"))
    assert golden == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-10)
    assert smallest_positive_root(parse_univar("1 - 2x")) == pytest.approx(0.5, abs=1e-10)
    r = smallest_positive_root(parse_univar("1 - 3x - 3x^2"))
    assert r == pytest.approx((math.sqrt(21) - 3) / 6, abs=1e-10)
    assert abs(r - 0.26376) < 5e-6


def test_root_errors():
    with pytest.raises(ValueError):
        smallest_positive_root(parse_univar("1 + x"))  # no root in (0, 1]
    with pytest.raises(ValueError):
        smallest_positive_root(parse_univar("1 - 2x + x^2"))  # double root at 1
    with pytest.raises(ValueError):
        smallest_positive_root(parse_univar("2 - x"))  # constant term != 1


def test_leading_constant_examples():
    t = UnivarRational(parse_univar("1 + 2x + x^2"), parse_univar("1 - x - x^2"))
    rho = smallest_positive_root(t.den)
    # closed form (1 + rho)^2 / (1 + 2 rho) at the golden ratio point
    assert leading_constant(t, rho) == pytest.approx((1 + rho) ** 2 / (1 + 2 * rho), rel=1e-9)
    assert leading_constant(t, rho) == pytest.approx(1.1708204, abs=1e-6)
    s = UnivarRational(parse_univar("1"), parse_univar("1 - 2x"))
    assert leading_constant(s, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_leading_constant_non_simple_pole():
    r = UnivarRational(parse_univar("1"), parse_univar("1 - 2x + x^2"))
    with pytest.raises(ValueError):
        leading_constant(r, 1.0)


def test_square_estimate_is_exact_power_of_two(catalog):
    rec = catalog.family("square")
    est = family_estimate(rec)
    assert est.rho == pytest.approx(0.5, abs=1e-10)
    assert est.constant == pytest.approx(0.5, abs=1e-10)
    assert family_estimate(rec).value(20) == pytest.approx(2 ** 20, rel=1e-9)


def test_estimate_examples(catalog):
    tri = catalog.family("triangular")
    exact = recurrence_sequence(tri.recurrence.lags, tri.recurrence.initial, 15)[15]
    assert exact == 2584
    assert abs(family_estimate(tri).value(15) / exact - 1) < 0.01

    mp = catalog.family("meta-pentagonal")
    assert family_estimate(mp).value(2) == pytest.approx(12.98, abs=0.01)
    exact10 = recurrence_sequence(mp.recurrence.lags, mp.recurrence.initial, 10)[10]
    assert abs(family_estimate(mp).value(10) / exact10 - 1) < 1e-3


def test_overflow_safe_large_n(catalog):
    rec = catalog.family("ortho-hexagonal")
    v = family_estimate(rec).value(10_000)
    assert v == math.inf  # far beyond float range, reported as infinity
    assert family_estimate(rec).value(300) > 0


def test_ratio_convergence_all_families(catalog):
    for rec in catalog.families:
        assert ratio_converges(rec), rec.family_id


def test_relative_error_below_one_percent_and_decaying(catalog):
    # Complex subdominant roots make the pointwise error oscillate under a
    # geometrically decaying envelope, so decay is asserted on window maxima.
    for rec in catalog.families:
        errs = relative_errors(rec)  # n = 15..40
        assert max(errs) < 0.01, rec.family_id
        if rec.family_id == "square":
            continue
        first, second = max(errs[:13]), max(errs[13:])
        assert second < first or first < NOISE_FLOOR, rec.family_id
        assert errs[-1] <= errs[0] or errs[0] < NOISE_FLOOR, rec.family_id


def test_stated_gf_constants(catalog):
    # reproduction of the printed constants from the stated closed forms
    stated = stated_gf_estimate(catalog.family("diamond"))
    assert stated.constant == pytest.approx(0.62126, abs=1e-4)
    truth = family_estimate(catalog.family("diamond"))
    assert truth.constant == pytest.approx(0.72212, abs=1e-4)
    assert stated.rho == pytest.approx(truth.rho, abs=1e-9)


def test_analyze_rejects_divergent_input():
    with pytest.raises(ValueError):
        analyze(UnivarRational(parse_univar("1"), parse_univar("1 + x + x^2")))


def _root_or_error(find, p):
    """The root's float.hex, or the ValueError message, so equal means bit-identical."""
    try:
        return find(p).hex()
    except ValueError as exc:
        return f"ValueError: {exc}"


def _assert_same_as_reference(polys):
    for p in polys:
        assert _root_or_error(smallest_positive_root, p) == _root_or_error(scan_root_reference, p), p


def test_root_matches_full_scan_on_random_polynomials():
    rng = random.Random(20221)
    _assert_same_as_reference(
        UnivarPoly([1] + [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
        for _ in range(5000))


def test_root_matches_full_scan_near_double_roots():
    # 1 - a x + b x^2 has a double root where a^2 = 4b, and a close pair nearby
    _assert_same_as_reference(UnivarPoly([1, -a, b]) for a in range(1, 60) for b in range(1, 60))


@pytest.mark.parametrize("text", [
    "1 + x",  # no root in (0, 1]
    "1 - 2x + x^2",  # double root at 1
    "2 - x",  # constant term != 1
    "1",  # constant
    "1 - x - x^2",
    "1 - 1000x",  # root below the first grid point
    "1 - x",  # root at the last grid point
])
def test_root_matches_full_scan_on_edge_cases(text):
    _assert_same_as_reference([parse_univar(text)])


def test_root_matches_full_scan_beyond_exact_float_coefficients():
    # coefficients above 2**53 do not convert to floats exactly, so the
    # scan evaluates every grid point there
    big = 2 ** 60
    _assert_same_as_reference([UnivarPoly([1, -big, big + 1]), UnivarPoly([1, 3, -big]),
                               UnivarPoly([1, big, -big - 7])])


def test_root_finding_evaluation_count(monkeypatch):
    # a machine-independent cost gate: the full-scan root finder made 12,556
    # float evaluations in one verify run, the skipping scan about 1,540
    calls = 0
    eval_float = UnivarPoly.eval_float

    def counting(self, x):
        nonlocal calls
        calls += 1
        return eval_float(self, x)

    monkeypatch.setattr(UnivarPoly, "eval_float", counting)
    run_verification(scope="all", workers=1)
    assert calls <= 2000
