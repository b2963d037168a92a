"""Root finding, leading constants, and estimate quality."""

import math

import pytest

from cactus_mis.asymptotics import (
    analyze,
    family_estimate,
    leading_constant,
    ratio_converges,
    relative_errors,
    smallest_positive_root,
    stated_gf_estimate,
)
from cactus_mis.series import UnivarRational, parse_univar, recurrence_sequence

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
