"""Dominant-singularity asymptotics for the counting sequences.

For a rational counting series num/den with a simple dominant pole at the
smallest positive zero rho of den, the counts grow like C / rho^(n+1) with
C = -num(rho) / den'(rho). The tolerances and the ranges of n below are
fixed, because the committed baseline report is computed with them.

Root finding looks for the first grid point x_k = min(k * SCAN_STEP, 1) at
which the float (Horner) value of p is not positive, then bisects to
BISECT_TOL. The result must be the float that evaluating every grid point
gives, so the scan only skips points whose float value is provably positive.
For p = sum c_i x^i of degree d, at a grid point with float value v > 0:

* Horner's rounding error on [0, 1] is at most gamma_2d * sum |c_i| x^i
  (Higham, Accuracy and Stability of Numerical Algorithms, 5.1), where
  gamma_2d = 2du / (1 - 2du) and u = 2**-53. That is below
  E = 1e-12 * sum |c_i| while d <= 4500 and every c_i is a float exactly
  (|c_i| <= 2**53). So the exact value there is at least v - E.
* p is Lipschitz on [0, 1] with L = max(1, sum i |c_i|).
* Grid points j steps apart are at most j * SCAN_STEP + 1e-15 apart.

So every point j steps on with v - 2E - L * (j * SCAN_STEP + 1e-15) > 0 has
a positive float value too, and the scan jumps to the first one that may not.
Outside those two conditions it takes single steps. The bracket's low end is
x_(k-1) from the grid formula, whether or not that point was evaluated. The
sign test is v < 0 alone: every point before it has a positive value, and a
nonzero value is at least 2**-53 in size (Horner's last step adds c_0 = 1),
so a product of two of them cannot underflow to zero.

Estimates are anchored to the recurrence claims (which the verification
pipeline checks against exhaustive enumeration) rather than to the stated
closed forms, so they stay accurate even where a stated generating function
is refuted.
"""

from __future__ import annotations

import math

from ._frozen import Frozen
from .catalog import FamilyRecord
from .series import UnivarPoly, UnivarRational, recurrence_sequence

SCAN_STEP = 1e-3
BISECT_TOL = 1e-12
SIMPLE_ROOT_TOL = 1e-9  # |den'(rho)| below this means a suspect multiple root
RATIO_TOL = 1e-6  # consecutive-ratio convergence requirement
RATIO_N_FROM, RATIO_N_TO = 30, 60  # n range of ratio_converges
ERROR_N_FROM, ERROR_N_TO = 15, 40  # n range of relative_errors


class AsymptoticEstimate(Frozen):
    """Computed (rho, C) for one rational counting series, both floats."""

    __slots__ = ("rho", "constant")

    def value(self, n: int) -> float:
        """C / rho^(n+1), via logarithms so large n cannot overflow."""
        if n < 0:
            raise ValueError("index must be >= 0")
        log_v = math.log(self.constant) - (n + 1) * math.log(self.rho)
        if log_v > 700.0:  # beyond float range
            return math.inf
        return math.exp(log_v)


def smallest_positive_root(p: UnivarPoly) -> float:
    """Smallest x in (0, 1] with p(x) = 0, for p with p(0) = 1.

    Finds the first grid point x_k = min(k * SCAN_STEP, 1) whose float value
    is not positive, jumping over the points the module docstring proves
    positive, then bisects between x_(k-1) and x_k. Raises ValueError when no
    sign change exists or the located root looks multiple (derivative
    vanishing there too).
    """
    if p[0] != 1:
        raise ValueError("polynomial must have constant term 1")
    coeffs = p.coeffs
    # the skip's error bound needs exact float coefficients and gamma_2d <= 1e-12
    certified = p.degree <= 4500 and max(map(abs, coeffs)) <= 2 ** 53
    if certified:
        lip = max(1, sum(i * abs(c) for i, c in enumerate(coeffs)))
        slack = 2e-12 * sum(map(abs, coeffs)) + lip * 1e-15
        stride = lip * SCAN_STEP
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
        if v < 0:
            lo, hi = min((k - 1) * SCAN_STEP, 1.0), x
            break
        k += max(1, int((v - slack) / stride)) if certified else 1
    if lo is None:
        raise ValueError("no sign change in (0, 1]; no dominant positive root found")
    v_lo = p.eval_float(lo)
    while hi - lo > BISECT_TOL:
        mid = (lo + hi) / 2
        v_mid = p.eval_float(mid)
        if v_lo * v_mid <= 0:
            hi = mid
        else:
            lo, v_lo = mid, v_mid
    root = (lo + hi) / 2
    if abs(p.derivative().eval_float(root)) < SIMPLE_ROOT_TOL:
        raise ValueError(f"derivative nearly vanishes at root {root}; suspected multiple root")
    return root


def leading_constant(r: UnivarRational, rho: float) -> float:
    """Residue-derived constant C = -num(rho) / den'(rho) for a simple pole."""
    dprime = r.den.derivative().eval_float(rho)
    if abs(dprime) < SIMPLE_ROOT_TOL:
        raise ValueError("den'(rho) is too small; pole is not simple")
    return -r.num.eval_float(rho) / dprime


def analyze(r: UnivarRational) -> AsymptoticEstimate:
    """(rho, C) of a rational counting series."""
    rho = smallest_positive_root(r.den)
    return AsymptoticEstimate(rho, leading_constant(r, rho))


def family_estimate(record: FamilyRecord) -> AsymptoticEstimate:
    """Truth-side (rho, C): computed from the recurrence-defined series."""
    return analyze(record.recurrence.rational())


def stated_gf_estimate(record: FamilyRecord) -> AsymptoticEstimate:
    """(rho, C) computed from the stated univariate generating function.

    This reproduces how the printed constants were obtained; it can differ
    from family_estimate where the stated closed form is refuted.
    """
    return analyze(record.univariate_gf)


def ratio_converges(record: FamilyRecord) -> bool:
    """Empirical simple-pole check: a(n+1)/a(n) stays within RATIO_TOL of 1/rho."""
    est = family_estimate(record)
    seq = _sequence(record, RATIO_N_TO + 1)
    target = 1.0 / est.rho
    return all(abs(seq[n + 1] / seq[n] - target) <= RATIO_TOL
               for n in range(RATIO_N_FROM, RATIO_N_TO + 1))


def _sequence(record: FamilyRecord, n_max: int) -> list[int]:
    return recurrence_sequence(record.recurrence.lags, record.recurrence.initial, n_max)


def relative_errors(record: FamilyRecord) -> list[float]:
    """|estimate/exact - 1| for n from ERROR_N_FROM to ERROR_N_TO, exact values from the recurrence."""
    est = family_estimate(record)
    seq = _sequence(record, ERROR_N_TO)
    return [abs(est.value(n) / seq[n] - 1.0) for n in range(ERROR_N_FROM, ERROR_N_TO + 1)]
