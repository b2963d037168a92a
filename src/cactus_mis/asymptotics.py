"""Dominant-singularity asymptotics for the counting sequences.

For a rational counting series num/den with a simple dominant pole at the
smallest positive zero rho of den, the counts grow like C / rho^(n+1) with
C = -num(rho) / den'(rho). Root finding is a sign scan in steps of SCAN_STEP
followed by bisection to BISECT_TOL; degrees here are at most five, so
nothing fancier is warranted. The tolerances and the ranges of n below are
fixed, because the committed baseline report is computed with them.

Estimates are anchored to the recurrence claims (which the verification
pipeline checks against exhaustive enumeration) rather than to the stated
closed forms, so they stay accurate even where a stated generating function
is refuted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .catalog import FamilyRecord
from .series import UnivarPoly, UnivarRational, recurrence_sequence

SCAN_STEP = 1e-3
BISECT_TOL = 1e-12
SIMPLE_ROOT_TOL = 1e-9  # |den'(rho)| below this means a suspect multiple root
RATIO_TOL = 1e-6  # consecutive-ratio convergence requirement
RATIO_N_FROM, RATIO_N_TO = 30, 60  # n range of ratio_converges
ERROR_N_FROM, ERROR_N_TO = 15, 40  # n range of relative_errors


@dataclass(frozen=True)
class AsymptoticEstimate:
    """Computed (rho, C) for one rational counting series."""

    rho: float
    constant: float
    source: UnivarRational

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


def leading_constant(r: UnivarRational, rho: float) -> float:
    """Residue-derived constant C = -num(rho) / den'(rho) for a simple pole."""
    dprime = r.den.derivative().eval_float(rho)
    if abs(dprime) < SIMPLE_ROOT_TOL:
        raise ValueError("den'(rho) is too small; pole is not simple")
    return -r.num.eval_float(rho) / dprime


def analyze(r: UnivarRational) -> AsymptoticEstimate:
    """(rho, C) of a rational counting series."""
    rho = smallest_positive_root(r.den)
    return AsymptoticEstimate(rho, leading_constant(r, rho), r)


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
