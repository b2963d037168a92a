"""Load the claim catalog: per-family generating functions, recurrences,
asymptotic constants, small-n check values, and the count-transfer identities.

The catalog file stores claims exactly as stated by their source, including
entries the verification pipeline refutes. Verdicts live in the verification
report, never in the catalog: loading it reads no report, and the claims
themselves are never edited.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .graphs import FAMILIES, FamilySpec
from .oracle import SizeDistribution
from .series import RationalGF, UnivarRational, parse_univar

GRAPH_KINDS = ("family", "bar", "tilde")


@dataclass(frozen=True)
class GFCandidate:
    """One stated bivariate generating function for a family."""

    candidate_id: str
    anchor: str
    gf: RationalGF


@dataclass(frozen=True)
class RecurrenceClaim:
    """a(n) = sum lags[i-1] * a(n-i) for n >= valid_from, seeded by `initial`."""

    anchor: str
    lags: tuple[int, ...]
    initial: tuple[int, ...]
    valid_from: int

    def rational(self) -> UnivarRational:
        from .series import rational_from_recurrence

        return rational_from_recurrence(self.lags, self.initial)


@dataclass(frozen=True)
class AsymptoticClaim:
    """Printed decimals of rho and C in a(n) ~ C / rho^(n+1)."""

    anchor: str
    rho_printed: str
    constant_printed: str

    @staticmethod
    def _half_ulp(printed: str) -> float:
        decimals = len(printed.split(".")[1]) if "." in printed else 0
        return 0.5 * 10.0 ** (-decimals)

    @property
    def rho(self) -> float:
        return float(self.rho_printed)

    @property
    def constant(self) -> float:
        return float(self.constant_printed)

    @property
    def rho_tolerance(self) -> float:
        return self._half_ulp(self.rho_printed)

    @property
    def constant_tolerance(self) -> float:
        return self._half_ulp(self.constant_printed)


@dataclass(frozen=True)
class BoundaryCheck:
    """Stated size distribution of one small graph; sizes not listed are
    claimed to have count zero."""

    check_id: str
    anchor: str
    kind: str
    n: int
    claimed: SizeDistribution


@dataclass(frozen=True)
class TransferTerm:
    mult: int
    kind: str
    n_shift: int
    k_shift: int


@dataclass(frozen=True)
class TransferIdentity:
    """lhs(n, k) = sum of mult * term(n - n_shift, k - k_shift), n >= valid_from.

    `stated_from` records the range claimed by the source; it differs from
    valid_from only where the stated range includes a structurally degenerate
    instance (which the verification report refutes).
    """

    identity_id: str
    anchor: str
    family_id: str
    lhs_kind: str
    rhs: tuple[TransferTerm, ...]
    valid_from: int
    stated_from: int


@dataclass(frozen=True)
class FamilyRecord:
    """Everything the catalog asserts about one polygonal family."""

    spec: FamilySpec
    gf_anchor: str
    gf_candidates: tuple[GFCandidate, ...]
    univariate_anchor: str
    univariate_gf: UnivarRational
    recurrence: RecurrenceClaim
    asymptotic: Optional[AsymptoticClaim]
    boundary_checks: tuple[BoundaryCheck, ...]

    @property
    def family_id(self) -> str:
        return self.spec.family_id

    @property
    def symbol(self) -> str:
        return self.spec.symbol

    def gf(self, candidate_id: str = "statement") -> RationalGF:
        for cand in self.gf_candidates:
            if cand.candidate_id == candidate_id:
                return cand.gf
        raise KeyError(f"no generating-function candidate {candidate_id!r} for {self.family_id}")


@dataclass(frozen=True)
class Catalog:
    families: tuple[FamilyRecord, ...]
    identities: tuple[TransferIdentity, ...]

    def family(self, family_id: str) -> FamilyRecord:
        key = family_id.strip().lower()
        for rec in self.families:
            if rec.family_id == key:
                return rec
        raise KeyError(f"unknown family {family_id!r}")

    def identity(self, identity_id: str) -> TransferIdentity:
        for ident in self.identities:
            if ident.identity_id == identity_id:
                return ident
        raise KeyError(f"unknown identity {identity_id!r}")


def _data_text(name: str) -> Optional[str]:
    ref = resources.files("cactus_mis").joinpath("data").joinpath(name)
    try:
        return ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None


def _parse_univar_rational(raw: dict) -> UnivarRational:
    num = parse_univar(raw["num"])
    den = parse_univar(raw["den"])
    return UnivarRational(num, den)


def load_catalog() -> Catalog:
    """Parse and validate the shipped catalog file."""
    text = _data_text("catalog.json")
    if text is None:
        raise FileNotFoundError("catalog.json is missing from the package data")
    raw = json.loads(text)

    families = []
    for fam_raw in raw["families"]:
        spec = FAMILIES[fam_raw["id"]]
        if (spec.symbol, spec.cycle_len, spec.attach_dist) != (
            fam_raw["symbol"], fam_raw["cycle_len"], fam_raw["attach_dist"]
        ):
            raise ValueError(f"catalog family parameters disagree with builders for {spec.family_id}")
        candidates = tuple(
            GFCandidate(
                candidate_id=c["id"],
                anchor=c["anchor"],
                gf=RationalGF.from_literals(c["num"], c["den"], offset=c.get("offset", 0)),
            )
            for c in fam_raw["gf_candidates"]
        )
        rec_raw = fam_raw["recurrence"]
        recurrence = RecurrenceClaim(
            anchor=rec_raw["anchor"],
            lags=tuple(rec_raw["lags"]),
            initial=tuple(rec_raw["initial"]),
            valid_from=rec_raw["valid_from"],
        )
        if len(recurrence.initial) < len(recurrence.lags):
            raise ValueError(f"{spec.family_id}: fewer initial values than recurrence order")
        if len(recurrence.initial) < recurrence.valid_from:
            raise ValueError(f"{spec.family_id}: initial values do not cover valid_from")
        asym_raw = fam_raw.get("asymptotic")
        asymptotic = None
        if asym_raw is not None:
            asymptotic = AsymptoticClaim(asym_raw["anchor"], asym_raw["rho"], asym_raw["constant"])
            if not (0.0 < asymptotic.rho < 1.0):
                raise ValueError(f"{spec.family_id}: rho must be in (0, 1)")
        checks = tuple(
            BoundaryCheck(
                check_id=c["id"],
                anchor=c["anchor"],
                kind=c["kind"],
                n=c["n"],
                claimed=SizeDistribution({int(k): v for k, v in c["counts"].items()}),
            )
            for c in fam_raw["boundary_checks"]
        )
        for c in checks:
            if c.kind not in GRAPH_KINDS:
                raise ValueError(f"bad graph kind {c.kind!r} in {c.check_id}")
        families.append(
            FamilyRecord(
                spec=spec,
                gf_anchor=fam_raw["gf_anchor"],
                gf_candidates=candidates,
                univariate_anchor=fam_raw["univariate_gf"]["anchor"],
                univariate_gf=_parse_univar_rational(fam_raw["univariate_gf"]),
                recurrence=recurrence,
                asymptotic=asymptotic,
                boundary_checks=checks,
            )
        )

    identities = []
    for ident_raw in raw["transfer_identities"]:
        terms = tuple(
            TransferTerm(t["mult"], t["kind"], t["n_shift"], t["k_shift"])
            for t in ident_raw["rhs"]
        )
        for t in terms:
            if t.kind not in GRAPH_KINDS:
                raise ValueError(f"bad graph kind {t.kind!r} in identity {ident_raw['id']}")
            if not (1 <= t.mult <= 4):
                raise ValueError(f"unexpected multiplier {t.mult} in identity {ident_raw['id']}")
        identities.append(
            TransferIdentity(
                identity_id=ident_raw["id"],
                anchor=ident_raw["anchor"],
                family_id=ident_raw["family"],
                lhs_kind=ident_raw["lhs"],
                rhs=terms,
                valid_from=ident_raw["valid_from"],
                stated_from=ident_raw["stated_from"],
            )
        )

    if len(families) != 8:
        raise ValueError(f"expected 8 family records, found {len(families)}")
    if len(identities) != 20:
        raise ValueError(f"expected 20 transfer identities, found {len(identities)}")
    return Catalog(tuple(families), tuple(identities))


# Theorem-style anchors follow a regular per-family grid of three slots
# (generating function, recurrence, asymptotics). The square family has no
# asymptotic claim; its slot is reported as skipped rather than dropped.
def claim_anchor_universe(catalog: Catalog) -> list[str]:
    anchors = []
    for i in range(1, 25):
        anchors.append(f"thm:2.{i}")
    anchors.extend(ident.anchor for ident in catalog.identities)
    return anchors
