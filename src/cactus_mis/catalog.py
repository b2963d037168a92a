"""Load the claim catalog: per-family generating functions, recurrences,
asymptotic constants, small-n check values, and the count-transfer identities.

The catalog file stores claims exactly as stated by their source, including
entries the verification pipeline refutes. Verdicts live in the verification
report, never in the catalog: loading it reads no report, and the claims
themselves are never edited.

The catalog is the only list of claims: `verify` keys each verdict by the
anchor written once here. Loading rejects a repeated anchor or id, and a
missing or unknown key, naming the JSON paths involved.

The text is parsed once per process and the parsed `Catalog` is shared by
every later `load_catalog()` call that reads the same text, so callers must
not mutate it, the dicts inside its `BivarPoly` and `SizeDistribution` values
included.
"""

from __future__ import annotations

import functools
import json
import os
import re
from typing import NamedTuple, Optional

from .graphs import FAMILIES, FamilySpec, graph_order
from .oracle import SizeDistribution
from .series import RationalGF, UnivarRational, parse_univar

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


class GFCandidate(NamedTuple):
    """One stated bivariate generating function for a family."""

    candidate_id: str
    anchor: str
    gf: RationalGF


class RecurrenceClaim(NamedTuple):
    """a(n) = sum lags[i-1] * a(n-i) for n >= valid_from, seeded by `initial`."""

    anchor: str
    lags: tuple[int, ...]
    initial: tuple[int, ...]
    valid_from: int

    def rational(self) -> UnivarRational:
        from .series import rational_from_recurrence

        return rational_from_recurrence(self.lags, self.initial)


class AsymptoticClaim(NamedTuple):
    """Printed decimals of rho and C in a(n) ~ C / rho^(n+1)."""

    anchor: str
    rho_printed: str
    constant_printed: str

    @staticmethod
    def _half_ulp(printed: str) -> float:
        return 0.5 * 10.0 ** -len(printed.partition(".")[2])

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


class BoundaryCheck(NamedTuple):
    """Stated size distribution of one small graph; sizes not listed are
    claimed to have count zero."""

    check_id: str
    anchor: str
    kind: str
    n: int
    claimed: SizeDistribution


class TransferTerm(NamedTuple):
    mult: int
    kind: str
    n_shift: int
    k_shift: int


class TransferIdentity(NamedTuple):
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


class FamilyRecord(NamedTuple):
    """Everything the catalog asserts about one polygonal family. The first GF
    candidate is the statement (`gf_anchor`); `asymptotic` is None where only
    `asymptotic_anchor` is declared (square: s(n) = 2^n exactly)."""

    spec: FamilySpec
    gf_candidates: tuple[GFCandidate, ...]
    univariate_anchor: str
    univariate_gf: UnivarRational
    recurrence: RecurrenceClaim
    asymptotic_anchor: str
    asymptotic: Optional[AsymptoticClaim]
    boundary_checks: tuple[BoundaryCheck, ...]

    @property
    def family_id(self) -> str:
        return self.spec.family_id

    @property
    def gf_anchor(self) -> str:
        return self.gf_candidates[0].anchor

    def gf(self, candidate_id: str = "statement") -> RationalGF:
        for cand in self.gf_candidates:
            if cand.candidate_id == candidate_id:
                return cand.gf
        raise KeyError(f"no generating-function candidate {candidate_id!r} for {self.family_id}")


class Catalog(NamedTuple):
    families: tuple[FamilyRecord, ...]
    identities: tuple[TransferIdentity, ...]

    def family(self, family_id: str) -> FamilyRecord:
        key = family_id.strip().lower()
        for rec in self.families:
            if rec.family_id == key:
                return rec
        raise KeyError(f"unknown family {family_id!r}")


def _data_text(name: str) -> Optional[str]:
    """Text of `data/<name>` beside this module (package-data ships it there), or None."""
    try:
        with open(os.path.join(_DATA_DIR, name), encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


# The keys `load_catalog` reads from each kind of catalog object. Any other key
# is rejected, so a misspelt optional field (an `offset`, say) cannot become a
# claim that is never checked, and so is an object that lacks one of them, but
# for a candidate's `offset` and an asymptotic claim's `rho` and `constant`
# (both or neither). Every number the loader reads must be a JSON integer
# (`_int`), and every printed constant a decimal string (`_decimal`).
_OPTIONAL_KEYS = frozenset({"offset", "rho", "constant"})
_TOP_KEYS = frozenset({"families", "transfer_identities"})
_FAMILY_KEYS = frozenset({"id", "symbol", "cycle_len", "attach_dist", "gf_candidates",
                          "univariate_gf", "recurrence", "asymptotic", "boundary_checks"})
_CANDIDATE_KEYS = frozenset({"id", "anchor", "num", "den", "offset"})
_UNIVARIATE_KEYS = frozenset({"anchor", "num", "den"})
_RECURRENCE_KEYS = frozenset({"anchor", "lags", "initial", "valid_from"})
_ASYMPTOTIC_KEYS = frozenset({"anchor", "rho", "constant"})
_CHECK_KEYS = frozenset({"id", "anchor", "kind", "n", "counts"})  # counts maps sizes, any key
_IDENTITY_KEYS = frozenset({"id", "anchor", "family", "lhs", "rhs", "valid_from", "stated_from"})
_TERM_KEYS = frozenset({"mult", "kind", "n_shift", "k_shift"})


def _json_path(path) -> str:
    """`path`, the keys and indices that lead from the top, as `$.a[0].b`."""
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


def _check_keys(obj: dict, known: frozenset, *path) -> None:
    """Reject `obj` unless it is a JSON object whose keys are `known`, the
    `_OPTIONAL_KEYS` among them optional; `path` leads from the top to `obj`."""
    if type(obj) is not dict:
        raise ValueError(f"catalog value {_json_path(path)} is not an object: {json.dumps(obj)}")
    if not known.issuperset(obj):
        raise ValueError(f"unknown catalog key {_json_path(path)}.{min(obj.keys() - known)}")
    missing = known - _OPTIONAL_KEYS - obj.keys()
    if missing:
        raise ValueError(f"catalog key {_json_path(path)}.{min(missing)} is missing")


def _int(value, *path) -> int:
    """`value` if it is a JSON integer. A float (even 1.0), string, boolean or
    null is rejected with its path, never truncated or coerced."""
    if type(value) is not int:  # bool is a subclass of int
        raise ValueError(f"catalog value {_json_path(path)} is not an integer: {json.dumps(value)}")
    return value


def _decimal(value, *path) -> str:
    """`value` if it is a JSON string of ASCII digits around one point, as
    `"0.618"`: the digits after the point set the claim's tolerance, so a JSON
    number, an exponent, a space or a non-ASCII digit is rejected with its path."""
    if not (type(value) is str and re.fullmatch(r"[0-9]+\.[0-9]+", value)):
        raise ValueError(f"catalog value {_json_path(path)} is not a printed decimal: {json.dumps(value)}")
    return value


def _size(key: str, *path) -> int:
    """A boundary check's `counts` key as a set size: canonical non-negative
    decimal text only, so `" 2"`, `"02"`, `"+2"` or a non-ASCII digit cannot
    name size 2 beside `"2"`."""
    if not (key.isascii() and key.isdigit() and key == str(int(key))):
        raise ValueError(f"catalog key {_json_path(path)} is not a set size: {json.dumps(key)}")
    return int(key)


def _ints(values, *path) -> tuple[int, ...]:
    """`values` as a tuple, if it is a JSON list of integers."""
    if not isinstance(values, list):
        raise ValueError(f"catalog value {_json_path(path)} is not a list: {json.dumps(values)}")
    return tuple(_int(v, *path, i) for i, v in enumerate(values))


def _check_unique(obj, first: dict, *path) -> None:
    """Reject an anchor under `obj` that two claims give, or an id that two
    objects of one list give, naming both paths: the repeat would overwrite a
    verdict. `first` maps each (space, value) met so far to its path."""
    items = obj.items() if type(obj) is dict else enumerate(obj) if type(obj) is list else ()
    for key, value in items:
        if key not in ("anchor", "id"):
            _check_unique(value, first, *path, key)
            continue
        here = (*path, key)
        if type(value) is not str:
            raise ValueError(f"catalog value {_json_path(here)} is not a string: {json.dumps(value)}")
        earlier = first.setdefault((path[:-1] if key == "id" else key, value), here)
        if earlier != here:
            raise ValueError(f"catalog value {_json_path(here)} repeats {_json_path(earlier)}: {json.dumps(value)}")


def load_catalog() -> Catalog:
    """The shipped catalog file, parsed and validated.

    The value is parsed once per catalog text and shared, so callers must not
    mutate it. A text that fails validation raises and is not cached.
    """
    text = _data_text("catalog.json")
    if text is None:
        raise FileNotFoundError("catalog.json is missing from the package data")
    return _parse_catalog(text)


# Keyed on the text, so a test that edits `_data_text` gets a fresh parse; one
# entry, because a process reads one catalog. Not on `load_catalog` itself: the
# benchmark's tracer wraps plain functions only, and counts its calls.
@functools.lru_cache(maxsize=1)
def _parse_catalog(text: str) -> Catalog:
    raw = json.loads(text)
    _check_keys(raw, _TOP_KEYS)

    families = []
    for i, fam_raw in enumerate(raw["families"]):
        _check_keys(fam_raw, _FAMILY_KEYS, "families", i)
        for j, c in enumerate(fam_raw["gf_candidates"]):
            _check_keys(c, _CANDIDATE_KEYS, "families", i, "gf_candidates", j)
        _check_keys(fam_raw["univariate_gf"], _UNIVARIATE_KEYS, "families", i, "univariate_gf")
        _check_keys(fam_raw["recurrence"], _RECURRENCE_KEYS, "families", i, "recurrence")
        asym_raw = fam_raw["asymptotic"]
        asym_path = ("families", i, "asymptotic")
        _check_keys(asym_raw, _ASYMPTOTIC_KEYS, *asym_path)
        for j, c in enumerate(fam_raw["boundary_checks"]):
            _check_keys(c, _CHECK_KEYS, "families", i, "boundary_checks", j)
        first_id = next((c["id"] for c in fam_raw["gf_candidates"]), None)
        if first_id != "statement":
            raise ValueError(f'catalog value $.families[{i}].gf_candidates[0].id is not "statement": '
                             f"{json.dumps(first_id)}")
        spec = FAMILIES[fam_raw["id"]]
        if (spec.symbol, spec.cycle_len, spec.attach_dist) != (
            fam_raw["symbol"], fam_raw["cycle_len"], fam_raw["attach_dist"]
        ):
            raise ValueError(f"catalog family parameters disagree with builders for {spec.family_id}")
        candidates = tuple(
            GFCandidate(
                candidate_id=c["id"],
                anchor=c["anchor"],
                gf=RationalGF.from_literals(
                    c["num"], c["den"],
                    offset=_int(c.get("offset", 0), "families", i, "gf_candidates", j, "offset")),
            )
            for j, c in enumerate(fam_raw["gf_candidates"])
        )
        rec_raw = fam_raw["recurrence"]
        rec_path = ("families", i, "recurrence")
        recurrence = RecurrenceClaim(
            anchor=rec_raw["anchor"],
            lags=_ints(rec_raw["lags"], *rec_path, "lags"),
            initial=_ints(rec_raw["initial"], *rec_path, "initial"),
            valid_from=_int(rec_raw["valid_from"], *rec_path, "valid_from"),
        )
        if len(recurrence.initial) < len(recurrence.lags):
            raise ValueError(f"{spec.family_id}: fewer initial values than recurrence order")
        if len(recurrence.initial) < recurrence.valid_from:
            raise ValueError(f"{spec.family_id}: initial values do not cover valid_from")
        stated = asym_raw.keys() & {"rho", "constant"}
        if len(stated) == 1:  # printed constants come in a pair
            raise ValueError(f"catalog key {_json_path(asym_path)}.{min({'rho', 'constant'} - stated)} is missing")
        asymptotic = None
        if stated:
            asymptotic = AsymptoticClaim(asym_raw["anchor"], _decimal(asym_raw["rho"], *asym_path, "rho"),
                                         _decimal(asym_raw["constant"], *asym_path, "constant"))
            if not (0.0 < asymptotic.rho < 1.0):
                raise ValueError(f"{spec.family_id}: rho must be in (0, 1)")
        checks = tuple(
            BoundaryCheck(
                check_id=c["id"],
                anchor=c["anchor"],
                kind=c["kind"],
                n=_int(c["n"], "families", i, "boundary_checks", j, "n"),
                claimed=SizeDistribution({
                    _size(k, "families", i, "boundary_checks", j, "counts", k):
                        _int(v, "families", i, "boundary_checks", j, "counts", k)
                    for k, v in c["counts"].items()}),
            )
            for j, c in enumerate(fam_raw["boundary_checks"])
        )
        for c in checks:
            try:
                graph_order(spec.family_id, c.n, c.kind)
            except ValueError as exc:
                raise ValueError(f"boundary check {c.check_id}: {exc}") from None
        families.append(
            FamilyRecord(
                spec=spec,
                gf_candidates=candidates,
                univariate_anchor=fam_raw["univariate_gf"]["anchor"],
                univariate_gf=UnivarRational(parse_univar(fam_raw["univariate_gf"]["num"]),
                                             parse_univar(fam_raw["univariate_gf"]["den"])),
                recurrence=recurrence,
                asymptotic_anchor=asym_raw["anchor"],
                asymptotic=asymptotic,
                boundary_checks=checks,
            )
        )

    identities = []
    for i, ident_raw in enumerate(raw["transfer_identities"]):
        _check_keys(ident_raw, _IDENTITY_KEYS, "transfer_identities", i)
        for j, t in enumerate(ident_raw["rhs"]):
            _check_keys(t, _TERM_KEYS, "transfer_identities", i, "rhs", j)
        at = ("transfer_identities", i)
        terms = tuple(
            TransferTerm(_int(t["mult"], *at, "rhs", j, "mult"), t["kind"],
                         _int(t["n_shift"], *at, "rhs", j, "n_shift"),
                         _int(t["k_shift"], *at, "rhs", j, "k_shift"))
            for j, t in enumerate(ident_raw["rhs"])
        )
        valid_from = _int(ident_raw["valid_from"], *at, "valid_from")
        stated_from = _int(ident_raw["stated_from"], *at, "stated_from")
        first_n = min(valid_from, stated_from)  # first n replayed
        for t in terms:
            if not (1 <= t.mult <= 4):
                raise ValueError(f"unexpected multiplier {t.mult} in identity {ident_raw['id']}")
            if t.n_shift > first_n:
                raise ValueError(f"identity {ident_raw['id']} reaches block count "
                                 f"{first_n - t.n_shift} at n = {first_n}")
        try:  # the first replay's graphs must exist; later replays only add blocks
            graph_order(ident_raw["family"], first_n, ident_raw["lhs"])
            for t in terms:
                graph_order(ident_raw["family"], first_n - t.n_shift, t.kind)
        except ValueError as exc:
            raise ValueError(f"identity {ident_raw['id']}: {exc}") from None
        identities.append(
            TransferIdentity(
                identity_id=ident_raw["id"],
                anchor=ident_raw["anchor"],
                family_id=ident_raw["family"],
                lhs_kind=ident_raw["lhs"],
                rhs=terms,
                valid_from=valid_from,
                stated_from=stated_from,
            )
        )

    _check_unique(raw, {})
    if len(families) != 8:
        raise ValueError(f"expected 8 family records, found {len(families)}")
    if len(identities) != 20:
        raise ValueError(f"expected 20 transfer identities, found {len(identities)}")
    return Catalog(tuple(families), tuple(identities))
