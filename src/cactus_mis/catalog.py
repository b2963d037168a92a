"""Load the claim catalog: per-family generating functions, recurrences,
asymptotic constants, small-n check values, and the count-transfer identities.

The catalog file stores claims exactly as stated by their source, including
entries the verification pipeline refutes. Verdicts live in the verification
report, never in the catalog: loading it reads no report, and the claims
themselves are never edited.

The catalog is the only list of claims: `verify` keys each verdict by the
anchor written once here. Each key is named once, where it is read, and each
value is read by its JSON type and range. Loading rejects a value of another
type or out of range, a repeated anchor or id, and a missing or unknown key
with one ValueError naming the JSON paths involved.

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
from typing import NoReturn, Optional

from ._frozen import Frozen
from .graphs import FAMILIES, family_spec, graph_order
from .oracle import SizeDistribution
from .series import RationalGF, UnivarRational, parse_univar, rational_from_recurrence

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


class GFCandidate(Frozen):
    """One stated bivariate generating function `gf`, a `RationalGF`, for a family."""

    __slots__ = ("candidate_id", "anchor", "gf")


class RecurrenceClaim(Frozen):
    """a(n) = initial[n] for n < len(initial), then a(n) = sum lags[i-1] * a(n-i).

    `lags` and `initial` are tuples of ints.
    """

    __slots__ = ("anchor", "lags", "initial")

    def rational(self) -> UnivarRational:
        return rational_from_recurrence(self.lags, self.initial)


class AsymptoticClaim(Frozen):
    """Printed decimals of rho and C in a(n) ~ C / rho^(n+1), as strings."""

    __slots__ = ("anchor", "rho_printed", "constant_printed")

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


class BoundaryCheck(Frozen):
    """Stated size distribution `claimed`, a `SizeDistribution`, of the graph
    of `kind` (a str) with `n` blocks; sizes not listed are claimed to have
    count zero."""

    __slots__ = ("anchor", "kind", "n", "claimed")


class TransferTerm(Frozen):
    """`mult` times the count of the graph of `kind` (a str) shifted by
    `n_shift` blocks and `k_shift` set sizes; the other three are ints."""

    __slots__ = ("mult", "kind", "n_shift", "k_shift")


class TransferIdentity(Frozen):
    """lhs(n, k) = sum of mult * term(n - n_shift, k - k_shift), n >= valid_from.

    `rhs` is a tuple of `TransferTerm`s. `stated_from` records the range
    claimed by the source; it differs from valid_from only where the stated
    range includes a structurally degenerate instance (which the
    verification report refutes).
    """

    __slots__ = ("anchor", "family_id", "lhs_kind", "rhs", "valid_from", "stated_from")

    @property
    def identity_id(self) -> str:
        """The anchor without its `eq:` prefix, as the report names the identity."""
        return self.anchor.removeprefix("eq:")

    @property
    def first_n(self) -> int:
        """The first n replayed; later replays only add blocks."""
        return min(self.stated_from, self.valid_from)


class FamilyRecord(Frozen):
    """Everything the catalog asserts about one polygonal family.

    `spec` is a `FamilySpec`, `univariate_gf` a `UnivarRational`, and
    `gf_candidates` and `boundary_checks` are tuples of `GFCandidate`s and
    `BoundaryCheck`s. The first GF candidate is the statement (`gf_anchor`);
    `asymptotic` is None where the catalog gives the str `asymptotic_note` in
    place of constants (square: s(n) = 2^n exactly).
    """

    __slots__ = ("spec", "gf_candidates", "univariate_anchor", "univariate_gf", "recurrence",
                 "asymptotic_anchor", "asymptotic", "asymptotic_note", "boundary_checks")

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


class Catalog(Frozen):
    """The claims: `families`, a tuple of `FamilyRecord`s, and `identities`,
    a tuple of `TransferIdentity`s."""

    __slots__ = ("families", "identities")

    def family(self, family_id: str) -> FamilyRecord:
        spec = family_spec(family_id)  # an unknown id raises its ValueError
        return next(rec for rec in self.families if rec.spec == spec)


def _data_text(name: str) -> str:
    """Text of `data/<name>` beside this module (package-data ships it there).

    A file that cannot be read raises its own `OSError`, which names the path.
    """
    with open(os.path.join(_DATA_DIR, name), encoding="utf-8") as fh:
        return fh.read()


# Each reader below checks one JSON value by its type and range and returns
# what it means, or raises one ValueError naming the value's JSON path. A
# reader takes (value, path, seen): the value, the keys and indices that lead
# to it from the top, and the path of each anchor and id read so far.


def _json_path(path) -> str:
    """`path`, the keys and indices that lead from the top, as `$.a[0].b`."""
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


def _show(value) -> str:
    """`value` as JSON, cut after 60 characters so that a message stays one short line."""
    text = json.dumps(value)
    return text if len(text) <= 60 else text[:60] + "…"


def _reject(path, what: str, value) -> NoReturn:
    raise ValueError(f"catalog value {_json_path(path)} is not {what}: {_show(value)}")


def _made(path, what: str, make, *args):
    """`make(*args)`; a ValueError it raises rejects the value at `path` as not `what`."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"catalog value {_json_path(path)} is not {what} ({exc})") from None


_REQUIRED = object()


class _Object:
    """A JSON object of the catalog, read one key at a time. Each `get` names
    a key, the reader of its value and, if the key may be left out, its
    default; `done` then rejects any key no `get` read, so a misspelt field
    cannot become a claim that is never checked."""

    def __init__(self, value, path, seen):
        if type(value) is not dict:
            _reject(path, "an object", value)
        self.value, self.path, self.seen, self.unread = value, path, seen, set(value)

    def get(self, key: str, read, default=_REQUIRED):
        if key not in self.value:
            if default is _REQUIRED:
                raise ValueError(f"catalog key {_json_path(self.path)}.{key} is missing")
            return default
        self.unread.discard(key)
        return read(self.value[key], (*self.path, key), self.seen)

    def done(self, result):
        """`result`, built from this object's reads, if they read every key."""
        if self.unread:
            raise ValueError(f"unknown catalog key {_json_path(self.path)}.{min(self.unread)}")
        return result


def _int(value, path, seen) -> int:
    """A JSON integer: a float (even 1.0), string, boolean or null is never truncated or coerced."""
    if type(value) is not int:  # bool is a subclass of int
        _reject(path, "an integer", value)
    return value


def _str(value, path, seen) -> str:
    if type(value) is not str:
        _reject(path, "a string", value)
    return value


def _decimal(value, path, seen) -> str:
    """A JSON string of ASCII digits around one point, as `"0.618"`: its digits after the point
    set the claim's tolerance, so a JSON number, an exponent, a space or a non-ASCII digit is rejected."""
    if not (type(value) is str and re.fullmatch(r"[0-9]+\.[0-9]+", value)):
        _reject(path, "a printed decimal", value)
    return value


def _list(read, length: Optional[int] = None):
    """The reader of a JSON list whose items `read` reads, as a tuple, of `length` items if given."""
    def read_list(value, path, seen) -> tuple:
        if type(value) is not list:
            _reject(path, "a list", value)
        if length not in (None, len(value)):
            _reject(path, f"a list of {length} items", value)
        return tuple([read(item, (*path, i), seen) for i, item in enumerate(value)])
    return read_list


def _counts(value, path, seen) -> SizeDistribution:
    """A JSON object from set sizes to integer counts. A size is canonical
    non-negative decimal text of at most 9 digits, so `" 2"`, `"02"`, `"+2"`
    or a non-ASCII digit cannot name size 2 beside `"2"`, and no key is too
    long for `int()`."""
    if type(value) is not dict:
        _reject(path, "an object", value)
    sizes = {}
    for key, count in value.items():
        if not re.fullmatch(r"0|[1-9][0-9]{0,8}", key):
            raise ValueError(f"catalog value {_json_path(path)} has a key that is not a set size: {_show(key)}")
        at = (*path, key)
        if _int(count, at, seen) < 0:
            _reject(at, "a count >= 0", count)
        sizes[int(key)] = count
    return SizeDistribution(sizes)


def _name(value, path, seen) -> str:
    """An `anchor`, which no other claim of the catalog gives, or an `id`,
    which no other object of its list gives: a repeat would overwrite a verdict."""
    space = path[:-2] if path[-1] == "id" else "anchor"
    earlier = seen.setdefault((space, _str(value, path, seen)), path)
    if earlier is not path:
        raise ValueError(f"catalog value {_json_path(path)} repeats {_json_path(earlier)}: {_show(value)}")
    return value


def _candidate(value, path, seen) -> GFCandidate:
    c = _Object(value, path, seen)
    return c.done(GFCandidate(c.get("id", _name), c.get("anchor", _name), _made(
        path, "a generating function", RationalGF.from_literals, c.get("num", _str), c.get("den", _str),
        c.get("offset", _int, 0))))


def _univariate(value, path, seen) -> tuple[str, UnivarRational]:
    u = _Object(value, path, seen)
    return u.done((u.get("anchor", _name), _made(
        path, "a generating function", lambda num, den: UnivarRational(parse_univar(num), parse_univar(den)),
        u.get("num", _str), u.get("den", _str))))


def _recurrence(value, path, seen) -> RecurrenceClaim:
    r = _Object(value, path, seen)
    rec = r.done(RecurrenceClaim(r.get("anchor", _name), r.get("lags", _list(_int)), r.get("initial", _list(_int))))
    if len(rec.initial) < len(rec.lags):
        _reject((*path, "initial"), f"at least {len(rec.lags)} values, one per lag", rec.initial)
    return rec


def _asymptotic(value, path, seen) -> tuple[str, Optional[AsymptoticClaim], Optional[str]]:
    """(anchor, claim, note): the claim's printed `rho` and `constant`, which
    come as a pair, or else a `note` on why the family states neither."""
    a = _Object(value, path, seen)
    anchor = a.get("anchor", _name)
    if "rho" in a.value or "constant" in a.value:
        claim = AsymptoticClaim(anchor, a.get("rho", _decimal), a.get("constant", _decimal))
        if not 0.0 < claim.rho < 1.0:  # a series whose terms grow converges inside the unit disc
            _reject((*path, "rho"), "a printed decimal in (0, 1)", claim.rho_printed)
        return a.done((anchor, claim, None))
    return a.done((anchor, None, a.get("note", _str)))


def _check(value, path, seen) -> BoundaryCheck:
    c = _Object(value, path, seen)
    return c.done(BoundaryCheck(c.get("anchor", _name), c.get("kind", _str), c.get("n", _int),
                                c.get("counts", _counts)))


def _family(value, path, seen) -> FamilyRecord:
    """A family's claims; its shape is the builders' `FamilySpec` for its `id`."""
    f = _Object(value, path, seen)
    spec = FAMILIES.get(f.get("id", _name))
    if spec is None:
        _reject((*path, "id"), "a family the builders know", f.value["id"])
    rec = f.done(FamilyRecord(spec, f.get("gf_candidates", _list(_candidate)), *f.get("univariate_gf", _univariate),
                              f.get("recurrence", _recurrence), *f.get("asymptotic", _asymptotic),
                              f.get("boundary_checks", _list(_check))))
    first_id = rec.gf_candidates[0].candidate_id if rec.gf_candidates else None
    if first_id != "statement":
        _reject((*path, "gf_candidates", 0, "id"), '"statement"', first_id)
    for j, c in enumerate(rec.boundary_checks):
        _made((*path, "boundary_checks", j), "on graphs the builders make", graph_order, spec.family_id, c.n, c.kind)
    return rec


def _term(value, path, seen) -> TransferTerm:
    t = _Object(value, path, seen)
    return t.done(TransferTerm(t.get("mult", _int), t.get("kind", _str), t.get("n_shift", _int),
                               t.get("k_shift", _int)))


def _identity(value, path, seen) -> TransferIdentity:
    i = _Object(value, path, seen)
    ident = i.done(TransferIdentity(i.get("anchor", _name), i.get("family", _str), i.get("lhs", _str),
                                    i.get("rhs", _list(_term)), i.get("valid_from", _int), i.get("stated_from", _int)))
    if not ident.anchor.startswith("eq:"):  # its id is the anchor after `eq:`, so ids repeat no more than anchors
        _reject((*path, "anchor"), 'an anchor starting with "eq:"', ident.anchor)
    first_n = ident.first_n
    _made(path, "on graphs the builders make", graph_order, ident.family_id, first_n, ident.lhs_kind)
    for j, t in enumerate(ident.rhs):
        at = (*path, "rhs", j)
        if not 1 <= t.mult <= 4:
            _reject((*at, "mult"), "a multiplier from 1 to 4", t.mult)
        if t.n_shift > first_n:
            _reject((*at, "n_shift"), f"at most {first_n}, the first n replayed", t.n_shift)
        _made(at, "on graphs the builders make", graph_order, ident.family_id, first_n - t.n_shift, t.kind)
    return ident


def load_catalog() -> Catalog:
    """The shipped catalog file, parsed and validated.

    The value is parsed once per catalog text and shared, so callers must not
    mutate it. A text that fails validation raises and is not cached.
    """
    return _parse_catalog(_data_text("catalog.json"))


# Keyed on the text, so a test that edits `_data_text` gets a fresh parse; one
# entry, because a process reads one catalog. Not on `load_catalog` itself: the
# benchmark's tracer wraps plain functions only, and counts its calls.
@functools.lru_cache(maxsize=1)
def _parse_catalog(text: str) -> Catalog:
    top = _Object(json.loads(text), (), {})
    return top.done(Catalog(top.get("families", _list(_family, 8)),
                            top.get("transfer_identities", _list(_identity, 20))))
