"""Catalog integrity: parseability, invariants, and agreement with the oracle."""

import copy
import json
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cactus_mis import catalog as catalog_mod
from cactus_mis.graphs import build_graph, graph_order
from cactus_mis.oracle import enumerate_mis
from cactus_mis.series import recurrence_from_gf, reduce_fraction, specialize_y1


def test_catalog_shape(catalog):
    assert len(catalog.families) == 8
    assert len(catalog.identities) == 20
    ids = [rec.family_id for rec in catalog.families]
    assert ids == [
        "triangular", "diamond", "square", "pentagonal",
        "meta-pentagonal", "meta-hexagonal", "para-hexagonal", "ortho-hexagonal",
    ]
    assert [i.identity_id for i in catalog.identities] == [
        "t1", "tbar1", "d11", "dbar4", "s1", "sbar4", "p11", "pbar3",
        "m11", "mbar3", "mtil3", "mh11", "mhbar2", "mhtil4",
        "ph11", "phbar2", "phtil4", "qh11", "qhbar2", "qhtil44",
    ]


def test_theorem_anchors_are_the_papers_24(catalog):
    # each family declares three theorem claims (its GF, its recurrence, its
    # asymptotics); the catalog gives no other claim a theorem anchor
    anchors = [a for rec in catalog.families
               for a in (rec.gf_anchor, rec.recurrence.anchor, rec.asymptotic_anchor)]
    assert anchors == [f"thm:2.{i}" for i in range(1, 25)]
    others = [c.anchor for rec in catalog.families for c in rec.boundary_checks]
    others += [i.anchor for i in catalog.identities]
    assert not [a for a in others if a.startswith("thm:")]


def test_initial_values(catalog):
    assert catalog.family("triangular").recurrence.initial == (1, 3, 5)
    assert catalog.family("meta-hexagonal").recurrence.initial == (1, 5, 19, 64, 221, 765)
    assert catalog.family("para-hexagonal").recurrence.lags == (5, -4, 1)
    for rec in catalog.families:
        r = rec.recurrence
        assert len(r.initial) >= len(r.lags)
        assert r.initial[0] == 1  # empty-graph convention


def test_asymptotic_claims(catalog):
    assert catalog.family("square").asymptotic is None
    assert catalog.family("square").asymptotic_anchor == "thm:2.9"
    assert catalog.family("square").asymptotic_note == (
        "exact closed form 2^n; no asymptotic constants are stated for this family")
    claim = catalog.family("triangular").asymptotic
    assert (claim.rho_printed, claim.constant_printed) == ("0.618", "1.1708")
    assert claim.rho_tolerance == pytest.approx(0.0005)
    assert claim.constant_tolerance == pytest.approx(0.00005)
    for rec in catalog.families:
        assert (rec.asymptotic is None) != (rec.asymptotic_note is None)
        if rec.asymptotic is not None:
            assert 0.0 < rec.asymptotic.rho < 1.0
            assert rec.asymptotic.anchor == rec.asymptotic_anchor


def test_gf_candidates(catalog):
    for rec in catalog.families:
        ids = [c.candidate_id for c in rec.gf_candidates]
        assert ids[0] == "statement"
        assert rec.gf_anchor == rec.gf_candidates[0].anchor
        # para-hexagonal carries the conflicting restated version as well
        assert len(ids) == (2 if rec.family_id == "para-hexagonal" else 1)
        with pytest.raises(KeyError):
            rec.gf("bogus")


def _refuted(baseline, claim_id):
    return baseline["claims"].get(claim_id, {}).get("verdict") == "REFUTED"


def test_every_boundary_check_against_oracle(catalog, baseline):
    """Stated check values the baseline does not refute must match enumeration
    exactly; refuted ones must genuinely disagree (that is what the verdict records)."""
    for rec in catalog.families:
        for check in rec.boundary_checks:
            actual = enumerate_mis(build_graph(rec.family_id, check.n, check.kind))
            if _refuted(baseline, check.anchor):
                assert actual != check.claimed, check.anchor
            else:
                assert actual == check.claimed, check.anchor


def test_disputed_flags_populated_from_baseline(catalog, baseline):
    anchors = {c.anchor for rec in catalog.families for c in rec.boundary_checks}
    disputed = {anchor for anchor in anchors if _refuted(baseline, anchor)}
    assert disputed == {
        "check:sbar:1",        # stated zero beyond k=2; enumeration finds size-3 sets
        "check:pbar:0:b",      # one of the two conflicting citations
        "check:pbar:1",        # stated zero at k=4; enumeration finds 3 sets there
        "check:mbar:1",        # stated all-zero row
        "check:mtil:1",        # stated all-zero row
        "check:hbar:1:a",      # stated all-zero row; the other citation is confirmed
    }
    identity_ids = {i.identity_id for i in catalog.identities}
    ranges = {i for i, note in baseline["identity_range_notes"].items() if note.get("stated_range_refuted")}
    assert ranges == {"dbar4"} and ranges <= identity_ids


def test_transfer_identity_invariants(catalog):
    for ident in catalog.identities:
        assert ident.lhs_kind in ("family", "bar", "tilde")
        for term in ident.rhs:
            assert 1 <= term.mult <= 4
            # shifts keep every referenced index nonnegative on the valid range
            assert ident.valid_from - term.n_shift >= 0
        assert ident.stated_from <= ident.valid_from
        if ident.identity_id == "dbar4":
            assert (ident.stated_from, ident.valid_from) == (1, 2)
        else:
            assert ident.stated_from == ident.valid_from


def _load_edited(monkeypatch, edit):
    """`load_catalog()` over the shipped catalog after `edit(raw)` changed it in place."""
    from cactus_mis import catalog as catalog_mod

    raw = json.loads(catalog_mod._data_text("catalog.json"))
    edit(raw)
    monkeypatch.setattr(catalog_mod, "_data_text", lambda name: json.dumps(raw))
    return catalog_mod.load_catalog()


def test_load_catalog_is_parsed_once_and_shared():
    assert catalog_mod.load_catalog() is catalog_mod.load_catalog()


def test_edited_text_is_parsed_afresh_and_not_kept(monkeypatch):
    # the parse is cached by text: an edited catalog gets its own parse, and a
    # later load of the shipped text does not see the edit
    def edit(raw):
        raw["families"][0]["recurrence"]["anchor"] = "edited"

    assert _load_edited(monkeypatch, edit).families[0].recurrence.anchor == "edited"
    monkeypatch.undo()
    text = catalog_mod._data_text("catalog.json")
    assert catalog_mod.load_catalog() == catalog_mod._parse_catalog.__wrapped__(text)


def _raw_identity(raw, ident_id):
    [ident] = [i for i in raw["transfer_identities"] if i["anchor"] == f"eq:{ident_id}"]
    return ident


# dbar4 (transfer_identities[3]) is replayed from its stated n = 1, t1
# (transfer_identities[0]) from n = 3
@pytest.mark.parametrize("ident_id, n_shift, message", [
    ("dbar4", 2, "catalog value $.transfer_identities[3].rhs[0].n_shift is not at most 1, the first n replayed: 2"),
    ("t1", 4, "catalog value $.transfer_identities[0].rhs[0].n_shift is not at most 3, the first n replayed: 4"),
], ids=["dbar4-2", "t1-4"])
def test_identity_reaching_a_negative_block_count_is_rejected(monkeypatch, ident_id, n_shift, message):
    def edit(raw):
        _raw_identity(raw, ident_id)["rhs"][0]["n_shift"] = n_shift

    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        _load_edited(monkeypatch, edit)


def _square_check(raw, anchor):
    [fam] = [f for f in raw["families"] if f["id"] == "square"]
    [check] = [c for c in fam["boundary_checks"] if c["anchor"] == anchor]
    return check


# s1 is transfer_identities[4]; square is families[2], and check:sbar:0 its
# boundary_checks[2]
@pytest.mark.parametrize("edit, message", [
    (lambda raw: _raw_identity(raw, "s1").update(lhs="bogus"),
     "catalog value $.transfer_identities[4] is not on graphs the builders make "
     "(unknown graph kind 'bogus'; expected one of ('family', 'bar', 'tilde'))"),
    (lambda raw: _raw_identity(raw, "s1").update(family="heptagonal"),
     "catalog value $.transfer_identities[4] is not on graphs the builders make (unknown family 'heptagonal'; "
     "known: triangular, diamond, square, pentagonal, meta-pentagonal, meta-hexagonal, para-hexagonal, "
     "ortho-hexagonal)"),
    (lambda raw: _raw_identity(raw, "s1")["rhs"][1].update(kind="tilde"),
     "catalog value $.transfer_identities[4].rhs[1] is not on graphs the builders make "
     "(no tilde auxiliary graph for family 'square')"),
    (lambda raw: _square_check(raw, "check:sbar:0").update(kind="tilde"),
     "catalog value $.families[2].boundary_checks[2] is not on graphs the builders make "
     "(no tilde auxiliary graph for family 'square')"),
], ids=["unknown-lhs-kind", "unknown-family", "missing-term-gadget", "missing-check-gadget"])
def test_catalog_naming_a_missing_graph_is_rejected(monkeypatch, edit, message):
    # rejected at load time, not mid-way through a verify run
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        _load_edited(monkeypatch, edit)


# each of these but the last named a family, check or identity id in place of
# a path (or, for a negative count, nothing at all) when it was checked after
# the reads; the last printed the whole catalog in its one line
@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw["families"][1]["recurrence"].update(initial=[1, 2]),
     "catalog value $.families[1].recurrence.initial is not at least 3 values, one per lag: [1, 2]"),
    (lambda raw: raw["families"][0]["asymptotic"].update(rho="1.5"),
     'catalog value $.families[0].asymptotic.rho is not a printed decimal in (0, 1): "1.5"'),
    (lambda raw: raw["families"][2]["boundary_checks"][1]["counts"].update({"2": -1}),
     "catalog value $.families[2].boundary_checks[1].counts.2 is not a count >= 0: -1"),
    (lambda raw: raw["families"][0]["boundary_checks"][3].update(kind="tilde"),
     "catalog value $.families[0].boundary_checks[3] is not on graphs the builders make "
     "(no tilde auxiliary graph for family 'triangular')"),
    (lambda raw: raw["families"][1]["boundary_checks"][0].update(n=-1),
     "catalog value $.families[1].boundary_checks[0] is not on graphs the builders make "
     "(block count must be >= 0)"),
    (lambda raw: raw["transfer_identities"][0].update(family="hexagonal"),
     "catalog value $.transfer_identities[0] is not on graphs the builders make (unknown family 'hexagonal'; "
     "known: triangular, diamond, square, pentagonal, meta-pentagonal, meta-hexagonal, para-hexagonal, "
     "ortho-hexagonal)"),
    (lambda raw: raw["transfer_identities"][1].update(lhs="bars"),
     "catalog value $.transfer_identities[1] is not on graphs the builders make "
     "(unknown graph kind 'bars'; expected one of ('family', 'bar', 'tilde'))"),
    (lambda raw: raw["transfer_identities"][0]["rhs"][1].update(kind="tilde"),
     "catalog value $.transfer_identities[0].rhs[1] is not on graphs the builders make "
     "(no tilde auxiliary graph for family 'triangular')"),
    (lambda raw: raw["transfer_identities"][2]["rhs"][0].update(mult=9),
     "catalog value $.transfer_identities[2].rhs[0].mult is not a multiplier from 1 to 4: 9"),
    (lambda raw: raw["transfer_identities"][1]["rhs"][1].update(n_shift=3),
     "catalog value $.transfer_identities[1].rhs[1].n_shift is not at most 2, the first n replayed: 3"),
    (lambda raw: raw["families"].pop(),
     'catalog value $.families is not a list of 8 items: [{"id": "triangular", "gf_candidates": [{"id": '
     '"statement", …'),
    (lambda raw: raw["transfer_identities"].pop(),
     'catalog value $.transfer_identities is not a list of 20 items: [{"anchor": "eq:t1", "family": '
     '"triangular", "lhs": "family"…'),
    (lambda raw: raw.update(families={fam["id"]: fam for fam in raw["families"]}),
     'catalog value $.families is not a list: {"triangular": {"id": "triangular", "gf_candidates": [{"id":…'),
], ids=["too-few-initial-values", "rho-above-1", "negative-count", "check-gadget",
        "check-n-negative", "identity-family", "identity-lhs-kind", "identity-term-gadget", "multiplier-9",
        "negative-block-count", "7-families", "19-identities", "families-object-shown-by-a-prefix"])
def test_edited_catalog_is_rejected_in_one_line_naming_its_path(monkeypatch, edit, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        _load_edited(monkeypatch, edit)


# pentagonal (families[3]) states an asymptotic claim; para-hexagonal
# (families[6]) states two GF candidates. The last five are keys the catalog
# does not give because the code knows them: a family's shape is the
# builders' `FamilySpec`, an identity's id is its anchor after `eq:`, and a
# recurrence holds from n = len(initial)
@pytest.mark.parametrize("where, key, path", [
    (lambda raw: raw, "bogus", "$"),
    (lambda raw: raw["families"][2], "bogus", "$.families[2]"),
    (lambda raw: raw["families"][6]["gf_candidates"][1], "ofset", "$.families[6].gf_candidates[1]"),
    (lambda raw: raw["families"][2]["univariate_gf"], "bogus", "$.families[2].univariate_gf"),
    (lambda raw: raw["families"][2]["recurrence"], "typo_initial", "$.families[2].recurrence"),
    (lambda raw: raw["families"][3]["asymptotic"], "bogus", "$.families[3].asymptotic"),
    (lambda raw: raw["families"][2]["boundary_checks"][1], "bogus", "$.families[2].boundary_checks[1]"),
    (lambda raw: raw["transfer_identities"][3], "n_shfit", "$.transfer_identities[3]"),
    (lambda raw: raw["transfer_identities"][3]["rhs"][1], "bogus", "$.transfer_identities[3].rhs[1]"),
    (lambda raw: raw["families"][0], "symbol", "$.families[0]"),
    (lambda raw: raw["families"][0], "cycle_len", "$.families[0]"),
    (lambda raw: raw["families"][0], "attach_dist", "$.families[0]"),
    (lambda raw: raw["families"][0]["recurrence"], "valid_from", "$.families[0].recurrence"),
    (lambda raw: raw["transfer_identities"][0], "id", "$.transfer_identities[0]"),
], ids=["top", "family", "gf-candidate", "univariate-gf", "recurrence", "asymptotic",
        "boundary-check", "identity", "rhs-term", "symbol", "cycle_len", "attach_dist", "valid_from",
        "identity-id"])
def test_unknown_catalog_key_is_rejected_with_its_path(monkeypatch, where, key, path):
    # a misspelt optional field would otherwise be a claim nobody checks
    with pytest.raises(ValueError, match="^" + re.escape(f"unknown catalog key {path}.{key}") + "$"):
        _load_edited(monkeypatch, lambda raw: where(raw).update({key: 0}))


# every number the loader reads: a recurrence's lags and initial values, a
# candidate's offset, a check's n and counts, and an identity's range and term
# fields
@pytest.mark.parametrize("path, value", [
    (("families", 0, "recurrence", "lags", 0), 1.0),
    (("families", 0, "recurrence", "lags", 1), True),
    (("families", 0, "recurrence", "initial", 1), 3.5),
    (("families", 0, "recurrence", "initial", 1), "3"),
    (("families", 0, "recurrence", "initial", 1), True),
    (("families", 4, "gf_candidates", 0, "offset"), 0.5),
    (("families", 4, "gf_candidates", 0, "offset"), "1"),
    (("families", 2, "boundary_checks", 1, "n"), True),
    (("families", 2, "boundary_checks", 1, "counts", "2"), 2.5),
    (("transfer_identities", 3, "valid_from"), True),
    (("transfer_identities", 3, "stated_from"), "1"),
    (("transfer_identities", 3, "rhs", 0, "mult"), 1.0),
    (("transfer_identities", 3, "rhs", 1, "n_shift"), 1.0),
    (("transfer_identities", 3, "rhs", 1, "k_shift"), 0.5),
], ids=["lags-float", "lags-bool", "initial-float", "initial-string", "initial-bool",
        "offset-float", "offset-string", "check-n-bool",
        "check-count-float", "identity-valid_from-bool", "identity-stated_from-string",
        "term-mult-float", "term-n_shift-float", "term-k_shift-float"])
def test_non_integer_catalog_value_is_rejected_with_its_path(monkeypatch, path, value):
    # a float would be truncated or printed as one (`8.0`), a string or a
    # boolean coerced: each is refused at load time instead
    message = f"catalog value {_json_path(path)} is not an integer: {json.dumps(value)}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        _load_edited(monkeypatch, lambda raw: _set_path(raw, path, value))


# a size key is canonical decimal text of at most 9 digits, so no second
# spelling of size 2 can sit beside "2" and overwrite its count. A key of more
# than 4,300 digits once failed in `int()` with a message naming no path, and a
# long key was printed whole inside its path
@pytest.mark.parametrize("key, shown", [
    (" 2", '" 2"'), ("2 ", '"2 "'), ("\u0662", '"\\u0662"'), ("02", '"02"'), ("+2", '"+2"'), ("-1", '"-1"'),
    ("x", '"x"'), ("", '""'), ("1" * 5000, '"' + "1" * 59 + "…"), ("x" * 201, '"' + "x" * 59 + "…"),
    ("1" * 10, '"1111111111"'),
], ids=["leading-space", "trailing-space", "arabic-indic-digit", "leading-zero", "plus-sign", "negative", "letter",
        "empty", "5000-digits", "201-characters", "10-digits"])
def test_boundary_check_size_key_that_is_not_canonical_is_rejected(key, shown):
    raw = json.loads(catalog_mod._data_text("catalog.json"))
    raw["families"][2]["boundary_checks"][1]["counts"][key] = 1
    message = f"catalog value $.families[2].boundary_checks[1].counts has a key that is not a set size: {shown}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        catalog_mod._parse_catalog.__wrapped__(json.dumps(raw))


def test_recurrence_list_that_is_not_a_list_is_rejected(monkeypatch):
    def edit(raw):
        raw["families"][0]["recurrence"]["lags"] = "11"

    with pytest.raises(ValueError, match=re.escape('catalog value $.families[0].recurrence.lags is not a list: "11"')):
        _load_edited(monkeypatch, edit)


# each edit below loaded at the parent of the change that made it an error:
# two claims on one anchor, or an identity on another's id (its anchor after
# `eq:`), dropped a verdict;
# a deleted asymptotic object reported square's note under its anchor; a
# `gf_anchor` beside the candidates could name the claim apart from them; and
# a first candidate other than the statement ended verify in a KeyError
@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw["families"][0]["asymptotic"].update(anchor="thm:2.2"),
     'catalog value $.families[0].asymptotic.anchor repeats $.families[0].recurrence.anchor: "thm:2.2"'),
    (lambda raw: raw["transfer_identities"][4].update(anchor="check:t:0"),
     'catalog value $.transfer_identities[4].anchor repeats $.families[0].boundary_checks[0].anchor: '
     '"check:t:0"'),
    (lambda raw: raw["families"][3]["univariate_gf"].update(anchor="thm:2.8:proof"),
     'catalog value $.families[3].univariate_gf.anchor repeats $.families[2].univariate_gf.anchor: '
     '"thm:2.8:proof"'),
    (lambda raw: raw["transfer_identities"][1].update(anchor="eq:t1"),
     'catalog value $.transfer_identities[1].anchor repeats $.transfer_identities[0].anchor: "eq:t1"'),
    (lambda raw: raw["transfer_identities"][1].update(anchor="t1"),
     'catalog value $.transfer_identities[1].anchor is not an anchor starting with "eq:": "t1"'),
    (lambda raw: raw["families"].__setitem__(1, copy.deepcopy(raw["families"][0])),
     'catalog value $.families[1].id repeats $.families[0].id: "triangular"'),
    (lambda raw: raw["families"][6]["gf_candidates"][1].update(id="statement"),
     'catalog value $.families[6].gf_candidates[1].id repeats $.families[6].gf_candidates[0].id: "statement"'),
    (lambda raw: raw["families"][0]["recurrence"].update(anchor=2),
     "catalog value $.families[0].recurrence.anchor is not a string: 2"),
    (lambda raw: raw["families"][0].pop("asymptotic"),
     "catalog key $.families[0].asymptotic is missing"),
    (lambda raw: raw["families"][2].update(asymptotic=None),
     "catalog value $.families[2].asymptotic is not an object: null"),
    (lambda raw: raw["families"][0].update(gf_anchor="thm:2.99"),
     "unknown catalog key $.families[0].gf_anchor"),
    (lambda raw: raw["families"][6]["gf_candidates"].reverse(),
     'catalog value $.families[6].gf_candidates[0].id is not "statement": "proof"'),
    (lambda raw: raw["families"][0]["gf_candidates"].clear(),
     'catalog value $.families[0].gf_candidates[0].id is not "statement": null'),
], ids=["shared-anchor", "identity-on-check-anchor", "univariate-anchor", "identity-id", "identity-anchor-not-eq",
        "family-id", "candidate-id", "anchor-not-text", "asymptotic-missing", "asymptotic-null", "gf-anchor",
        "statement-not-first", "no-candidate"])
def test_catalog_that_misnames_a_claim_is_rejected_with_its_path(monkeypatch, edit, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        _load_edited(monkeypatch, edit)


# one removal per kind of object; a candidate's `offset` is optional, and an
# asymptotic object gives its printed constants (both) or a note
@pytest.mark.parametrize("path, key", [
    ((), "families"),
    (("families", 1), "recurrence"),
    (("families", 6, "gf_candidates", 1), "num"),
    (("families", 1, "univariate_gf"), "den"),
    (("families", 1, "recurrence"), "lags"),
    (("families", 2, "asymptotic"), "anchor"),
    (("families", 2, "asymptotic"), "note"),
    (("families", 3, "asymptotic"), "rho"),
    (("families", 3, "asymptotic"), "constant"),
    (("families", 2, "boundary_checks", 1), "counts"),
    (("transfer_identities", 3), "lhs"),
    (("transfer_identities", 3, "rhs", 1), "k_shift"),
], ids=["top", "family", "gf-candidate", "univariate-gf", "recurrence", "asymptotic-anchor", "asymptotic-note",
        "asymptotic-rho", "asymptotic-constant", "boundary-check", "identity", "rhs-term"])
def test_missing_catalog_key_is_rejected_with_its_path(monkeypatch, path, key):
    with pytest.raises(ValueError, match="^" + re.escape(f"catalog key {_json_path(path)}.{key} is missing") + "$"):
        _load_edited(monkeypatch, lambda raw: _walk(raw, path).pop(key))


def _pop_constants(asymptotic):
    del asymptotic["rho"], asymptotic["constant"]


# an asymptotic object gives either both printed constants or a note; before
# the note was catalog data, triangular without its constants was reported
# SKIPPED with square's note
@pytest.mark.parametrize("edit, message", [
    (lambda raw: _pop_constants(raw["families"][0]["asymptotic"]),
     "catalog key $.families[0].asymptotic.note is missing"),
    (lambda raw: raw["families"][0]["asymptotic"].update(note="no constants"),
     "unknown catalog key $.families[0].asymptotic.note"),
    (lambda raw: raw["families"][2]["asymptotic"].update(rho="0.5"),
     "catalog key $.families[2].asymptotic.constant is missing"),
    (lambda raw: raw["families"][2]["asymptotic"].update(note=None),
     "catalog value $.families[2].asymptotic.note is not a string: null"),
], ids=["constants-removed", "note-beside-constants", "note-beside-rho", "note-null"])
def test_asymptotic_object_gives_constants_or_a_note(monkeypatch, edit, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        _load_edited(monkeypatch, edit)


# each of these loaded into a traceback (an AttributeError, TypeError or bare
# KeyError) or a message naming no path before every value was read by its type
@pytest.mark.parametrize("path, value, message", [
    (("families", 2, "boundary_checks", 1, "counts"), [1, 4],
     "catalog value $.families[2].boundary_checks[1].counts is not an object: [1, 4]"),
    (("transfer_identities", 3, "rhs"), 3, "catalog value $.transfer_identities[3].rhs is not a list: 3"),
    (("families", 0, "gf_candidates", 0, "num"), 1,
     "catalog value $.families[0].gf_candidates[0].num is not a string: 1"),
    (("families", 0, "univariate_gf", "den"), None,
     "catalog value $.families[0].univariate_gf.den is not a string: null"),
    (("families", 0, "gf_candidates", 0, "num"), "1 + x^",
     "catalog value $.families[0].gf_candidates[0] is not a generating function "
     "(cannot parse polynomial near '^')"),
    (("families", 0, "univariate_gf", "den"), "2 - x",
     "catalog value $.families[0].univariate_gf is not a generating function "
     "(denominator must have constant term 1)"),
    (("families",), {}, "catalog value $.families is not a list: {}"),
    (("transfer_identities", 3, "lhs"), 1, "catalog value $.transfer_identities[3].lhs is not a string: 1"),
    (("families", 0, "id"), "heptagonal",
     'catalog value $.families[0].id is not a family the builders know: "heptagonal"'),
    # a '*' with no factor on one side once parsed, dropped, as "1 - 2x"
    (("families", 0, "gf_candidates", 0, "den"), "1 - 2x*",
     "catalog value $.families[0].gf_candidates[0] is not a generating function "
     "(cannot parse polynomial near '- 2x*')"),
], ids=["counts-list", "rhs-number", "gf-num-number", "univariate-den-null", "gf-num-unparsable",
        "univariate-den-constant", "families-object", "identity-lhs-number", "unknown-family-id",
        "gf-den-dangling-star"])
def test_malformed_catalog_value_is_rejected_with_its_path(monkeypatch, path, value, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        _load_edited(monkeypatch, lambda raw: _set_path(raw, path, value))


@pytest.mark.parametrize("path, value, message", [
    (("families", 2, "boundary_checks", 1, "counts"), [1, 4],
     "catalog value $.families[2].boundary_checks[1].counts is not an object: [1, 4]"),
    (("families", 0, "asymptotic", "rho"), "1.5",
     'catalog value $.families[0].asymptotic.rho is not a printed decimal in (0, 1): "1.5"'),
    # the builders own a family's symbol
    (("families", 0, "symbol"), "t", "unknown catalog key $.families[0].symbol"),
], ids=["counts-list", "rho-above-one", "symbol-key"])
def test_malformed_catalog_ends_verify_in_one_error_line(monkeypatch, capsys, path, value, message):
    from cactus_mis import cli

    raw = json.loads(catalog_mod._data_text("catalog.json"))
    _set_path(raw, path, value)
    monkeypatch.setattr(catalog_mod, "_data_text", lambda name: json.dumps(raw))
    assert cli.main(["verify", "--scope", "all"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_zero_offset_may_be_left_out(monkeypatch, catalog):
    # the shipped catalog gives an offset only where it is not 0
    def edit(raw):
        for fam in raw["families"]:
            for cand in fam["gf_candidates"]:
                cand.setdefault("offset", 0)

    assert _load_edited(monkeypatch, edit) == catalog


# a printed constant's digits after the point set its tolerance, so only the
# plain ASCII spelling is read
@pytest.mark.parametrize("key, value", [
    ("rho", 0.618),
    ("rho", "6.18e-1"),
    ("rho", "0.618 "),
    ("rho", " 0.618"),
    ("rho", "\u0660.\u0666\u0661\u0668"),
    ("rho", ".618"),
    ("rho", "0."),
    ("rho", "1"),
    ("rho", "+0.618"),
    ("rho", "0,618"),
    ("rho", None),
    ("constant", 1.1708),
    ("constant", "1.1708\n"),
    ("constant", True),
], ids=["rho-number", "rho-exponent", "rho-trailing-space", "rho-leading-space", "rho-arabic-indic-digits",
        "rho-no-integer-part", "rho-no-fraction", "rho-integer", "rho-plus-sign", "rho-comma", "rho-null",
        "constant-number", "constant-newline", "constant-bool"])
def test_printed_constant_that_is_not_a_decimal_is_rejected(monkeypatch, key, value):
    def edit(raw):
        raw["families"][0]["asymptotic"][key] = value

    message = f"catalog value $.families[0].asymptotic.{key} is not a printed decimal: {json.dumps(value)}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        _load_edited(monkeypatch, edit)


def _catalog_objects():
    """{kind: (keys the loader reads, paths of that kind's objects)} over the
    committed catalog. A kind's keys are those its objects give, with a
    candidate's optional `offset`; the `counts` maps are free-form, so not
    among them."""
    raw = json.loads(catalog_mod._data_text("catalog.json"))
    fams = list(enumerate(raw["families"]))
    idents = [("transfer_identities", i) for i in range(len(raw["transfer_identities"]))]
    paths = {
        "top": [()],
        "family": [("families", i) for i, _ in fams],
        "candidate": [("families", i, "gf_candidates", j) for i, f in fams for j in range(len(f["gf_candidates"]))],
        "univariate": [("families", i, "univariate_gf") for i, _ in fams],
        "recurrence": [("families", i, "recurrence") for i, _ in fams],
        "asymptotic": [("families", i, "asymptotic") for i, _ in fams],
        "check": [("families", i, "boundary_checks", j) for i, f in fams for j in range(len(f["boundary_checks"]))],
        "identity": idents,
        "term": [(*at, "rhs", j) for at in idents for j in range(len(_walk(raw, at)["rhs"]))],
    }
    optional = {"candidate": {"offset"}}
    return {kind: (frozenset().union(optional.get(kind, ()), *(_walk(raw, at) for at in at_list)), at_list)
            for kind, at_list in paths.items()}


def _walk(raw, path):
    for step in path:
        raw = raw[step]
    return raw


def _set_path(raw, path, value):
    _walk(raw, path[:-1])[path[-1]] = value


def _json_path(path):
    """`path` as the loader's messages print it: `("families", 2, "gf")` is `$.families[2].gf`."""
    return "$" + "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in path)


_OBJECTS = _catalog_objects()


@st.composite
def _catalog_object(draw):
    """An object of the catalog, its kind drawn first so every kind is as likely."""
    known, paths = _OBJECTS[draw(st.sampled_from(sorted(_OBJECTS)))]
    return known, draw(st.sampled_from(paths))


@settings(max_examples=60, deadline=None)
@given(where=_catalog_object(), key=st.text(max_size=12))
def test_any_unread_key_is_rejected_with_its_path(where, key):
    known, path = where
    assume(key not in known)
    raw = json.loads(catalog_mod._data_text("catalog.json"))
    _walk(raw, path)[key] = 0
    message = f"unknown catalog key {_json_path(path)}.{key}"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(catalog_mod, "_data_text", lambda name: json.dumps(raw))
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            catalog_mod.load_catalog()


def _members(value, path=()):
    """The path of every key of every object and every item of every list in `value`."""
    items = value.items() if type(value) is dict else enumerate(value) if type(value) is list else ()
    for step, item in items:
        yield (*path, step)
        yield from _members(item, (*path, step))


_MEMBERS = list(_members(json.loads(catalog_mod._data_text("catalog.json"))))
_OBJECT_PATHS = {at for _, at_list in _OBJECTS.values() for at in at_list}


@settings(max_examples=60, deadline=None)
@given(member=st.sampled_from(_MEMBERS))
def test_any_removed_key_is_reported_missing_with_its_path(member):
    # every key of an object the loader reads but an optional `offset` is
    # required; removing one of the two printed constants leaves the other
    # without its pair. Removing anything else (a list item, a size's count)
    # loads, or is rejected in one line that names a JSON path
    raw = json.loads(catalog_mod._data_text("catalog.json"))
    *path, key = member
    del _walk(raw, path)[key]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(catalog_mod, "_data_text", lambda name: json.dumps(raw))
        try:
            catalog_mod.load_catalog()
            message = None
        except ValueError as exc:
            message = str(exc)
    if tuple(path) in _OBJECT_PATHS and key != "offset":
        assert message == f"catalog key {_json_path(path)}.{key} is missing"
    elif message is not None:
        assert re.fullmatch(r"(catalog (key|value) |unknown catalog key )\$\S*( .*)?", message), message


def test_count_sizes_are_free_form(monkeypatch, catalog):
    # a boundary check's counts map any set size of up to 9 digits
    def edit(raw):
        raw["families"][2]["boundary_checks"][1]["counts"]["17"] = 0

    assert _load_edited(monkeypatch, edit) == catalog


def test_recurrence_lag_consistency_is_surfaced(catalog):
    """Wherever the stated gf and recurrence agree, the gf-derived lags
    reproduce the stated ones (possibly after cancelling a common factor)."""
    consistent = {"triangular", "square", "meta-pentagonal"}
    for rec in catalog.families:
        univ = specialize_y1(rec.gf())
        lags_raw, _ = recurrence_from_gf(univ)
        lags_red, _ = recurrence_from_gf(reduce_fraction(univ))
        agrees = lags_raw == rec.recurrence.lags or lags_red == rec.recurrence.lags
        totals_agree = univ.series(30) == _recurrence_totals(rec, 30)
        if rec.family_id in consistent:
            assert agrees and totals_agree, rec.family_id
        else:
            assert not (agrees and totals_agree), rec.family_id


def _recurrence_totals(rec, n_max):
    from cactus_mis.series import recurrence_sequence

    return recurrence_sequence(rec.recurrence.lags, rec.recurrence.initial, n_max)


def test_default_depths_stay_enumerable(catalog):
    from cactus_mis.verify import DEFAULT_N_MAX

    for rec in catalog.families:
        assert graph_order(rec.family_id, DEFAULT_N_MAX[rec.family_id]) <= 45
