"""Catalog integrity: parseability, invariants, and agreement with the oracle."""

import json
import re
from importlib import resources

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cactus_mis import catalog as catalog_mod
from cactus_mis.catalog import claim_anchor_universe
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


def test_claim_anchor_universe(catalog):
    anchors = claim_anchor_universe(catalog)
    assert len(anchors) == 44
    assert "thm:2.9" in anchors  # square's asymptotics slot, reported as skipped


def test_initial_values(catalog):
    assert catalog.family("triangular").recurrence.initial == (1, 3, 5)
    assert catalog.family("meta-hexagonal").recurrence.initial == (1, 5, 19, 64, 221, 765)
    assert catalog.family("para-hexagonal").recurrence.lags == (5, -4, 1)
    for rec in catalog.families:
        r = rec.recurrence
        assert len(r.initial) >= len(r.lags)
        assert len(r.initial) >= r.valid_from
        assert r.initial[0] == 1  # empty-graph convention


def test_asymptotic_claims(catalog):
    assert catalog.family("square").asymptotic is None
    claim = catalog.family("triangular").asymptotic
    assert (claim.rho_printed, claim.constant_printed) == ("0.618", "1.1708")
    assert claim.rho_tolerance == pytest.approx(0.0005)
    assert claim.constant_tolerance == pytest.approx(0.00005)
    for rec in catalog.families:
        if rec.asymptotic is not None:
            assert 0.0 < rec.asymptotic.rho < 1.0


def test_gf_candidates(catalog):
    for rec in catalog.families:
        ids = [c.candidate_id for c in rec.gf_candidates]
        assert ids[0] == "statement"
        # para-hexagonal carries the conflicting restated version as well
        assert len(ids) == (2 if rec.family_id == "para-hexagonal" else 1)
        with pytest.raises(KeyError):
            rec.gf("bogus")


@pytest.fixture(scope="module")
def baseline():
    """The committed verification report; the catalog itself carries no verdicts."""
    text = resources.files("cactus_mis").joinpath("data/baseline_report.json").read_text(encoding="utf-8")
    return json.loads(text)


def _refuted(baseline, claim_id):
    return baseline["claims"].get(claim_id, {}).get("verdict") == "REFUTED"


def test_every_boundary_check_against_oracle(catalog, baseline):
    """Stated check values the baseline does not refute must match enumeration
    exactly; refuted ones must genuinely disagree (that is what the verdict records)."""
    for rec in catalog.families:
        for check in rec.boundary_checks:
            actual = enumerate_mis(build_graph(rec.family_id, check.n, check.kind))
            if _refuted(baseline, check.check_id):
                assert actual != check.claimed, check.check_id
            else:
                assert actual == check.claimed, check.check_id


def test_disputed_flags_populated_from_baseline(catalog, baseline):
    check_ids = {c.check_id for rec in catalog.families for c in rec.boundary_checks}
    disputed = {cid for cid in check_ids if _refuted(baseline, cid)}
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
    [ident] = [i for i in raw["transfer_identities"] if i["id"] == ident_id]
    return ident


@pytest.mark.parametrize("ident_id, n_shift", [("dbar4", 2), ("t1", 4)])
def test_identity_reaching_a_negative_block_count_is_rejected(monkeypatch, ident_id, n_shift):
    # dbar4 is replayed from its stated n = 1, t1 from n = 3
    def edit(raw):
        _raw_identity(raw, ident_id)["rhs"][0]["n_shift"] = n_shift

    with pytest.raises(ValueError, match=f"^identity {ident_id} reaches block count -1 at n = "):
        _load_edited(monkeypatch, edit)


def _square_check(raw, check_id):
    [fam] = [f for f in raw["families"] if f["id"] == "square"]
    [check] = [c for c in fam["boundary_checks"] if c["id"] == check_id]
    return check


@pytest.mark.parametrize("edit, message", [
    (lambda raw: _raw_identity(raw, "s1").update(lhs="bogus"),
     "identity s1: unknown graph kind 'bogus'; expected one of ('family', 'bar', 'tilde')"),
    (lambda raw: _raw_identity(raw, "s1").update(family="heptagonal"),
     "identity s1: unknown family 'heptagonal'; known: "),
    (lambda raw: _raw_identity(raw, "s1")["rhs"][1].update(kind="tilde"),
     "identity s1: no tilde auxiliary graph for family 'square'"),
    (lambda raw: _square_check(raw, "check:sbar:0").update(kind="tilde"),
     "boundary check check:sbar:0: no tilde auxiliary graph for family 'square'"),
], ids=["unknown-lhs-kind", "unknown-family", "missing-term-gadget", "missing-check-gadget"])
def test_catalog_naming_a_missing_graph_is_rejected(monkeypatch, edit, message):
    # rejected at load time, not mid-way through a verify run
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        _load_edited(monkeypatch, edit)


# pentagonal (families[3]) states an asymptotic claim; para-hexagonal
# (families[6]) states two GF candidates
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
], ids=["top", "family", "gf-candidate", "univariate-gf", "recurrence", "asymptotic",
        "boundary-check", "identity", "rhs-term"])
def test_unknown_catalog_key_is_rejected_with_its_path(monkeypatch, where, key, path):
    # a misspelt optional field would otherwise be a claim nobody checks
    with pytest.raises(ValueError, match="^" + re.escape(f"unknown catalog key {path}.{key}") + "$"):
        _load_edited(monkeypatch, lambda raw: where(raw).update({key: 0}))


# every number the loader reads: a recurrence's lags, initial values and
# valid_from, a candidate's offset, a check's n and counts, and an identity's
# range and term fields
@pytest.mark.parametrize("path, value", [
    (("families", 0, "recurrence", "lags", 0), 1.0),
    (("families", 0, "recurrence", "lags", 1), True),
    (("families", 0, "recurrence", "initial", 1), 3.5),
    (("families", 0, "recurrence", "initial", 1), "3"),
    (("families", 0, "recurrence", "initial", 1), True),
    (("families", 0, "recurrence", "valid_from"), 2.5),
    (("families", 0, "recurrence", "valid_from"), None),
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
        "valid_from-float", "valid_from-null", "offset-float", "offset-string", "check-n-bool",
        "check-count-float", "identity-valid_from-bool", "identity-stated_from-string",
        "term-mult-float", "term-n_shift-float", "term-k_shift-float"])
def test_non_integer_catalog_value_is_rejected_with_its_path(monkeypatch, path, value):
    # a float would be truncated or printed as one (`8.0`), a string or a
    # boolean coerced: each is refused at load time instead
    def edit(raw):
        _walk(raw, path[:-1])[path[-1]] = value

    json_path = "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
    message = f"catalog value {json_path} is not an integer: {json.dumps(value)}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        _load_edited(monkeypatch, edit)


def test_recurrence_list_that_is_not_a_list_is_rejected(monkeypatch):
    def edit(raw):
        raw["families"][0]["recurrence"]["lags"] = "11"

    with pytest.raises(ValueError, match=re.escape('catalog value $.families[0].recurrence.lags is not a list: "11"')):
        _load_edited(monkeypatch, edit)


def _catalog_objects():
    """{kind: (keys the loader reads, paths of that kind's objects)} over the
    committed catalog; `_schema` and the `counts` maps are free-form, so not
    among them."""
    raw = json.loads(catalog_mod._data_text("catalog.json"))
    fams = list(enumerate(raw["families"]))
    idents = [("transfer_identities", i) for i in range(len(raw["transfer_identities"]))]
    return {
        "top": (catalog_mod._TOP_KEYS, [()]),
        "family": (catalog_mod._FAMILY_KEYS, [("families", i) for i, _ in fams]),
        "candidate": (catalog_mod._CANDIDATE_KEYS, [("families", i, "gf_candidates", j)
                                                    for i, f in fams
                                                    for j in range(len(f["gf_candidates"]))]),
        "univariate": (catalog_mod._UNIVARIATE_KEYS, [("families", i, "univariate_gf") for i, _ in fams]),
        "recurrence": (catalog_mod._RECURRENCE_KEYS, [("families", i, "recurrence") for i, _ in fams]),
        "asymptotic": (catalog_mod._ASYMPTOTIC_KEYS, [("families", i, "asymptotic") for i, f in fams
                                                      if f.get("asymptotic") is not None]),
        "check": (catalog_mod._CHECK_KEYS, [("families", i, "boundary_checks", j) for i, f in fams
                                            for j in range(len(f["boundary_checks"]))]),
        "identity": (catalog_mod._IDENTITY_KEYS, idents),
        "term": (catalog_mod._TERM_KEYS, [(*at, "rhs", j) for at in idents
                                          for j in range(len(_walk(raw, at)["rhs"]))]),
    }


def _walk(raw, path):
    for step in path:
        raw = raw[step]
    return raw


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
    json_path = "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(catalog_mod, "_data_text", lambda name: json.dumps(raw))
        with pytest.raises(ValueError, match="^" + re.escape(f"unknown catalog key {json_path}.{key}") + "$"):
            catalog_mod.load_catalog()


def test_schema_and_count_sizes_are_free_form(monkeypatch, catalog):
    # `_schema` is prose, and a boundary check's counts map any set size
    def edit(raw):
        raw["_schema"]["families[].note"] = "more prose"
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
