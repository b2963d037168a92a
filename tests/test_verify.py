"""Verification engine: claim verdicts, witnesses, reports, determinism."""

import ast
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import last_n_within_walk
from cactus_mis import _pool, asymptotics, cli, graphs, verify
from cactus_mis import catalog as catalog_mod
from cactus_mis.catalog import FamilyRecord
from cactus_mis.graphs import build_graph, graph_order
from cactus_mis.oracle import DEFAULT_VERTEX_LIMIT, SizeDistribution, VertexLimitExceeded, enumerate_mis
from cactus_mis.series import series_in_x
from cactus_mis.verify import (
    DEFAULT_N_MAX,
    has_refuted,
    report_to_json,
    report_to_table,
    run_verification,
    verify_asymptotics,
    verify_family,
)


def _identity(catalog, identity_id):
    """The catalog's transfer identity named `identity_id`."""
    return next(ident for ident in catalog.identities if ident.identity_id == identity_id)


def _identity_run(catalog, identity_id, n_max):
    """An identity's claim and its stated-range note (None if it has none),
    from a run of the identities of its family to `n_max`."""
    ident = _identity(catalog, identity_id)
    report = run_verification(catalog, scope="identities", family=ident.family_id, n_max_override=n_max)
    return report["claims"][ident.anchor], report["identity_range_notes"].get(identity_id)


def _family_run(catalog, family_id, n_max, vertex_limit=DEFAULT_VERTEX_LIMIT):
    """A family's entries, GF claim and recurrence claim, from a run of
    scope "family" to `n_max`."""
    rec = catalog.family(family_id)
    report = run_verification(catalog, scope="family", family=family_id, n_max_override=n_max,
                              vertex_limit=vertex_limit)
    claims = report["claims"]
    return report["families"][family_id]["entries"], claims[rec.gf_anchor], claims[rec.recurrence.anchor]


@pytest.fixture(scope="module")
def full_report(catalog):
    return run_verification(catalog, scope="all")


def test_triangular_family_all_confirmed(catalog):
    entries, gf, recurrence = _family_run(catalog, "triangular", 6)
    totals = [e["recurrence_total"] for e in entries]
    assert totals == [1, 3, 5, 8, 13, 21, 34]
    assert all(e["status"] == "CONFIRMED" for e in entries)
    assert gf["verdict"] == "CONFIRMED"
    assert recurrence["verdict"] == "CONFIRMED"


def test_meta_hexagonal_totals_confirmed_but_gf_refuted(catalog):
    entries, gf, recurrence = _family_run(catalog, "meta-hexagonal", 3)
    assert [e["recurrence_total"] for e in entries] == [1, 5, 19, 64]
    assert recurrence["verdict"] == "CONFIRMED"
    assert gf["verdict"] == "REFUTED"
    assert gf["first_mismatch"] == {"n": 1, "k": 3, "oracle": 2, "claimed": 1}


def test_square_powers_of_two(catalog):
    entries, gf, _ = _family_run(catalog, "square", 4)
    assert [e["recurrence_total"] for e in entries] == [1, 2, 4, 8, 16]
    assert gf["verdict"] == "CONFIRMED"


def test_family_resource_skip(catalog):
    entries, _, _ = _family_run(catalog, "triangular", 6, vertex_limit=9)
    statuses = [e["status"] for e in entries]
    assert statuses[:5] == ["CONFIRMED"] * 5  # up to n=4 (9 vertices)
    assert set(statuses[5:]) == {"SKIPPED"}
    assert all("reason" in e for e in entries if e["status"] == "SKIPPED")


def _triangular_table(family_3):
    """Every count the checks of triangular read to n = 3, by hand: the
    family chain at n = 3 counts `family_3`."""
    counts = {("family", 0): {0: 1}, ("family", 1): {1: 3}, ("family", 2): {1: 1, 2: 4},
              ("family", 3): family_3, ("bar", 0): {1: 2}, ("bar", 1): {1: 1, 2: 2}}
    return {("triangular", kind, n): SizeDistribution(c) for (kind, n), c in counts.items()}


def test_family_judged_from_a_literal_table(catalog, parent_counts):
    # the checks judge from the table alone: one changed count refutes the
    # statement with exactly that witness, and nothing is counted
    rec = catalog.family("triangular")
    algebra = verify._family_algebra(rec, 3, DEFAULT_VERTEX_LIMIT)
    _, good = verify_family(rec, 3, DEFAULT_VERTEX_LIMIT, _triangular_table({2: 4, 3: 4}), algebra)
    boundary = [check.anchor for check in rec.boundary_checks]
    assert set(good) == {rec.gf_anchor, rec.recurrence.anchor, *boundary}
    assert good[rec.gf_anchor]["verdict"] == "CONFIRMED"
    assert {good[anchor]["verdict"] for anchor in boundary} == {"CONFIRMED"}
    entries, bad = verify_family(rec, 3, DEFAULT_VERTEX_LIMIT, _triangular_table({2: 4, 3: 5}), algebra)
    assert rec.gf_anchor == "thm:2.1"
    assert bad[rec.gf_anchor]["verdict"] == "REFUTED"
    assert bad[rec.gf_anchor]["first_mismatch"] == {"n": 3, "k": 3, "oracle": 5, "claimed": 4}
    assert bad[rec.recurrence.anchor]["first_mismatch"] == {"n": 3, "oracle_total": 9, "claimed_total": 8}
    assert [e["status"] for e in entries] == ["CONFIRMED"] * 3 + ["REFUTED"]
    assert parent_counts == []


def test_table_missing_a_plan_key_is_an_internal_error(catalog, parent_counts):
    # a graph within the guard that the table lacks means the plan and the
    # checks disagree: an error that is neither a usage error nor a count
    rec = catalog.family("triangular")
    plan = verify._collect_tasks([rec], [], {"triangular": 3}, DEFAULT_VERTEX_LIMIT, None)
    table = verify.count_plan(plan, DEFAULT_VERTEX_LIMIT)
    assert set(table) == set(_triangular_table({}))
    del table[("triangular", "family", 2)]
    algebra = verify._family_algebra(rec, 3, DEFAULT_VERTEX_LIMIT)
    parent_counts.clear()
    with pytest.raises(RuntimeError, match="not counted") as caught:
        verify_family(rec, 3, DEFAULT_VERTEX_LIMIT, table, algebra)
    assert not isinstance(caught.value, (ValueError, KeyError))
    assert parent_counts == []


def _enumerate_mis_reads(tree) -> int:
    """Reads of the name `enumerate_mis` in `tree`, as a name or an attribute."""
    return sum("enumerate_mis" in (getattr(node, "id", None), getattr(node, "attr", None))
               for node in ast.walk(tree))


def test_only_count_plan_counts():
    # outside the oracle itself, the package reaches `enumerate_mis` in one
    # place, `verify.count_plan`: no check and no command counts on its own
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(verify.__file__).parent.glob("*.py") if path.name != "oracle.py"}
    count_plan = next(node for node in ast.walk(trees["verify.py"])
                      if isinstance(node, ast.FunctionDef) and node.name == "count_plan")
    assert _enumerate_mis_reads(count_plan) == 1
    reads = {name: _enumerate_mis_reads(tree) for name, tree in trees.items()}
    assert {name: n for name, n in reads.items() if n} == {"verify.py": 1}


@pytest.mark.parametrize("scope", ["all", "identities"])
@pytest.mark.parametrize("family", ["Triangular", " triangular "])
def test_family_id_is_exact(catalog, scope, family):
    # one spelling: a family id that is not the catalog's fails the run,
    # rather than drop that family's identities from it
    with pytest.raises(ValueError, match="unknown family .*; known:"):
        run_verification(catalog, scope=scope, family=family)


def test_unknown_family_is_one_error(catalog):
    # every layer that resolves a family id raises the builders' one error,
    # which names the known ids
    errors = set()
    for call in (lambda: catalog.family("heptagonal"),
                 lambda: run_verification(catalog, scope="family", family="heptagonal"),
                 lambda: build_graph("heptagonal", 1),
                 lambda: graph_order("heptagonal", 1)):
        with pytest.raises(ValueError) as caught:
            call()
        errors.add((type(caught.value), str(caught.value)))
    assert errors == {(ValueError, f"unknown family 'heptagonal'; known: {', '.join(graphs.FAMILY_IDS)}")}


@pytest.mark.parametrize("kwargs, message", [
    ({"vertex_limit": -1}, "vertex_limit must be >= 0, got -1"),
    ({"workers": 0}, "workers must be >= 1, got 0"),
    ({"workers": -5}, "workers must be >= 1, got -5"),
], ids=["vertex_limit=-1", "workers=0", "workers=-5"])
def test_run_refuses_what_the_cli_refuses(catalog, parent_counts, kwargs, message):
    # a negative guard used to skip every claim, and no worker at all ran
    # serially; the CLI exits 2 on both, and the library raises before it counts
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_verification(catalog, scope="family", family="triangular", **kwargs)
    assert parent_counts == []


def test_full_run_formats_no_label(catalog, monkeypatch, full_report):
    # vertex labels are text for `build`'s output only: a full run never asks
    # for them, and the graphs it counts carry none
    def no_labels(*args):
        raise AssertionError(f"labels formatted for {args}")

    built = []

    def build(*args):
        built.append(build_graph(*args))
        return built[-1]

    monkeypatch.setattr(graphs, "graph_labels", no_labels)
    monkeypatch.setattr(verify, "build_graph", build)
    assert run_verification(catalog, scope="all") == full_report
    assert len(built) == 243 and sum(g.vertex_count for g in built) == 5592
    assert not any(hasattr(g, "labels") for g in built)


def test_transfer_t1(catalog):
    result, _ = _identity_run(catalog, "t1", 6)
    assert result["verdict"] == "CONFIRMED"
    assert result["checked_n"] == [3, 4, 5, 6]


def test_transfer_sbar4_small(catalog):
    result, _ = _identity_run(catalog, "sbar4", 4)
    assert result["verdict"] == "CONFIRMED"


def test_transfer_phtil4_base_case(catalog):
    result, _ = _identity_run(catalog, "phtil4", 2)
    assert result["verdict"] == "CONFIRMED"
    assert result["checked_n"][0] == 1


def test_transfer_dbar4_stated_range_refuted(catalog):
    result, note = _identity_run(catalog, "dbar4", 4)
    assert result["verdict"] == "CONFIRMED"  # on the structurally valid range
    assert note["stated_range_refuted"]
    assert note["witnesses"] == [{"n": 1, "k": 1, "lhs": 0, "rhs": 1}]


def test_stated_range_replayed_beyond_n_max(catalog):
    # the stated range (n = 1) lies before valid_from (2) and is replayed
    # whatever n_max is; the valid range is empty at n_max = 0
    result, note = _identity_run(catalog, "dbar4", 0)
    assert result["checked_n"] == [] and result["verdict"] == "SKIPPED"
    assert note["witnesses"] == [{"n": 1, "k": 1, "lhs": 0, "rhs": 1}]


def test_transfer_identity_caps(catalog):
    assert verify._replay_ns(_identity(catalog, "t1"), None)[-1] == 22
    assert verify._replay_ns(_identity(catalog, "qhtil44"), None)[-1] == 8


@pytest.mark.parametrize("n_max", [None, 0, 1, 4])
def test_replay_starts_at_first_n(catalog, n_max):
    # dbar4 is stated from n = 1 and valid from 2: the plan and the judge
    # replay it from first_n, whatever the depth
    ident = _identity(catalog, "dbar4")
    assert (ident.stated_from, ident.valid_from, ident.first_n) == (1, 2, 1)
    assert verify._replay_ns(ident, n_max)[0] == ident.first_n
    plan = verify._collect_tasks([], [ident], {}, DEFAULT_VERTEX_LIMIT, n_max)
    assert plan[0] == (ident.family_id, ident.lhs_kind, ident.first_n)


@pytest.mark.parametrize("cap", [0, 1, 4, 5, 12, 44, 45, 46, 100])
def test_identity_max_n_closed_form_matches_walk(catalog, monkeypatch, cap):
    monkeypatch.setattr(verify, "TRANSFER_ORDER_CAP", cap)
    assert len(catalog.identities) == 20
    for ident in catalog.identities:
        walk = last_n_within_walk(ident.family_id, ident.lhs_kind, cap)
        assert verify._replay_ns(ident, None)[-1] == max(ident.valid_from, walk), ident.identity_id


def test_asymptotics_confirmed_and_refuted(catalog):
    tri = verify_asymptotics(catalog.family("triangular"))
    assert tri["verdict"] == "CONFIRMED"
    assert tri["computed"]["rho"] == pytest.approx(0.618034, abs=1e-5)

    sq = verify_asymptotics(catalog.family("square"))
    assert sq["verdict"] == "SKIPPED"
    assert "2^n" in sq["note"]
    # the note is the catalog's, not the verifier's
    sq_rec = catalog.family("square")
    edited = FamilyRecord(sq_rec.spec, sq_rec.gf_candidates, sq_rec.univariate_anchor, sq_rec.univariate_gf,
                          sq_rec.recurrence, sq_rec.asymptotic_anchor, sq_rec.asymptotic, "edited",
                          sq_rec.boundary_checks)
    assert verify_asymptotics(edited)["note"] == "edited"

    dia = verify_asymptotics(catalog.family("diamond"))
    assert dia["verdict"] == "REFUTED"
    assert dia["rho_matches"] and not dia["constant_matches"]
    assert dia["witness"]["printed_constant"] == "0.6213"
    # the printed value is reproducible from the stated closed form even
    # though it misdescribes the verified sequence
    assert dia["reproduction_from_stated_gf"]["constant_matches_printed"]

    para = verify_asymptotics(catalog.family("para-hexagonal"))
    assert para["verdict"] == "REFUTED"
    assert not para["reproduction_from_stated_gf"]["constant_matches_printed"]


@pytest.mark.parametrize("family_id, path, edit, message", [
    # each recurrence's denominator becomes 1 - 2x + x^2, a double root at x = 1
    ("diamond", ("recurrence", "lags", 2), lambda lag: lag - 1, "suspected multiple root"),
    ("meta-pentagonal", ("recurrence", "lags", 0), lambda lag: lag - 1, "suspected multiple root"),
    ("meta-pentagonal", ("univariate_gf", "den"), lambda den: den + " + x^2", "no sign change in (0, 1]"),
    # a negative leading constant, which no count sequence has
    ("triangular", ("recurrence", "initial", 2), lambda a: a - 7, "is not positive"),
], ids=["diamond-lags", "meta-pentagonal-lags", "meta-pentagonal-den", "triangular-initial"])
def test_failed_root_finding_on_a_stated_claim_keeps_the_report(catalog, full_report, monkeypatch, capsys,
                                                                 family_id, path, edit, message):
    # a wrong stated object is evidence, not a crash: the command still
    # writes every verdict; a failure on the stated recurrence makes the
    # asymptotics claim SKIPPED with the reason, one on the stated GF goes
    # into the reproduction and leaves the verdict as it was
    raw = json.loads(catalog_mod._data_text("catalog.json"))
    node = next(fam for fam in raw["families"] if fam["id"] == family_id)
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = edit(node[path[-1]])
    monkeypatch.setattr(catalog_mod, "_data_text", lambda name: json.dumps(raw))
    assert cli.main(["verify", "--scope", "all"]) == 1
    claims = json.loads(capsys.readouterr().out)["claims"]
    shipped = json.loads(report_to_json(full_report))["claims"]
    assert claims.keys() == shipped.keys()
    rec = catalog.family(family_id)
    claim = claims[rec.asymptotic_anchor]
    if path[0] == "recurrence":
        assert claim == {"kind": "asymptotics", "family": family_id, "verdict": "SKIPPED",
                         "reason": claim["reason"]}
        assert claim["reason"].startswith(f"no estimate from the stated recurrence {rec.recurrence.anchor}: ")
        assert message in claim["reason"]
    else:
        # nothing else reads the univariate GF
        assert message in claim["reproduction_from_stated_gf"]["error"]
        assert claims == {**shipped, rec.asymptotic_anchor: {
            **shipped[rec.asymptotic_anchor], "reproduction_from_stated_gf": claim["reproduction_from_stated_gf"]}}


def test_full_report_completeness(full_report):
    claims = full_report["claims"]
    thm_anchors = sorted(a for a in claims if a.startswith("thm:"))
    assert len(thm_anchors) == 24
    eq_anchors = sorted(a for a in claims if a.startswith("eq:"))
    assert len(eq_anchors) == 20
    for anchor in thm_anchors + eq_anchors:
        assert claims[anchor]["verdict"] in ("CONFIRMED", "REFUTED", "SKIPPED")


def test_full_report_expected_verdicts(full_report):
    claims = full_report["claims"]
    # stated bivariate generating functions
    assert claims["thm:2.1"]["verdict"] == "CONFIRMED"
    assert claims["thm:2.7"]["verdict"] == "CONFIRMED"
    assert claims["thm:2.13"]["verdict"] == "CONFIRMED"
    assert claims["thm:2.4"]["first_mismatch"] == {"n": 3, "k": 4, "oracle": 4, "claimed": 3}
    assert claims["thm:2.10"]["first_mismatch"] == {"n": 3, "k": 6, "oracle": 9, "claimed": 0}
    assert claims["thm:2.16"]["first_mismatch"] == {"n": 1, "k": 3, "oracle": 2, "claimed": 1}
    assert claims["thm:2.22"]["first_mismatch"] == {"n": 2, "k": 4, "oracle": 10, "claimed": 12}
    # the restated para-hexagonal gf is the one that survives
    g_claim = claims["thm:2.19"]
    assert g_claim["verdict"] == "REFUTED"
    assert g_claim["candidates"]["proof"]["verdict"] == "CONFIRMED"
    assert g_claim["resolution"] == "proof"
    # every stated recurrence is confirmed by enumeration
    for anchor in ("thm:2.2", "thm:2.5", "thm:2.8", "thm:2.11",
                   "thm:2.14", "thm:2.17", "thm:2.20", "thm:2.23"):
        assert claims[anchor]["verdict"] == "CONFIRMED", anchor
    # all twenty transfer identities hold on their valid ranges
    for anchor, claim in claims.items():
        if anchor.startswith("eq:"):
            assert claim["verdict"] == "CONFIRMED", anchor
    # asymptotics: square skipped, two confirmed, five refuted
    assert claims["thm:2.9"]["verdict"] == "SKIPPED"
    assert claims["thm:2.3"]["verdict"] == "CONFIRMED"
    assert claims["thm:2.15"]["verdict"] == "CONFIRMED"
    for anchor in ("thm:2.6", "thm:2.12", "thm:2.18", "thm:2.21", "thm:2.24"):
        assert claims[anchor]["verdict"] == "REFUTED", anchor
    assert has_refuted(full_report)


def test_refuted_witnesses_replay(full_report, catalog):
    """Soundness: every first-mismatch witness reproduces independently."""
    for anchor, claim in full_report["claims"].items():
        if claim["verdict"] != "REFUTED" or claim["kind"] not in ("bivariate-gf", "boundary"):
            continue
        witness = claim["first_mismatch"]
        record = catalog.family(claim["family"])
        if claim["kind"] == "bivariate-gf":
            oracle = enumerate_mis(build_graph(claim["family"], witness["n"]))
            coeff = series_in_x(record.gf(), witness["n"])[witness["n"]]
            assert oracle[witness["k"]] == witness["oracle"]
            assert coeff[witness["k"]] == witness["claimed"]
        else:
            oracle = enumerate_mis(build_graph(claim["family"], claim["n"], claim["graph_kind"]))
            assert oracle[witness["k"]] == witness["oracle"]
            check = next(c for rec in catalog.families for c in rec.boundary_checks
                         if c.anchor == anchor)
            assert check.claimed[witness["k"]] == witness["claimed"]


def test_monotone_confidence(catalog):
    """A claim confirmed at a larger depth is confirmed at every smaller one."""
    _, deep_gf, _ = _family_run(catalog, "diamond", 6)
    _, shallow_gf, shallow_recurrence = _family_run(catalog, "diamond", 2)
    if deep_gf["verdict"] == "CONFIRMED":
        assert shallow_gf["verdict"] == "CONFIRMED"
    assert shallow_recurrence["verdict"] == "CONFIRMED"
    # and a refutation found deep does not contaminate the shallow range
    assert deep_gf["first_mismatch"]["n"] > 2


def test_scoped_runs(catalog):
    fam = run_verification(catalog, scope="family", family="triangular")
    assert not has_refuted(fam)
    asymp = run_verification(catalog, scope="asymptotics")
    assert has_refuted(asymp)
    assert len([a for a in asymp["claims"] if a.startswith("thm:")]) == 8
    with pytest.raises(ValueError):
        run_verification(catalog, scope="family")
    with pytest.raises(ValueError):
        run_verification(catalog, scope="everything")


def _declared_anchors(catalog, scope, family=None):
    """The anchors the catalog gives the claims a run of `scope` adjudicates."""
    records = [catalog.family(family)] if family else catalog.families
    anchors = set()
    for rec in records:
        if scope in ("all", "family"):
            anchors |= {rec.gf_candidates[0].anchor, rec.recurrence.anchor}
            anchors |= {check.anchor for check in rec.boundary_checks}
        if scope in ("all", "asymptotics"):
            anchors.add(rec.asymptotic_anchor)
    if scope in ("all", "identities"):
        anchors |= {i.anchor for i in catalog.identities if family in (None, i.family_id)}
    return anchors


def test_full_run_holds_every_declared_anchor(catalog, full_report):
    assert set(full_report["claims"]) == _declared_anchors(catalog, "all")
    assert set(full_report["families"]) == set(graphs.FAMILY_IDS)


# a scoped run checks its claims as the full run does, keyed by the same
# anchors: nothing checks it against a whole-catalog list at run time
@pytest.mark.parametrize("scope, family",
                         [(scope, fam) for fam in graphs.FAMILY_IDS for scope in ("all", "family")]
                         + [("identities", None), ("asymptotics", None)])
def test_scoped_run_agrees_with_the_full_run(catalog, full_report, scope, family):
    report = run_verification(catalog, scope=scope, family=family)
    assert set(report["claims"]) == _declared_anchors(catalog, scope, family)
    assert report["claims"] == {a: full_report["claims"][a] for a in report["claims"]}
    families = [family] if scope in ("all", "family") else []
    assert report["families"] == {f: full_report["families"][f] for f in families}
    idents = {i.identity_id for i in catalog.identities
              if scope in ("all", "identities") and family in (None, i.family_id)}
    assert report["identity_range_notes"] == {i: note for i, note in full_report["identity_range_notes"].items()
                                              if i in idents}


@pytest.mark.parametrize("n_max", [0, 3])
def test_asymptotics_scope_refuses_a_depth(catalog, n_max):
    # the asymptotic claims expand no series to a depth, so n_max would be
    # ignored; the negative-value check still comes first
    with pytest.raises(ValueError, match="^scope 'asymptotics' has no depth: n_max does not apply$"):
        run_verification(catalog, scope="asymptotics", n_max_override=n_max)
    with pytest.raises(ValueError, match="^n_max must be >= 0, got -1$"):
        run_verification(catalog, scope="asymptotics", n_max_override=-1)


def test_report_serialization_deterministic(catalog):
    a = run_verification(catalog, scope="family", family="square")
    b = run_verification(catalog, scope="family", family="square")
    assert report_to_json(a) == report_to_json(b)
    json.loads(report_to_json(a))  # valid JSON
    table = report_to_table(a)
    assert "thm:2.7" in table and "CONFIRMED" in table


_json_scalars = (st.none() | st.booleans()
                 | st.integers() | st.integers(min_value=2**64, max_value=2**200)
                 | st.integers(max_value=-2**64, min_value=-2**200)
                 | st.floats() | st.sampled_from([-0.0, 1e-300, float("nan"), float("inf"), float("-inf")])
                 | st.text())
_json_keys = st.text() | st.sampled_from(["", "\x00\x1f\n\t\"\\", "é€", "😀\u2028"])
_json_values = st.recursive(
    _json_scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(_json_keys, inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(_json_values)
def test_report_to_json_matches_json_dumps(value):
    # str keys and strings with non-ASCII and control characters, empty
    # containers, ints past 2**64, -0.0, NaN and the infinities included
    assert report_to_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [
    {1: "int key"}, {"a": {None: 0}}, {(1, 2): 0}, {"a": [1, {2.5: 0}]},
    {"a": {1, 2}}, [b"bytes"], {"a": object()}, 1j, {"spec": graphs.FAMILIES["triangular"]},
], ids=["int-key", "none-key", "tuple-key", "nested-float-key", "set", "bytes", "object", "complex", "record"])
def test_report_to_json_rejects_non_str_keys_and_non_json_values(value):
    with pytest.raises(TypeError):
        report_to_json(value)


@pytest.fixture
def parent_counts(monkeypatch):
    """One entry per `verify.enumerate_mis` call made in this process, not in pool children."""
    parent = os.getpid()
    calls = []
    real_enumerate = verify.enumerate_mis

    def counting_enumerate(*args, **kwargs):
        if os.getpid() == parent:
            calls.append(1)
        return real_enumerate(*args, **kwargs)

    monkeypatch.setattr(verify, "enumerate_mis", counting_enumerate)
    return calls


def test_workers_match_serial(catalog, parent_counts):
    # each run counts afresh, so the pooled one really counts in the children
    for kwargs in ({"scope": "family", "family": "triangular", "n_max_override": 6},
                   {"scope": "all"}, {"scope": "identities"}):
        serial = report_to_json(run_verification(catalog, workers=1, **kwargs))
        assert parent_counts, kwargs
        parent_counts.clear()
        pooled = report_to_json(run_verification(catalog, workers=2, **kwargs))
        assert parent_counts == [], kwargs  # every graph was counted in a child
        assert pooled == serial, kwargs


@pytest.mark.parametrize("scope", ["family", "identities"])
def test_pooled_run_counts_only_graphs_within_vertex_limit(catalog, monkeypatch, scope):
    # at n_max 150 the ortho-hexagonal chains reach 751 vertices; the pool
    # must skip every graph the lookups refuse, as the serial run does
    tables = []
    real_count_while = _pool.count_while

    def spy(*args, **kwargs):
        table, done = real_count_while(*args, **kwargs)
        tables.append(table)
        return table, done

    monkeypatch.setattr(_pool, "count_while", spy)
    pooled = run_verification(catalog, scope=scope, family="ortho-hexagonal",
                              n_max_override=150, workers=2)
    [table] = tables
    assert table
    for f, kind, n in table:
        assert graph_order(f, n, kind) <= DEFAULT_VERTEX_LIMIT
    serial = run_verification(catalog, scope=scope, family="ortho-hexagonal",
                              n_max_override=150, workers=1)
    assert report_to_json(pooled) == report_to_json(serial)


@pytest.fixture
def forked(monkeypatch):
    """The pid of each child `os.fork` starts from this process."""
    real_fork, children = os.fork, []

    def counting_fork():
        pid = real_fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return children


@pytest.mark.parametrize("kwargs", [
    {"scope": "all"},
    {"scope": "family", "family": "diamond"},
    {"scope": "identities"},
    {"scope": "all", "n_max_override": 0},
    {"scope": "all", "n_max_override": 150},
    {"scope": "identities", "vertex_limit": 9},
    {"scope": "all", "family": "diamond", "n_max_override": 1},
], ids=["all", "family", "identities", "all-n0", "all-n150", "identities-limit9",
        "all-diamond-n1"])
def test_pool_plan_matches_serial_lookups(catalog, monkeypatch, kwargs):
    # the plan, which a pooled run's child counts as well, is exactly what
    # the checks read: once `count_plan` returns, every lookup hits the table
    # or is refused by the guard before any build, and every key is read
    tables, built, read = [], [], set()
    real_count, real_build, real_lookup = verify.count_plan, verify.build_graph, verify.oracle_distribution

    def count(*args):
        tables.append(real_count(*args))
        return tables[-1]

    def build(*args):
        if tables:
            built.append(args)
        return real_build(*args)

    def lookup(family_id, kind, n, *args):
        dist = real_lookup(family_id, kind, n, *args)  # a refused graph raises here
        read.add((family_id, kind, n))
        return dist

    monkeypatch.setattr(verify, "count_plan", count)
    monkeypatch.setattr(verify, "build_graph", build)
    monkeypatch.setattr(verify, "oracle_distribution", lookup)
    run_verification(catalog, workers=1, **kwargs)
    [table] = tables
    assert built == []
    assert read and set(table) == read


@pytest.mark.parametrize("workers, fork, kwargs", [
    (1, True, {"scope": "all"}),
    (2, False, {"scope": "all"}),
    (2, True, {"scope": "family", "family": "diamond", "n_max_override": 1}),
], ids=["workers=1", "workers=2-without-fork", "workers=2-plan-of-3"])
def test_unforked_run_counts_in_one_count_plan_call(catalog, monkeypatch, forked, workers, fork, kwargs):
    # a run that forks no child counts its whole plan in one `count_plan`
    # call in this process, and writes the same report as the serial run
    serial = report_to_json(run_verification(catalog, **kwargs))
    if not fork:
        monkeypatch.delattr(os, "fork")
    calls = []
    real_count = verify.count_plan

    def count(*args):
        calls.append(args)
        return real_count(*args)

    monkeypatch.setattr(verify, "count_plan", count)
    assert report_to_json(run_verification(catalog, workers=workers, **kwargs)) == serial
    assert len(calls) == 1 and forked == []


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("cannot pickle this error")


def _raise_memory_error(*args):
    raise MemoryError


def _raise_unpicklable(*args):
    raise _Unpicklable


def _exit_silently(*args):
    os._exit(0)


def _noted(path, fault):
    """`fault`, which first appends the pid of the process it runs in to `path`."""
    def noted(*args):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        fault(*args)

    return noted


def _pids(path) -> list[int]:
    return [int(pid) for pid in path.read_text().split()] if path.exists() else []


@pytest.mark.parametrize("fail, error", [
    (_raise_memory_error, MemoryError),
    (_raise_unpicklable, ChildProcessError),
    (_exit_silently, ChildProcessError),
], ids=["memory-error", "unpicklable", "silent-exit"])
def test_failed_child_fails_the_pooled_run(catalog, monkeypatch, forked, tmp_path, fail, error):
    # a child's error is raised in the parent once every child is reaped; an
    # error the child cannot send, or no reply at all, is an error too and
    # never an empty table
    ran = tmp_path / "ran"
    monkeypatch.setattr(verify, "enumerate_mis", _noted(ran, fail))
    with pytest.raises(error):
        run_verification(catalog, scope="identities", workers=2)
    _assert_no_child_left()
    assert _pids(ran) == forked and len(forked) == 1  # the fault ran, in the child


def test_failed_child_ends_the_command_in_one_error_line(monkeypatch, capsys, forked, tmp_path):
    # a child that sends nothing back fails the command with one error line
    # and exit 1, not a traceback, and no report is written
    from cactus_mis import cli

    ran = tmp_path / "ran"
    monkeypatch.setattr(verify, "enumerate_mis", _noted(ran, _exit_silently))
    assert cli.main(["verify", "--scope", "all", "--workers", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: pool child ") and err.endswith(" after sending 0 bytes\n")
    assert err.count("\n") == 1
    _assert_no_child_left()
    assert _pids(ran) == forked and len(forked) == 1  # the fault ran, in the child


def test_failed_parent_work_reaps_every_child(catalog, monkeypatch, forked):
    # the parent's own work runs while the child counts; when it raises, the
    # child is still read and reaped before the parent's error leaves (not a
    # ValueError, which a failed root finding raises and the claim records)
    def fail(*args):
        raise RuntimeError("parent failed")

    monkeypatch.setattr(asymptotics, "family_estimate", fail)
    with pytest.raises(RuntimeError, match="parent failed"):
        run_verification(catalog, workers=2)
    assert len(forked) == 1
    _assert_no_child_left()


def test_pooled_run_leaves_no_child(catalog):
    run_verification(catalog, scope="identities", workers=2)
    _assert_no_child_left()


def test_failed_fork_leaves_no_child(catalog, monkeypatch):
    # a refused fork fails the run before the parent starts its own work
    estimates = []

    def refuse_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", refuse_fork)
    monkeypatch.setattr(asymptotics, "family_estimate", lambda *args: estimates.append(args))
    with pytest.raises(OSError, match="fork refused"):
        run_verification(catalog, workers=2)
    assert estimates == []
    _assert_no_child_left()


@pytest.mark.parametrize("workers", [2, 8], ids=["workers=2", "workers=8"])
def test_pooled_run_forks_one_child(catalog, monkeypatch, forked, parent_counts, workers):
    # the parent is the second worker: whatever --workers and the CPUs, one
    # child counts every graph and the parent counts none
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    pooled = report_to_json(run_verification(catalog, scope="identities", workers=workers))
    assert len(forked) == 1
    assert parent_counts == []
    assert pooled == report_to_json(run_verification(catalog, scope="identities"))


def test_pool_without_fork_counts_in_process(catalog, monkeypatch, parent_counts):
    monkeypatch.delattr(os, "fork")
    pooled = report_to_json(run_verification(catalog, scope="identities", workers=2))
    assert parent_counts
    assert pooled == report_to_json(run_verification(catalog, scope="identities"))


@pytest.mark.parametrize("workers", [1, 2])
def test_vertex_guard_holds_on_cache_hits(catalog, monkeypatch, workers):
    # a cache warmed under the default guard must not let a lower guard pass
    cold = report_to_json(run_verification(catalog, scope="family", family="triangular",
                                           vertex_limit=9, workers=workers))
    run_verification(catalog, scope="family", family="triangular", workers=workers)
    with pytest.raises(VertexLimitExceeded):
        verify.oracle_distribution("triangular", "family", 5, 9, {})
    warm = report_to_json(run_verification(catalog, scope="family", family="triangular",
                                           vertex_limit=9, workers=workers))
    assert warm == cold and '"SKIPPED"' in warm


@pytest.mark.parametrize("workers, parent_calls", [(1, 243), (2, 0)])
def test_each_run_counts_afresh(catalog, parent_counts, workers, parent_calls):
    # the table belongs to one run: a second run in the same process counts
    # every graph again (serially in this process, pooled in the children)
    for _ in range(2):
        parent_counts.clear()
        run_verification(catalog, scope="all", workers=workers)
        assert len(parent_counts) == parent_calls


class Sweep:
    """One `verify.enumerate_mis` call: its trail, and the work the trail saved."""

    def __init__(self, g, trail):
        self.trail = trail
        self.started_empty = trail == []
        self.start = 0
        stop = min(len(trail), g.vertex_count)
        while self.start < stop and trail[self.start][0] == g.masks[self.start]:
            self.start += 1
        self.vertex_count = g.vertex_count

    def finish(self):
        # the states each swept vertex read: the layer before it, which is
        # the start layer's one state before vertex 0
        layers = [1] + [len(layer) for _, layer in self.trail]
        self.layers = self.vertex_count - self.start
        self.visits = sum(layers[self.start:self.vertex_count])
        self.widest = max(layers)


@pytest.fixture
def sweeps(monkeypatch):
    """One `Sweep` per `verify.enumerate_mis` call made in this process."""
    calls = []
    real_enumerate = verify.enumerate_mis

    def recording_enumerate(g, vertex_limit, trail):
        calls.append(Sweep(g, trail))
        dist = real_enumerate(g, vertex_limit, trail)
        calls[-1].finish()
        return dist

    monkeypatch.setattr(verify, "enumerate_mis", recording_enumerate)
    return calls


def test_each_run_owns_one_trail(catalog, sweeps):
    # every sweep of a run resumes from that run's own trail; a second run
    # starts from an empty one, and the module keeps none
    trails = []
    for _ in range(2):
        sweeps.clear()
        run_verification(catalog, scope="family", family="diamond")
        assert sweeps and sweeps[0].started_empty
        assert all(call.trail is sweeps[0].trail for call in sweeps)
        trails.append(sweeps[0].trail)
    assert trails[0] is not trails[1]
    assert not any(value is trail for trail in trails for value in vars(verify).values())


def test_count_plan_calls_share_no_trail(sweeps):
    # each call makes its own trail: the second call's first sweep starts
    # from an empty one, not from where the first call's last sweep ended
    keys = [("triangular", "family", n) for n in range(1, 4)]
    trails = []
    for _ in range(2):
        sweeps.clear()
        verify.count_plan(keys, DEFAULT_VERTEX_LIMIT)
        assert len(sweeps) == 3 and sweeps[0].started_empty
        assert all(call.trail is sweeps[0].trail for call in sweeps)
        trails.append(sweeps[0].trail)
    assert trails[0] is not trails[1] and trails[0]


def test_sweep_work_of_a_full_run(catalog, sweeps):
    # the figures the oracle module docstring gives for `verify --scope all`:
    # sweeps, layers swept (vertices past each shared prefix), state visits
    # and the widest layer, counting the plan in trie order from one trail;
    # 5,592 layers without the trail, and 1,814 in plan order
    run_verification(catalog, scope="all")
    assert len(sweeps) == 243
    assert sum(call.vertex_count for call in sweeps) == 5592
    assert sum(call.layers for call in sweeps) == 1256
    assert sum(call.visits for call in sweeps) == 5321
    assert max(call.widest for call in sweeps) == 11


@pytest.fixture(scope="module")
def full_plan(catalog):
    """The `--scope all` plan, and each of its graphs counted without a trail."""
    plan = verify._collect_tasks(list(catalog.families), list(catalog.identities), DEFAULT_N_MAX,
                                 DEFAULT_VERTEX_LIMIT, None)
    return plan, {key: enumerate_mis(build_graph(key[0], key[2], key[1])) for key in plan}


@pytest.mark.parametrize("seed", range(8))
def test_count_plan_sweeps_each_mask_prefix_once_in_any_order(full_plan, sweeps, seed):
    # whatever the order of the keys (the whole plan shuffled, or a random
    # part of it), the table is that of trail-free sweeps, and the layers
    # swept are the distinct prefixes of the graphs' mask tuples: the nodes
    # of their trie, each of which one trail must sweep at least once
    plan, untrailed = full_plan
    rng = random.Random(seed)
    keys = rng.sample(plan, len(plan) if seed < 4 else rng.randrange(1, len(plan)))
    assert verify.count_plan(keys, DEFAULT_VERTEX_LIMIT) == {key: untrailed[key] for key in keys}
    masks = [build_graph(fam, n, kind).masks for fam, kind, n in keys]
    prefixes = {m[:v] for m in masks for v in range(1, len(m) + 1)}
    assert len(sweeps) == len(keys)
    assert sum(call.layers for call in sweeps) == len(prefixes)
    if len(keys) == len(plan):
        assert len(prefixes) == 1256


# The child prints the modules its statement loaded, and exits with `rc`.
# Whatever the interpreter's start-up loaded before the statement (a site
# hook's imports, say) is not the package's doing, and is not judged.
_LOADED_BY = """
import sys
before, rc = set(sys.modules), 0
{statement}
print(sorted(set(sys.modules) - before))
sys.exit(rc)
"""

_POOL_MACHINERY = ("concurrent.futures.process", "multiprocessing")


@pytest.mark.parametrize("statement, rc, package, unloaded", [
    # the package namespace re-exports nothing, so importing it or one module
    # compiles only what that module itself imports
    ("import cactus_mis", 0, [], ()),
    ("import cactus_mis.graphs", 0, ["cactus_mis._frozen", "cactus_mis.graphs"], ()),
    # only a pooled verify run needs the pool module, no run needs the
    # standard process-pool machinery, and no start-up path needs dataclasses
    # (with inspect) or fractions (with decimal)
    ("import cactus_mis.cli; from cactus_mis.catalog import load_catalog; load_catalog()", 0, None,
     ("cactus_mis._pool", *_POOL_MACHINERY, "dataclasses", "inspect", "fractions", "decimal")),
    # --workers defaults to 1: a whole verify run never loads the pool
    ("import contextlib, io; from cactus_mis import cli\n"
     "with contextlib.redirect_stdout(io.StringIO()):\n"
     "    rc = cli.main(['verify', '--scope', 'all'])", 1, None, ("cactus_mis._pool", *_POOL_MACHINERY)),
    # children that succeed reply in marshal, so the parent needs no pickle
    ("from cactus_mis import verify; verify.run_verification(scope='identities', workers=2)", 0, None,
     (*_POOL_MACHINERY, "pickle")),
], ids=["package", "graphs", "cli-and-catalog", "default-verify", "pooled-verify"])
def test_statement_loads_only_what_it_needs(statement, rc, package, unloaded):
    code = _LOADED_BY.format(statement=statement)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == rc, out.stderr
    loaded = ast.literal_eval(out.stdout)
    if package is not None:
        assert [m for m in loaded if m.startswith("cactus_mis.")] == package
    assert [m for m in unloaded if m in loaded] == []


def test_baseline_report_matches_committed(catalog):
    from importlib import resources

    committed = resources.files("cactus_mis").joinpath("data/baseline_report.json").read_text()
    fresh = report_to_json(run_verification(catalog, scope="all"))
    assert fresh == committed


def test_default_depths(catalog):
    assert DEFAULT_N_MAX == {
        "triangular": 15, "diamond": 12, "square": 12, "pentagonal": 10,
        "meta-pentagonal": 10, "meta-hexagonal": 8, "para-hexagonal": 8,
        "ortho-hexagonal": 8,
    }
