"""Verification engine: claim verdicts, witnesses, reports, determinism."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import last_n_within_walk
from cactus_mis import _pool, verify
from cactus_mis.graphs import build_graph, graph_order
from cactus_mis.oracle import DEFAULT_VERTEX_LIMIT, VertexLimitExceeded, enumerate_mis
from cactus_mis.series import series_in_x
from cactus_mis.verify import (
    DEFAULT_N_MAX,
    has_refuted,
    identity_max_n,
    report_to_json,
    report_to_table,
    run_verification,
    verify_asymptotics,
    verify_family,
    verify_transfer,
)


@pytest.fixture(scope="module")
def full_report(catalog):
    return run_verification(catalog, scope="all")


def test_triangular_family_all_confirmed(catalog):
    result = verify_family(catalog.family("triangular"), 6)
    totals = [e["recurrence_total"] for e in result["entries"]]
    assert totals == [1, 3, 5, 8, 13, 21, 34]
    assert all(e["status"] == "CONFIRMED" for e in result["entries"])
    assert result["gf_claim"]["verdict"] == "CONFIRMED"
    assert result["recurrence_claim"]["verdict"] == "CONFIRMED"


def test_meta_hexagonal_totals_confirmed_but_gf_refuted(catalog):
    result = verify_family(catalog.family("meta-hexagonal"), 3)
    assert [e["recurrence_total"] for e in result["entries"]] == [1, 5, 19, 64]
    assert result["recurrence_claim"]["verdict"] == "CONFIRMED"
    gf = result["gf_claim"]
    assert gf["verdict"] == "REFUTED"
    assert gf["first_mismatch"] == {"n": 1, "k": 3, "oracle": 2, "claimed": 1}


def test_square_powers_of_two(catalog):
    result = verify_family(catalog.family("square"), 4)
    assert [e["recurrence_total"] for e in result["entries"]] == [1, 2, 4, 8, 16]
    assert result["gf_claim"]["verdict"] == "CONFIRMED"


def test_family_resource_skip(catalog):
    result = verify_family(catalog.family("triangular"), 6, vertex_limit=9)
    statuses = [e["status"] for e in result["entries"]]
    assert statuses[:5] == ["CONFIRMED"] * 5  # up to n=4 (9 vertices)
    assert set(statuses[5:]) == {"SKIPPED"}
    assert all("reason" in e for e in result["entries"] if e["status"] == "SKIPPED")


def test_transfer_t1(catalog):
    result = verify_transfer(catalog.identity("t1"), n_max=6)
    assert result["verdict"] == "CONFIRMED"
    assert result["checked_n"] == [3, 4, 5, 6]


def test_transfer_sbar4_small(catalog):
    result = verify_transfer(catalog.identity("sbar4"), n_max=4)
    assert result["verdict"] == "CONFIRMED"


def test_transfer_phtil4_base_case(catalog):
    result = verify_transfer(catalog.identity("phtil4"), n_max=2)
    assert result["verdict"] == "CONFIRMED"
    assert result["checked_n"][0] == 1


def test_transfer_dbar4_stated_range_refuted(catalog):
    result = verify_transfer(catalog.identity("dbar4"), n_max=4)
    assert result["verdict"] == "CONFIRMED"  # on the structurally valid range
    note = result["stated_range_note"]
    assert note["stated_range_refuted"]
    assert note["witnesses"] == [{"n": 1, "k": 1, "lhs": 0, "rhs": 1}]


def test_stated_range_replayed_beyond_n_max(catalog):
    # the stated range (n = 1) lies before valid_from (2) and is replayed
    # whatever n_max is; the valid range is empty at n_max = 0
    result = verify_transfer(catalog.identity("dbar4"), n_max=0)
    assert result["checked_n"] == [] and result["verdict"] == "SKIPPED"
    assert result["stated_range_note"]["witnesses"] == [{"n": 1, "k": 1, "lhs": 0, "rhs": 1}]


def test_transfer_identity_caps(catalog):
    assert identity_max_n(catalog.identity("t1")) == 22
    assert identity_max_n(catalog.identity("qhtil44")) == 8


@pytest.mark.parametrize("cap", [0, 1, 4, 5, 12, 44, 45, 46, 100])
def test_identity_max_n_closed_form_matches_walk(catalog, monkeypatch, cap):
    monkeypatch.setattr(verify, "TRANSFER_ORDER_CAP", cap)
    assert len(catalog.identities) == 20
    for ident in catalog.identities:
        walk = last_n_within_walk(ident.family_id, ident.lhs_kind, cap)
        assert identity_max_n(ident) == max(ident.valid_from, walk), ident.identity_id


def test_asymptotics_confirmed_and_refuted(catalog):
    tri = verify_asymptotics(catalog.family("triangular"))
    assert tri["verdict"] == "CONFIRMED"
    assert tri["computed"]["rho"] == pytest.approx(0.618034, abs=1e-5)

    sq = verify_asymptotics(catalog.family("square"))
    assert sq["verdict"] == "SKIPPED"
    assert "2^n" in sq["note"]

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
    deep = verify_family(catalog.family("diamond"), 6)
    shallow = verify_family(catalog.family("diamond"), 2)
    if deep["gf_claim"]["verdict"] == "CONFIRMED":
        assert shallow["gf_claim"]["verdict"] == "CONFIRMED"
    assert shallow["recurrence_claim"]["verdict"] == "CONFIRMED"
    # and a refutation found deep does not contaminate the shallow range
    assert deep["gf_claim"]["first_mismatch"]["n"] > 2


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
    {"a": {1, 2}}, [b"bytes"], {"a": object()}, 1j,
], ids=["int-key", "none-key", "tuple-key", "nested-float-key", "set", "bytes", "object", "complex"])
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
    memos = []
    real_pool_counts = _pool.pool_counts

    def spy(*args, **kwargs):
        memos.append(real_pool_counts(*args, **kwargs))
        return memos[-1]

    monkeypatch.setattr(_pool, "pool_counts", spy)
    pooled = run_verification(catalog, scope=scope, family="ortho-hexagonal",
                              n_max_override=150, workers=2)
    [memo] = memos
    assert memo
    for f, kind, n in memo:
        assert graph_order(f, n, kind) <= DEFAULT_VERTEX_LIMIT
    serial = run_verification(catalog, scope=scope, family="ortho-hexagonal",
                              n_max_override=150, workers=1)
    assert report_to_json(pooled) == report_to_json(serial)


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
    # the pool's task list is exactly the set of graphs the checks count
    plans = []
    counted = set()
    real_collect, real_lookup = verify._collect_tasks, verify.oracle_distribution

    def collect(*args):
        plans.append(real_collect(*args))
        return plans[-1]

    def lookup(family_id, kind, n, *args):
        dist = real_lookup(family_id, kind, n, *args)  # a refused graph raises here
        counted.add((family_id, kind, n))
        return dist

    monkeypatch.setattr(verify, "_collect_tasks", collect)
    monkeypatch.setattr(_pool, "pool_counts", lambda tasks, limit, workers: {})  # count serially
    monkeypatch.setattr(verify, "oracle_distribution", lookup)
    run_verification(catalog, workers=2, **kwargs)
    [plan] = plans
    assert counted and set(plan) == counted


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


@pytest.mark.parametrize("fail, error", [
    (_raise_memory_error, MemoryError),
    (_raise_unpicklable, ChildProcessError),
    (_exit_silently, ChildProcessError),
], ids=["memory-error", "unpicklable", "silent-exit"])
def test_failed_child_fails_the_pooled_run(catalog, monkeypatch, fail, error):
    # a child's error is raised in the parent once every child is reaped; an
    # error the child cannot send, or no reply at all, is an error too and
    # never an empty memo
    monkeypatch.setattr(_pool, "oracle_distribution", fail)
    with pytest.raises(error):
        run_verification(catalog, scope="identities", workers=2)
    _assert_no_child_left()


def test_failed_child_ends_the_command_in_one_error_line(monkeypatch, capsys):
    # a child that sends nothing back fails the command with one error line
    # and exit 1, not a traceback, and no report is written
    from cactus_mis import cli

    monkeypatch.setattr(_pool, "oracle_distribution", _exit_silently)
    assert cli.main(["verify", "--scope", "all", "--workers", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: pool child ") and err.endswith(" after sending 0 bytes\n")
    assert err.count("\n") == 1
    _assert_no_child_left()


def test_pooled_run_leaves_no_child(catalog):
    run_verification(catalog, scope="identities", workers=2)
    _assert_no_child_left()


def test_failed_fork_reaps_the_children_started(catalog, monkeypatch):
    real_fork, forks = os.fork, []

    def second_fork_fails():
        if forks:
            raise OSError("fork refused")
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", second_fork_fails)
    with pytest.raises(OSError, match="fork refused"):
        run_verification(catalog, scope="identities", workers=2)
    _assert_no_child_left()


def test_children_capped_at_cpu_count(catalog, monkeypatch):
    # --workers bounds the children by the CPUs there are, not only by the
    # keys: with one CPU, 8 workers fork one child
    real_fork, children = os.fork, []

    def counting_fork():
        pid = real_fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(os, "fork", counting_fork)
    pooled = report_to_json(run_verification(catalog, scope="identities", workers=8))
    assert len(children) == 1
    assert pooled == report_to_json(run_verification(catalog, scope="identities"))


def test_pool_without_fork_counts_in_process(catalog, monkeypatch, parent_counts):
    monkeypatch.delattr(os, "fork")
    pooled = report_to_json(run_verification(catalog, scope="identities", workers=2))
    assert parent_counts
    assert pooled == report_to_json(run_verification(catalog, scope="identities"))


def test_pooled_run_loads_no_process_pool_machinery():
    code = ("import sys; from cactus_mis import verify\n"
            "verify.run_verification(scope='identities', workers=2)\n"
            "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("workers", [1, 2])
def test_vertex_guard_holds_on_cache_hits(catalog, monkeypatch, workers):
    # a cache warmed under the default guard must not let a lower guard pass
    cold = report_to_json(run_verification(catalog, scope="family", family="triangular",
                                           vertex_limit=9, workers=workers))
    run_verification(catalog, scope="family", family="triangular", workers=workers)
    with pytest.raises(VertexLimitExceeded):
        verify.oracle_distribution("triangular", "family", 5, vertex_limit=9)
    warm = report_to_json(run_verification(catalog, scope="family", family="triangular",
                                           vertex_limit=9, workers=workers))
    assert warm == cold and '"SKIPPED"' in warm


@pytest.mark.parametrize("workers, parent_calls", [(1, 243), (2, 0)])
def test_each_run_counts_afresh(catalog, parent_counts, workers, parent_calls):
    # the memo belongs to one run: a second run in the same process counts
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


def test_sweep_work_of_a_full_run(catalog, sweeps):
    # the figures the oracle module docstring gives for `verify --scope all`:
    # sweeps, layers swept (vertices past each shared prefix), state visits
    # and the widest layer; 5,592 layers without the trail
    run_verification(catalog, scope="all")
    assert len(sweeps) == 243
    assert sum(call.vertex_count for call in sweeps) == 5592
    assert sum(call.layers for call in sweeps) == 1815
    assert sum(call.visits for call in sweeps) == 7832
    assert max(call.widest for call in sweeps) == 11


def test_sweep_work_of_each_pool_share(catalog, monkeypatch, sweeps):
    # with 2 children, each counts every other key of the `--scope all` plan
    # from a trail of its own and still resumes most sweeps: 1,038 and 1,090
    # layers, where counting the keys with no trail sweeps 5,592
    plans = []
    monkeypatch.setattr(_pool, "pool_counts", lambda tasks, limit, workers: plans.append(tasks) or {})
    run_verification(catalog, scope="all", workers=2)
    [plan] = plans
    work = []
    for share in (plan[0::2], plan[1::2]):
        sweeps.clear()
        _pool.count_share(share, DEFAULT_VERTEX_LIMIT)
        assert len(sweeps) == len(share) and sweeps[0].started_empty
        work.append((sum(call.layers for call in sweeps), sum(call.visits for call in sweeps)))
    assert len(plan) == 243
    assert work == [(1038, 4541), (1090, 4696)]


def test_import_leaves_process_pool_unloaded():
    # only a pooled verify run needs the pool module, no run needs the
    # standard process-pool machinery, and no start-up path needs dataclasses
    # (with inspect) or fractions (with decimal)
    unloaded = ("cactus_mis._pool", "concurrent.futures.process", "multiprocessing",
                "dataclasses", "inspect", "fractions", "decimal")
    code = ("import sys, cactus_mis, cactus_mis.cli; cactus_mis.load_catalog(); "
            f"print(sorted(m for m in {unloaded!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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
