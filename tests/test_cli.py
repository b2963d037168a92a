"""Command-line behavior: formats, exit codes, determinism."""

import contextlib
import decimal
import errno
import io
import json
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import parse_dot
from cactus_mis import catalog as catalog_mod
from cactus_mis import cli
from cactus_mis import emit as emit_mod
from cactus_mis.cli import main
from cactus_mis.catalog import FamilyRecord, RecurrenceClaim, load_catalog
from cactus_mis.graphs import FAMILY_IDS
from cactus_mis.series import recurrence_sequence
from cactus_mis.verify import run_verification


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_build_dot(capsys):
    code, out, err = run_cli(["build", "--family", "triangular", "--n", "2", "--format", "dot"], capsys)
    assert code == 0
    vertex_count, edges, labels = parse_dot(out)
    assert vertex_count == 5 and len(edges) == 6
    assert labels[0] == "b1_p1"


def test_build_json_gadget(capsys):
    code, out, _ = run_cli(
        ["build", "--family", "meta-pentagonal", "--aux", "tilde", "--n", "0", "--format", "json"],
        capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["vertex_count"] == 4 and len(payload["edges"]) == 3
    degrees = {}
    for u, v in payload["edges"]:
        degrees[u] = degrees.get(u, 0) + 1
        degrees[v] = degrees.get(v, 0) + 1
    assert sorted(degrees.values()) == [1, 1, 2, 2]  # a path on four vertices


def test_build_edges(capsys):
    code, out, _ = run_cli(["build", "--family", "diamond", "--n", "3", "--format", "edges"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 12
    assert len({v for line in lines for v in line.split()}) == 10


def test_census_total(capsys):
    code, out, _ = run_cli(
        ["census", "--family", "ortho-hexagonal", "--n", "2", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["total"] == 19


def test_census_csv(capsys):
    code, out, _ = run_cli(["census", "--family", "pentagonal", "--n", "2", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "family,n,k,count",
        "pentagonal,2,3,4",
        "pentagonal,2,4,9",
        "pentagonal,2,total,13",
    ]


def test_census_square_table(capsys):
    code, out, _ = run_cli(["census", "--family", "square", "--n", "1"], capsys)
    assert code == 0
    assert "2  2" in out and "total  2" in out


def test_census_vertex_limit_exit_code(capsys):
    code, out, err = run_cli(["census", "--family", "triangular", "--n", "40"], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: graph has 81 vertices, above the enumeration limit of 64; "
                   "raise the limit explicitly to proceed\n")
    code, out, _ = run_cli(
        ["--vertex-limit", "51", "census", "--family", "triangular", "--n", "25",
         "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["total"] == 317811


def test_census_missing_gadget_is_an_error(capsys):
    # square has no tilde gadget; the error names it instead of a bare KeyError
    code, out, err = run_cli(["census", "--family", "square", "--n", "3", "--aux", "tilde"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: no tilde auxiliary graph for family 'square'\n"


def test_vertex_limit_env(capsys, monkeypatch):
    monkeypatch.setenv("CACTUS_MIS_VERTEX_LIMIT", "5")
    code, _, err = run_cli(["census", "--family", "square", "--n", "2"], capsys)
    assert code == 1 and "limit" in err


@pytest.mark.parametrize("argv, env, message", [
    (["--vertex-limit", "-5", "census", "--family", "square", "--n", "2"], None,
     "--vertex-limit must be >= 0, got -5"),
    (["verify", "--scope", "identities"], "-1", "CACTUS_MIS_VERTEX_LIMIT must be >= 0, got -1"),
], ids=["flag", "env"])
def test_negative_vertex_limit_is_a_usage_error(capsys, monkeypatch, argv, env, message):
    if env is not None:
        monkeypatch.setenv("CACTUS_MIS_VERTEX_LIMIT", env)
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, env", [
    (["census", "--family", "triangular", "--n", "2"], "abc"),
    (["verify", "--scope", "identities"], "6.5"),
], ids=["word", "float"])
def test_non_integer_vertex_limit_is_a_usage_error(capsys, monkeypatch, argv, env):
    # the message names the variable, as the negative case does
    monkeypatch.setenv("CACTUS_MIS_VERTEX_LIMIT", env)
    code, out, err = run_cli(argv, capsys)
    message = f"CACTUS_MIS_VERTEX_LIMIT must be an integer, got {env!r}"
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_series_totals(capsys):
    code, out, _ = run_cli(["series", "--family", "diamond", "--n-max", "4"], capsys)
    assert code == 0
    assert [line.split(": ")[1] for line in out.strip().splitlines()] == ["1", "2", "4", "7", "12"]


def test_series_bivariate(capsys):
    code, out, _ = run_cli(
        ["series", "--family", "triangular", "--n-max", "2", "--bivariate"], capsys)
    assert code == 0
    assert out.splitlines() == ["0: 1", "1: 3y", "2: y + 4y^2"]


@pytest.mark.parametrize("extra", [[], ["--bivariate"]])
def test_series_negative_n_max_is_an_error(extra, tmp_path, capsys):
    code, out, err = run_cli(["series", "--family", "triangular", "--n-max", "-1", *extra], capsys)
    assert (code, out) == (2, "")
    assert "n_max must be >= 0" in err
    # the expansion fails before the output file is opened
    target = tmp_path / "series.txt"
    code, out, err = run_cli(
        ["series", "--family", "triangular", "--n-max", "-1", *extra, "--output", str(target)], capsys)
    assert (code, out) == (2, "")
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ["series", "--family", "meta-hexagonal", "--bivariate", "--n-max", "40"],
    ["series", "--family", "para-hexagonal", "--n-max", "300"],
    ["estimate", "--family", "diamond", "--n", "60"],
], ids=["bivariate", "totals", "estimate"])
def test_stdout_and_output_file_are_byte_identical(argv, tmp_path, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    target = tmp_path / "out.txt"
    code, file_out, err = run_cli([*argv, "--output", str(target)], capsys)
    assert (code, file_out, err) == (0, "", "")
    assert target.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("argv", [
    ["build", "--family", "ortho-hexagonal", "--n", "2000", "--format", "json"],
    ["census", "--family", "para-hexagonal", "--n", "8", "--format", "json"],
    ["estimate", "--family", "pentagonal", "--n", "400"],
], ids=["build", "census", "estimate"])
def test_json_output_is_what_json_dumps_writes(argv, capsys):
    # every JSON output goes through one writer; these are larger than the
    # golden grid's (10,001 vertices, a 41-vertex census, a 195-digit count)
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", [
    ["build", "--family", "triangular", "--n", "2"],
    ["series", "--family", "triangular", "--n-max", "3"],
    ["verify", "--scope", "family", "--family", "square", "--n-max", "2"],
], ids=["build", "series", "verify"])
@pytest.mark.parametrize("where, reason", [
    (lambda tmp: tmp / "missing" / "out.txt", "No such file or directory"),
    (lambda tmp: tmp, "Is a directory"),
    (lambda tmp: Path("/dev/full"), "No space left on device"),
], ids=["missing-directory", "a-directory", "full-device"])
def test_unwritable_output_is_one_error_line(argv, where, reason, tmp_path, capsys):
    # an --output that cannot be opened, or whose write fails, ends the
    # command with one line and exit 1, not a traceback
    target = where(tmp_path)
    if reason == "No space left on device" and not target.exists():
        pytest.skip("no /dev/full on this platform")
    code, out, err = run_cli([*argv, "--output", str(target)], capsys)
    assert (code, out, err) == (1, "", f"error: cannot write {target}: {reason}\n")


def test_refused_fork_is_one_error_line(monkeypatch, tmp_path, capsys):
    # a pooled verify whose fork the system refuses ends in one line and exit
    # 1: no report is written and no child is left
    def refuse_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", refuse_fork)
    target = tmp_path / "report.json"
    for output in ([], ["--output", str(target)]):
        code, out, err = run_cli(["verify", "--scope", "all", "--workers", "2", *output], capsys)
        assert (code, out, err) == (1, "", "error: fork refused\n")
    assert not target.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("kind", ["directory", "missing"])
def test_unreadable_catalog_is_one_error_line(kind, monkeypatch, tmp_path, capsys):
    # a catalog file that cannot be read is an OSError, so exit 1, not the
    # exit 2 of a catalog that reads but does not parse; the line names the path
    if kind == "directory":
        (tmp_path / "catalog.json").mkdir()
    errnum = errno.EISDIR if kind == "directory" else errno.ENOENT
    monkeypatch.setattr(catalog_mod, "_DATA_DIR", str(tmp_path))
    code, out, err = run_cli(["series", "--family", "triangular", "--n-max", "3"], capsys)
    reason = f"[Errno {errnum}] {os.strerror(errnum)}: {str(tmp_path / 'catalog.json')!r}"
    assert (code, out, err) == (1, "", f"error: {reason}\n")


def test_build_edges_builds_no_labels(monkeypatch, capsys):
    # an edge list prints no vertex label, so `build` makes none for it
    def refuse(*args):
        raise AssertionError("labels built for an edge list")

    for module in (cli, emit_mod):  # wherever `build` could look the name up
        monkeypatch.setattr(module, "graph_labels", refuse, raising=False)
    code, out, err = run_cli(["build", "--family", "triangular", "--n", "1", "--format", "edges"], capsys)
    assert (code, out, err) == (0, "0 1\n0 2\n1 2\n", "")


def test_closed_pipe_stops_quietly():
    # 2.7 MB of rows cannot all fit in the pipe: the writes after the reader
    # leaves fail, and the command stops with exit 1 and no traceback
    proc = subprocess.Popen(
        [sys.executable, "-m", "cactus_mis.cli", "series", "--family", "para-hexagonal", "--n-max", "3000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(5) == b"0: 1\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.parametrize("argv, ratio", [
    (["series", "--family", "meta-hexagonal", "--bivariate", "--n-max", "200"], 2.0),
    (["series", "--family", "para-hexagonal", "--n-max", "3000"], 1.0),
], ids=["bivariate", "totals"])
def test_series_output_is_written_row_by_row(argv, ratio, tmp_path):
    # the rows are written as they are formatted, never joined: the traced
    # peak, catalog and expansion included, stays below `ratio` times the
    # file (joining the text first peaked at 4.3x and 2.6x)
    target = tmp_path / "series.txt"
    tracemalloc.start()
    try:
        code = main([*argv, "--output", str(target)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < ratio * target.stat().st_size


def test_series_prints_counts_beyond_the_int_str_digit_cap(capsys):
    # a(7042) of para-hexagonal is the first count with more than 4300 digits,
    # CPython's default cap on int -> str; the command lifts it for itself only
    digits = sys.get_int_max_str_digits()
    code, out, err = run_cli(["series", "--family", "para-hexagonal", "--n-max", "7042"], capsys)
    assert (code, err) == (0, "")
    last = out.splitlines()[-1]
    assert last.startswith("7042: ") and len(last) == len("7042: ") + 4301
    assert sys.get_int_max_str_digits() == digits


def _series_text(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def _assert_int_rows(out, lags, initial, n_max):
    """`out` is the rows `series` prints from the int recurrence and int -> str;
    a mismatch names its first row (a diff of megabytes of text would not)."""
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        want = [f"{n}: {v}\n" for n, v in enumerate(recurrence_sequence(lags, initial, n_max))]
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)
    got = out.splitlines(keepends=True)
    bad = next((n for n, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert bad is None, f"row {bad}: {got[bad][:200]!r} != {want[bad][:200]!r}"
    assert len(got) == len(want)


_VALUES = st.one_of(st.integers(-9, 9), st.integers(-10 ** 40, 10 ** 40))


@settings(max_examples=150, deadline=None)
@given(lags=st.lists(_VALUES, max_size=5), initial=st.lists(_VALUES, max_size=7),
       n_max=st.integers(0, 40))
@example(lags=[0], initial=[-5], n_max=3)  # 0 * -5 is a negative Decimal zero
@example(lags=[1, 1], initial=[1, -1], n_max=3)  # a sum of nonzero terms that is 0
@example(lags=[], initial=[7, -8], n_max=4)
@example(lags=[2, 3], initial=[1, 2, 3, 4, 5], n_max=2)  # n_max below len(initial)
def test_series_rows_equal_the_int_rows(lags, initial, n_max):
    # the printed rows of a drawn recurrence, whatever its signs, zeros and
    # digit counts, are byte for byte the int path's
    record = load_catalog().family("triangular")
    rec = RecurrenceClaim(record.recurrence.anchor, tuple(lags), tuple(initial))
    edited = FamilyRecord(record.spec, record.gf_candidates, record.univariate_anchor, record.univariate_gf, rec,
                          record.asymptotic_anchor, record.asymptotic, record.asymptotic_note,
                          record.boundary_checks)
    fake = types.SimpleNamespace(family=lambda family_id: edited)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "load_catalog", lambda: fake)
        out = _series_text(["series", "--family", "triangular", "--n-max", str(n_max)])
    _assert_int_rows(out, lags, initial, n_max)


@pytest.mark.parametrize("family, n_max", [*((f, 3000) for f in FAMILY_IDS), ("para-hexagonal", 7100)])
def test_series_rows_of_the_catalog_equal_the_int_rows(family, n_max):
    # para-hexagonal at 7100 runs past CPython's 4300-digit int -> str cap
    rec = load_catalog().family(family).recurrence
    out = _series_text(["series", "--family", family, "--n-max", str(n_max)])
    _assert_int_rows(out, rec.lags, rec.initial, n_max)


def test_series_ignores_and_keeps_the_callers_decimal_context():
    # the command's exact arithmetic runs in a context of its own: a caller's
    # low precision changes no digit, and the caller's context (precision,
    # flags, traps) is as it was when the command returns
    argv = ["series", "--family", "ortho-hexagonal", "--n-max", "300"]
    plain = _series_text(argv)
    with decimal.localcontext() as ctx:
        ctx.prec = 5
        before = repr(ctx)
        assert _series_text(argv) == plain
        assert decimal.getcontext() is ctx and repr(ctx) == before


_UNDER_MEMORY_CAP = """
import resource, sys
cap = 512 << 20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from cactus_mis.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_deep_verify_finishes_under_a_memory_cap():
    # the guard admits para-hexagonal graphs only to n = 12, so no series is
    # expanded further; expanding all 7101 rows ran out of memory under 3 GB
    proc = subprocess.run(
        [sys.executable, "-c", _UNDER_MEMORY_CAP, "verify", "--scope", "family",
         "--family", "para-hexagonal", "--n-max", "7100", "--workers", "1"],
        capture_output=True, text=True)
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr
    # the report's totals run past 4300 digits: keep integers as text here
    report = json.loads(proc.stdout, parse_int=str)
    entries = report["families"]["para-hexagonal"]["entries"]
    assert len(entries) == 7101
    assert max(int(e["n"]) for e in entries if e["status"] != "SKIPPED") == 12


def test_out_of_memory_is_one_error_line():
    # the masks of a 2,000,001-vertex chain need about 250 GB
    proc = subprocess.run(
        [sys.executable, "-c", _UNDER_MEMORY_CAP, "build", "--family", "triangular",
         "--n", "2000000"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: out of memory in build\n"


def test_estimate(capsys):
    code, out, _ = run_cli(["estimate", "--family", "meta-pentagonal", "--n", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] == 13
    assert payload["estimate"] == pytest.approx(12.98, abs=0.01)
    assert payload["relative_error"] < 0.01


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_estimate_beyond_float_range_is_strict_json_null(capsys):
    code, out, _ = run_cli(["estimate", "--family", "triangular", "--n", "100000"], capsys)
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)  # no Infinity or NaN
    assert payload["estimate"] is None
    assert payload["rho"] == pytest.approx(0.618034, abs=1e-6)
    assert "exact" not in payload
    # para-hexagonal's estimate leaves float range from n = 498 while the
    # exact count is still printed: its relative error is null as well
    cases = [("para-hexagonal", n) for n in range(495, 501)]
    cases += [(fam, 500) for fam in FAMILY_IDS if fam != "para-hexagonal"]
    for fam, n in cases:
        code, out, _ = run_cli(["estimate", "--family", fam, "--n", str(n)], capsys)
        assert code == 0
        payload = json.loads(out, parse_constant=_reject_constant)
        assert payload["exact"] > 0
        beyond = fam == "para-hexagonal" and n >= 498
        assert (payload["estimate"] is None) is beyond, (fam, n)
        assert (payload["relative_error"] is None) is beyond, (fam, n)


def test_verify_family_exit_zero(capsys):
    code, out, _ = run_cli(
        ["verify", "--scope", "family", "--family", "triangular", "--workers", "1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["refuted"] == 0


@pytest.mark.parametrize("family", FAMILY_IDS)
@pytest.mark.parametrize("workers", ["1", "2"])
def test_verify_all_scope_for_one_family(workers, family, catalog, baseline, capsys):
    # a one-family `--scope all` report holds a verdict for each anchor the
    # catalog gives that family's claims, and for no other; each claim, entry
    # and identity note in it is the full baseline's, and it exits 1 where
    # one of those claims is refuted
    code, out, err = run_cli(["verify", "--scope", "all", "--family", family,
                              "--workers", workers], capsys)
    assert "Traceback" not in err
    rec = catalog.family(family)
    expected = {rec.gf_anchor, rec.recurrence.anchor, rec.asymptotic_anchor}
    expected.update(check.anchor for check in rec.boundary_checks)
    expected.update(i.anchor for i in catalog.identities if i.family_id == family)
    report = json.loads(out)
    assert set(report["claims"]) == expected
    assert set(report["families"]) == {family}
    bad = [(part, key) for part in ("claims", "families", "identity_range_notes")
           for key, value in report[part].items() if baseline[part].get(key) != value]
    assert bad == []
    refuted = any(baseline["claims"][anchor]["verdict"] == "REFUTED" for anchor in expected)
    assert code == (1 if refuted else 0), err


def test_verify_asymptotics_exit_one(capsys):
    code, out, _ = run_cli(["verify", "--scope", "asymptotics", "--format", "table"], capsys)
    assert code == 1  # refuted printed constants exist
    assert "REFUTED" in out and "CONFIRMED" in out


def test_verify_identities_with_depth_override(capsys):
    code, out, _ = run_cli(["verify", "--scope", "identities", "--n-max", "4"], capsys)
    assert code == 0  # every identity holds on its valid range
    report = json.loads(out)
    eq_claims = {a: c for a, c in report["claims"].items() if a.startswith("eq:")}
    assert len(eq_claims) == 20
    assert all(c["verdict"] == "CONFIRMED" for c in eq_claims.values())
    assert all(max(c["checked_n"]) <= 4 for c in eq_claims.values())


def test_verify_usage_errors(capsys):
    code, out, err = run_cli(["verify", "--scope", "family"], capsys)
    assert (code, out, err) == (2, "", "error: scope 'family' requires a family id\n")


@pytest.mark.parametrize("scope", ["all", "family", "identities", "asymptotics"])
def test_negative_n_max_is_a_usage_error(capsys, scope):
    family = ["--family", "triangular"] if scope == "family" else []
    code, out, err = run_cli(["verify", "--scope", scope, *family, "--n-max", "-1"], capsys)
    assert (code, out, err) == (2, "", "error: n_max must be >= 0, got -1\n")


def test_n_max_in_asymptotics_scope_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run_cli(
        ["verify", "--scope", "asymptotics", "--n-max", "3", "--output", str(target)], capsys)
    assert (code, out, err) == (2, "", "error: scope 'asymptotics' has no depth: n_max does not apply\n")
    assert not target.exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_is_a_usage_error(capsys, workers):
    code, out, err = run_cli(["verify", "--scope", "identities", "--workers", workers], capsys)
    assert (code, out, err) == (2, "", f"error: workers must be >= 1, got {workers}\n")


def test_negative_estimate_index_names_the_flag(capsys):
    code, out, err = run_cli(["estimate", "--family", "triangular", "--n", "-5"], capsys)
    assert (code, out, err) == (2, "", "error: --n must be >= 0, got -5\n")


@pytest.mark.parametrize("family_id, path, value, message", [
    ("diamond", ("recurrence", "lags", 2), 0, "derivative nearly vanishes at root 1.0; suspected multiple root"),
    ("triangular", ("recurrence", "initial", 2), -2, "is not positive, so C/rho^(n+1) estimates no count"),
], ids=["diamond-lags", "triangular-initial"])
def test_estimate_of_a_recurrence_with_no_usable_pole_exits_1(monkeypatch, capsys, family_id, path, value,
                                                              message):
    # a wrong claim in the data is not a usage error: exit 1, and one error
    # line that names the family; a bad --n is still a usage error
    raw = json.loads(catalog_mod._data_text("catalog.json"))
    node = next(fam for fam in raw["families"] if fam["id"] == family_id)
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    monkeypatch.setattr(catalog_mod, "_data_text", lambda name: json.dumps(raw))
    for n in ("10", "100000"):
        code, out, err = run_cli(["estimate", "--family", family_id, "--n", n], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: no estimate for {family_id} from its stated recurrence: ")
        assert err.endswith(message + "\n") and err.count("\n") == 1
    assert run_cli(["estimate", "--family", family_id, "--n", "-5"], capsys) == (
        2, "", "error: --n must be >= 0, got -5\n")


def _verify_out_of_memory_while_counting(tmp_path, workers: str):
    """`verify --scope all --workers <workers>` in a new interpreter whose
    oracle raises MemoryError, and the parent pid of each process the fault
    ran in."""
    ran = tmp_path / "ran"
    code = ("import os, sys; from cactus_mis import cli, verify\n"
            "def fail(*args):\n"
            "    with open(sys.argv[1], 'a') as fh:\n"
            "        fh.write(f'{os.getppid()}\\n')\n"
            "    raise MemoryError\n"
            "verify.enumerate_mis = fail\n"
            "sys.exit(cli.main(['verify', '--scope', 'all', '--workers', sys.argv[2]]))")
    out = subprocess.run([sys.executable, "-c", code, str(ran), workers], capture_output=True, text=True)
    return out, [int(pid) for pid in ran.read_text().split()]


def test_pooled_verify_whose_child_fails_prints_no_report(tmp_path):
    # the child's MemoryError fails the parent's command; the child leaves
    # through os._exit, so no process writes a report
    out, ran = _verify_out_of_memory_while_counting(tmp_path, "2")
    assert (out.returncode, out.stdout, out.stderr) == (1, "", "error: out of memory in verify\n")
    [parent] = ran
    assert parent != os.getpid()  # the fault ran once, in the command's child


def test_serial_verify_out_of_memory_while_counting_prints_no_report(tmp_path):
    out, ran = _verify_out_of_memory_while_counting(tmp_path, "1")
    assert (out.returncode, out.stdout, out.stderr) == (1, "", "error: out of memory in verify\n")
    [parent] = ran
    assert parent == os.getpid()  # the fault ran once, in the command's own process


@pytest.mark.parametrize("command", ["build", "census", "series", "estimate", "verify"])
def test_help_lists_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert "--family" in out or command == "verify"
    assert "usage:" in out


def test_unknown_flag_is_an_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--family", "square", "--n", "1", "--frobnicate"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --frobnicate" in capsys.readouterr().err


def test_reused_parser_leaks_no_option_between_calls(capsys):
    # the parser is built once per process: build it afresh here, then check
    # that a later call parses into its own defaults, not the last call's values
    cli._build_parser.cache_clear()
    argv = ["census", "--family", "square", "--n", "2", "--format", "json"]
    fresh = run_cli(argv, capsys)
    assert json.loads(fresh[1])["aux"] is None
    code, out, _ = run_cli([*argv, "--aux", "bar"], capsys)
    assert code == 0 and json.loads(out)["aux"] == "bar"
    assert run_cli(argv, capsys) == fresh


def test_usage_error_leaves_the_parser_usable(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["series", "--family", "heptagonal", "--n-max", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert run_cli(["series", "--family", "triangular", "--n-max", "3"], capsys) == (
        0, "0: 1\n1: 3\n2: 5\n3: 8\n", "")


def test_shared_catalog_survives_every_command(capsys):
    # verify and the benchmark's 24 algebra commands all read the one cached
    # catalog; none of them may change a dict inside it
    run_verification()
    for fam in FAMILY_IDS:
        for argv in (["series", "--family", fam, "--bivariate", "--n-max", "200"],
                     ["series", "--family", fam, "--n-max", "2000"],
                     ["estimate", "--family", fam, "--n", "400"]):
            assert main(argv) == 0
            capsys.readouterr()
    text = catalog_mod._data_text("catalog.json")
    assert catalog_mod.load_catalog() == catalog_mod._parse_catalog.__wrapped__(text)


def test_list_families(capsys):
    code, out, _ = run_cli(["list-families"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    mapping = dict(line.split() for line in lines)
    assert mapping["triangular"] == "T" and mapping["ortho-hexagonal"] == "Q"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "graph.json"
    code, out, _ = run_cli(
        ["build", "--family", "square", "--n", "1", "--format", "json", "--output", str(target)],
        capsys)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["vertex_count"] == 4


def test_byte_deterministic_outputs():
    args = [sys.executable, "-m", "cactus_mis.cli", "verify", "--scope", "asymptotics"]
    first = subprocess.run(args, capture_output=True, text=True)
    second = subprocess.run(args, capture_output=True, text=True)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 1
