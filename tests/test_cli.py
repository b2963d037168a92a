"""Command-line behavior: formats, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from cactus_mis.cli import main
from cactus_mis.emit import parse_dot


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
    code, _, err = run_cli(["census", "--family", "triangular", "--n", "40"], capsys)
    assert code == 1
    assert "limit" in err
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
def test_series_negative_n_max_is_an_error(extra, capsys):
    code, out, err = run_cli(["series", "--family", "triangular", "--n-max", "-1", *extra], capsys)
    assert (code, out) == (2, "")
    assert "n_max must be >= 0" in err


def test_estimate(capsys):
    code, out, _ = run_cli(["estimate", "--family", "meta-pentagonal", "--n", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] == 13
    assert payload["estimate"] == pytest.approx(12.98, abs=0.01)
    assert payload["relative_error"] < 0.01


def test_verify_family_exit_zero(capsys):
    code, out, _ = run_cli(
        ["verify", "--scope", "family", "--family", "triangular", "--workers", "1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["refuted"] == 0


@pytest.mark.parametrize("workers", ["1", "2"])
def test_verify_all_scope_for_one_family(workers, catalog):
    # the whole-catalog completeness check must not run on a one-family report
    proc = subprocess.run(
        [sys.executable, "-m", "cactus_mis.cli", "verify", "--scope", "all",
         "--family", "triangular", "--workers", workers],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    rec = catalog.family("triangular")
    expected = {rec.gf_anchor, rec.recurrence.anchor, rec.asymptotic.anchor}
    expected.update(check.anchor for check in rec.boundary_checks)
    expected.update(i.anchor for i in catalog.identities if i.family_id == "triangular")
    assert set(json.loads(proc.stdout)["claims"]) == expected


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
    code, _, err = run_cli(["verify", "--scope", "family"], capsys)
    assert code == 2 and "family" in err


@pytest.mark.parametrize("command", ["build", "census", "series", "estimate", "verify"])
def test_help_lists_flags(command):
    proc = subprocess.run(
        [sys.executable, "-m", "cactus_mis.cli", command, "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "--family" in proc.stdout or command == "verify"
    assert "usage:" in proc.stdout


def test_unknown_flag_is_an_error():
    proc = subprocess.run(
        [sys.executable, "-m", "cactus_mis.cli", "census", "--family", "square", "--n", "1",
         "--frobnicate"],
        capture_output=True, text=True)
    assert proc.returncode == 2


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
