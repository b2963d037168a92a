"""One benchmark pass, run by `run.py` in a fresh interpreter.

A fresh process per pass keeps module-global state cold, as a command-line
user finds it: the oracle cache in `cactus_mis.verify` starts empty, so an
oracle or cache change shows in the timing. The pass imports the package,
loads the catalog (the set-up), runs one workload, checks every output and
prints one JSON line with its timings, counters and check results. An
untraced pass runs with a host-speed probe (`speedprobe.py`) and also
reports its set-up and workload times scaled to the reference speed.

    PYTHONPATH=src python3 perfbench/one_pass.py --workload verify-all
    PYTHONPATH=src python3 perfbench/one_pass.py --setup-only
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import re
import resource
import sys
import time
import traceback
from pathlib import Path

from speedprobe import SpeedProbe

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

# Each family runs the three algebra commands in this order; the digest in
# expected.json covers their output in FAMILY_IDS order, whatever order ran.
ALGEBRA_COMMANDS = (
    ("series", "--bivariate", "--n-max", "200"),
    ("series", "--n-max", "2000"),
    ("estimate", "--n", "400"),
)
ESTIMATE_N = 400

# Layers that must record at least one call in a traced pass of each workload.
REQUIRED_LAYERS = {
    "verify-all": ("catalog", "graphs", "oracle", "series", "asymptotics", "verify", "pool"),
    "verify-pool": ("catalog", "graphs", "series", "asymptotics", "verify", "pool"),
    "algebra-deep": ("catalog", "series", "asymptotics", "cli"),
}


class Checks:
    """Output checks of one pass; each counts once towards the error rate."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _max_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


# -- workloads ----------------------------------------------------------------

def run_verify(pkg, catalog, workers: int) -> str:
    report = pkg.verify.run_verification(catalog, scope="all", workers=workers)
    return pkg.verify.report_to_json(report)


def run_algebra(pkg, families: list[str]) -> dict:
    """Every algebra command for every family through `cli.main`, in-process."""
    out = {}
    for fam in families:
        for cmd in ALGEBRA_COMMANDS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = pkg.cli.main([cmd[0], "--family", fam, *cmd[1:]])
            out[(fam, cmd)] = (rc, buf.getvalue())
    return out


# -- output checks ------------------------------------------------------------

def _baseline_bytes(pkg) -> bytes:
    return (Path(pkg.__file__).parent / "data" / "baseline_report.json").read_bytes()


def check_verify(checks: Checks, pkg, text: str) -> None:
    checks.check(text.encode("utf-8") == _baseline_bytes(pkg),
                 "report JSON differs from data/baseline_report.json")


_Y_TERM = re.compile(r"(-?)(\d*)(?:y(?:\^(\d+))?)?")


def _parse_y_poly(text: str) -> dict[int, int]:
    """Coefficients of a polynomial in y as printed by `series --bivariate`."""
    coeffs: dict[int, int] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        m = _Y_TERM.fullmatch(term)
        if m is None or term in ("", "-"):
            raise ValueError(f"unparseable term {term!r}")
        sign, digits, exp = m.groups()
        has_y = "y" in term
        c = int(digits) if digits else 1
        k = (int(exp) if exp else 1) if has_y else 0
        coeffs[k] = coeffs.get(k, 0) + (-c if sign else c)
    return {k: c for k, c in coeffs.items() if c}


def _numbered_lines(text: str) -> list[str]:
    lines = text.splitlines()
    for n, line in enumerate(lines):
        if not line.startswith(f"{n}: "):
            raise ValueError(f"line {n} is not numbered: {line[:40]!r}")
    return [line.split(": ", 1)[1] for line in lines]


def check_algebra(checks: Checks, pkg, catalog, out: dict, expected_digest: str) -> str:
    baseline = json.loads(_baseline_bytes(pkg))
    biv_cmd, rec_cmd, est_cmd = ALGEBRA_COMMANDS
    n_biv, n_rec = int(biv_cmd[-1]), int(rec_cmd[-1])
    for fam in pkg.graphs.FAMILY_IDS:
        record = catalog.family(fam)
        entries = baseline["families"][fam]["entries"]
        n_max = pkg.verify.DEFAULT_N_MAX[fam]
        for cmd in ALGEBRA_COMMANDS:
            checks.check(out[(fam, cmd)][0] == 0, f"{fam}: {' '.join(cmd)} exited {out[(fam, cmd)][0]}")

        # y = 1 sums of the bivariate coefficients against the univariate expansion
        polys = [_parse_y_poly(line) for line in _numbered_lines(out[(fam, biv_cmd)][1])]
        totals = pkg.series.specialize_y1(record.gf()).series(n_biv)
        checks.check([sum(p.values()) for p in polys] == totals,
                     f"{fam}: y=1 sums of series --bivariate differ from specialize_y1")

        # confirmed candidates reproduce the oracle distributions of the baseline
        gf_claim = baseline["claims"][record.gf_anchor]
        for cand_id, meta in sorted(gf_claim["candidates"].items()):
            if meta["verdict"] != "CONFIRMED":
                continue
            if cand_id == "statement":
                coeffs = polys[: n_max + 1]
            else:
                coeffs = [dict(enumerate(p.coeffs)) for p in pkg.series.series_in_x(record.gf(cand_id), n_max)]
            oracle = [{int(k): v for k, v in e["oracle"].items()} for e in entries[: n_max + 1]]
            got = [{k: c for k, c in p.items() if c} for p in coeffs]
            checks.check(got == oracle, f"{fam}: candidate {cand_id} disagrees with the baseline oracle")

        # recurrence totals against the baseline, and the estimate's exact value
        rec = [int(v) for v in _numbered_lines(out[(fam, rec_cmd)][1])]
        checks.check(len(rec) == n_rec + 1 and rec[: n_max + 1] == [e["recurrence_total"] for e in entries],
                     f"{fam}: series --n-max totals differ from the baseline recurrence totals")
        est = json.loads(out[(fam, est_cmd)][1])
        checks.check(est["exact"] == rec[ESTIMATE_N], f"{fam}: estimate exact differs from the series total")
        if record.asymptotic is not None:
            computed = baseline["claims"][record.asymptotic.anchor]["computed"]
            checks.check((est["rho"], est["constant"]) == (computed["rho"], computed["constant"]),
                         f"{fam}: estimate (rho, C) differs from the baseline")

    digest = hashlib.sha256()
    for fam in pkg.graphs.FAMILY_IDS:
        for cmd in ALGEBRA_COMMANDS:
            digest.update(out[(fam, cmd)][1].encode("utf-8"))
    checks.check(digest.hexdigest() == expected_digest, "sha256 of the algebra output differs from expected.json")
    return digest.hexdigest()


def check_counters(checks: Checks, expected: dict, counters: dict) -> None:
    for name, value in sorted(counters.items()):
        if name in expected:
            checks.check(value == expected[name], f"counter {name} = {value}, expected {expected[name]}")


# -- one pass -----------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=tuple(REQUIRED_LAYERS))
    ap.add_argument("--setup-only", action="store_true", help="stop after the set-up")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shuffle", type=int, default=0, help="seed of the algebra-deep family order")
    ap.add_argument("--pass-id", default="p0")
    ap.add_argument("--spans-out", default=None, help="write the traced spans here (JSON lines)")
    args = ap.parse_args(argv)
    if not args.setup_only and args.workload is None:
        ap.error("--workload is required unless --setup-only")
    if args.setup_only and args.trace:
        ap.error("--setup-only passes are untraced")

    # an untraced pass probes the host's speed from before the set-up on
    probe = None if args.trace else SpeedProbe()
    if probe is not None:
        probe.start()
    import cactus_mis as pkg  # the set-up starts here
    import cactus_mis.cli  # noqa: F401  (makes pkg.cli available)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.pass_id)
        tracer.install()
    catalog = pkg.catalog.load_catalog()
    setup_end_ns = time.monotonic_ns()
    result = {"setup_end_ns": setup_end_ns}
    if probe is not None:
        result["setup_slowdown"], result["setup_probe_s"] = probe.split()
    if args.setup_only:
        probe.stop()
        result["probe_wrong"] = probe.wrong
        print(json.dumps(result))
        return 0

    families = list(pkg.graphs.FAMILY_IDS)
    random.Random(args.shuffle).shuffle(families)
    checks = Checks()
    result.update({"pass": args.pass_id, "workload": args.workload, "traced": bool(args.trace),
                   "families": families})
    try:
        work_start = time.perf_counter_ns()
        if args.workload == "algebra-deep":
            out = run_algebra(pkg, families)
        else:
            out = run_verify(pkg, catalog, 1 if args.workload == "verify-all" else 2)
        wall_s = (time.perf_counter_ns() - work_start) / 1e9
    except Exception:  # a failed operation is a failed check, not a crashed benchmark
        checks.check(False, "workload raised:\n" + traceback.format_exc())
        result.update(attempted=checks.attempted, failures=checks.failures)
        print(json.dumps(result))
        return 0
    finally:
        if probe is not None:
            slowdown, probe_s = probe.stop()
        if tracer is not None:
            tracer.uninstall()

    if probe is not None:
        # the probes' own time comes off the pass; the rest is scaled to the
        # reference host speed
        wall_s -= probe_s
        result["slowdown"] = slowdown
        result["scaled_wall_s"] = wall_s / slowdown
        checks.check(probe.wrong == 0, f"{probe.wrong} speed probes returned a wrong count")
    result["wall_s"] = wall_s
    result["peak_rss_mb"] = max(_max_rss_mb(resource.RUSAGE_SELF), _max_rss_mb(resource.RUSAGE_CHILDREN))
    result["child_peak_rss_mb"] = _max_rss_mb(resource.RUSAGE_CHILDREN)

    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[args.workload]
    try:
        if args.workload == "algebra-deep":
            result["algebra_sha256"] = check_algebra(checks, pkg, catalog, out, expected["algebra_sha256"])
            counters = {"cli.output_bytes": sum(len(text.encode("utf-8")) for _rc, text in out.values())}
        else:
            check_verify(checks, pkg, out)
            counters = {"verify.report_bytes": len(out.encode("utf-8"))}
    except Exception:  # malformed output fails its check
        checks.check(False, "output check raised:\n" + traceback.format_exc())
        counters = {}

    if tracer is not None:
        layer, details = tracer.metrics(work_start, wall_s)
        # a counter the trace no longer yields reads None and fails its check
        counters.update({k: layer.get(k) for k in expected["counters"] if k not in counters})
        for name in REQUIRED_LAYERS[args.workload]:
            checks.check(details["layer_calls"][name] > 0, f"traced pass recorded no {name} call")
        result["layer"] = layer
        result["details"] = details
        if args.spans_out:
            tracer.write(args.spans_out)
    check_counters(checks, expected["counters"], counters)

    result.update(counters=counters, attempted=checks.attempted, failures=checks.failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
