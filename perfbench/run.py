"""Benchmark of the cactus-mis verifier: cold-process passes, per-layer trace.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. Every pass runs in a fresh
interpreter (`one_pass.py`), so module-global caches start cold. The run first
starts the package a few times for set-up samples, then runs passes of the
workload while the next one is expected to end within `--seconds` (at least
MIN_PASSES). With `--trace 0` it reports the end-to-end metrics of untraced
passes, their times scaled to a reference host speed (`speedprobe.py`);
with `--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead. The last
line of standard output is one JSON object with `correct`, `attempted`, `failed` and `metrics`;
every metric is printed by name, with its unit, above it. Spans and a run
record (environment, pass order, every pass) go to perfbench/out/.

See perfbench/README.md for the workloads, the metrics and what each layer
metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("verify-all", "verify-pool", "algebra-deep")
SETUP_SAMPLES = 9  # extra set-up-only starts per run, for a steady setup_s median
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
RUN_CEILING_S = 150  # no pass starts after this, so a run ends well within 180 s

END_TO_END = {"setup_s": "s", "scaled_wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "catalog.load_s": "s", "catalog.loads": "count", "catalog.self_s": "s",
    "graphs.build_s": "s", "graphs.builds": "count", "graphs.vertices": "count", "graphs.self_s": "s",
    "oracle.busy_s": "s", "oracle.calls": "count", "oracle.sets": "count", "oracle.ns_per_set": "ns",
    "oracle.max_call_s": "s", "oracle.top10_s": "s", "oracle.self_s": "s",
    "verify.lookups": "count", "verify.cache_hit_ratio": "ratio", "verify.family_s": "s",
    "verify.transfer_s": "s", "verify.asymptotics_s": "s", "verify.self_s": "s",
    "verify.report_json_s": "s", "verify.report_bytes": "bytes",
    "pool.prefill_s": "s", "pool.child_peak_rss_mb": "MB",
    "series.expand_s": "s", "series.expand_calls": "count", "series.terms": "count",
    "series.coeff_bits": "bits", "series.recurrence_s": "s", "series.reduce_s": "s", "series.self_s": "s",
    "asymptotics.root_s": "s", "asymptotics.root_calls": "count", "asymptotics.estimate_s": "s",
    "asymptotics.self_s": "s",
    "cli.self_s": "s", "cli.output_bytes": "bytes",
    "trace.overhead_s": "s", "trace.unattributed_s": "s",
}


class SetupError(Exception):
    """The package could not be started: there is no program to measure."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _loadavg():
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return None


def spawn(args: list[str], timeout: float = PASS_TIMEOUT_S) -> dict:
    """Run one_pass.py in a fresh interpreter and return its JSON line.

    The pass gets its own process group, so a pass that times out is killed
    together with any pool workers it started.
    """
    start_ns = time.monotonic_ns()
    proc = subprocess.Popen([sys.executable, "-s", str(HERE / "one_pass.py"), *args],
                            cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"pass timed out after {timeout} s", "elapsed_s": timeout}
    except BaseException:  # interrupted or terminated: leave no pass behind
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    elapsed_s = (time.monotonic_ns() - start_ns) / 1e9
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"pass exited {proc.returncode}: {err.strip()[-2000:]}", "elapsed_s": elapsed_s}
    result = json.loads(lines[-1])
    # CLOCK_MONOTONIC is system-wide, so the pass's set-up end compares with our start
    result["setup_s"] = (result["setup_end_ns"] - start_ns) / 1e9
    if "setup_slowdown" in result:  # untraced: the set-up was probed
        result["setup_s"] -= result["setup_probe_s"]
        result["scaled_setup_s"] = result["setup_s"] / result["setup_slowdown"]
    result["elapsed_s"] = elapsed_s
    return result


def _summary(values: list[float]) -> tuple[float, float, float]:
    """Median and first and third quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    rng = random.Random(seed)
    load_before = _loadavg()
    warm = spawn(["--setup-only"])  # fills the bytecode cache; not measured
    if "error" in warm:
        raise SetupError(warm["error"])

    start = time.monotonic()
    deadline = start + seconds
    setup = []
    for _ in range(SETUP_SAMPLES):
        sample = spawn(["--setup-only"])
        if "error" in sample:
            raise SetupError(sample["error"])
        if sample["probe_wrong"]:
            raise SetupError("the speed probe returned a wrong count")
        setup.append(sample)

    passes = []
    traced_next = trace and rng.random() < 0.5
    while True:
        kinds = {p["traced"] for p in passes if "traced" in p}
        enough = len(passes) >= MIN_PASSES and (not trace or kinds == {True, False})
        est = statistics.median(p["elapsed_s"] for p in passes) if passes else 0.0
        now = time.monotonic()
        if passes and (now - start > RUN_CEILING_S or (enough and now + est > deadline)):
            break
        pass_id = f"p{len(passes)}"
        args = ["--workload", workload, "--trace", str(int(traced_next)),
                "--shuffle", str(rng.randrange(2 ** 32)), "--pass-id", pass_id]
        if traced_next:
            args += ["--spans-out", str(OUT / f"spans-{workload}-seed{seed}-{pass_id}.jsonl")]
        result = spawn(args)
        result.setdefault("traced", traced_next)
        result.setdefault("pass", pass_id)
        passes.append(result)
        if trace:
            traced_next = not traced_next

    ok = [p for p in passes if "wall_s" in p]
    untraced = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]
    # a pass that died counts as one failed check
    attempted = sum(p.get("attempted", 1) for p in passes)
    failures = [f"{p['pass']}: {msg}" for p in passes
                for msg in ([p["error"]] if "error" in p else p["failures"])]

    samples = {}
    if untraced:
        samples["setup_s"] = [p["scaled_setup_s"] for p in setup + untraced]
        samples["scaled_wall_s"] = [p["scaled_wall_s"] for p in untraced]
        samples["peak_rss_mb"] = [p["peak_rss_mb"] for p in untraced]
    if trace and traced and untraced:
        for name in PER_LAYER:
            if name in traced[0]["layer"]:
                samples[name] = [p["layer"][name] for p in traced]
        samples["pool.child_peak_rss_mb"] = [p["child_peak_rss_mb"] for p in traced]
        samples["cli.output_bytes"] = [p["counters"].get("cli.output_bytes", 0) for p in traced]
        overhead = (_summary([p["wall_s"] for p in traced])[0]
                    - _summary([p["wall_s"] for p in untraced])[0])
        samples["trace.overhead_s"] = [overhead]

    units = PER_LAYER if trace else END_TO_END
    complete = all(name in samples for name in units)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": {
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "loadavg_before": load_before, "loadavg_after": _loadavg(),
        },
        "pass_order": [{"pass": p["pass"], "traced": p["traced"], "families": p.get("families")}
                       for p in passes],
        "run_s": time.monotonic() - start,
        "samples": samples,
        "units": units,
        "complete": complete,
        "attempted": attempted,
        "failed": len(failures) + (0 if complete else 1),
        "failures": failures,
        "setup": setup,
        "passes": passes,
    }


def report(rec: dict) -> dict:
    """Print every metric with its unit and spread; return the result line."""
    metrics = {}
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {int(rec['trace'])}  "
          f"passes {len(rec['passes'])}  run {rec['run_s']:.1f} s  "
          f"python {rec['env']['python']}  nproc {rec['env']['nproc']}  "
          f"loadavg {rec['env']['loadavg_before']} -> {rec['env']['loadavg_after']}")
    print(f"{'metric':<26} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}  unit")
    for name, unit in rec["units"].items():
        values = rec["samples"].get(name)
        if not values:
            continue
        med, q1, q3 = _summary(values)
        metrics[name] = {"value": med, "unit": unit}
        print(f"{name:<26} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {len(values):>4}  {unit}")
    print(f"{'error_rate':<26} {rec['failed'] / rec['attempted']:>14.6g} "
          f"({rec['failed']} failed of {rec['attempted']} checks)")
    for kind, traced in (("untraced", False), ("traced", True)):
        walls = [p["wall_s"] for p in rec["passes"] if p["traced"] == traced and "wall_s" in p]
        if walls:
            print(f"{kind} wall_s (not scaled) median {_summary(walls)[0]:.6g} s over {len(walls)} passes")
    setups = [p["setup_s"] for p in rec["setup"] + rec["passes"] if "setup_slowdown" in p]
    if setups:
        print(f"setup_s (not scaled) median {_summary(setups)[0]:.6g} s over {len(setups)} starts")
    slowdowns = [p["slowdown"] for p in rec["passes"] if "slowdown" in p]
    if slowdowns:
        print(f"host slowdown (speed probe) median {_summary(slowdowns)[0]:.4g}, "
              f"range {min(slowdowns):.4g}-{max(slowdowns):.4g}")
    details = [p["details"] for p in rec["passes"] if "details" in p]
    if details and details[0]["oracle_max_call"]:
        print("oracle max call:", json.dumps(details[0]["oracle_max_call"]))
        print("oracle top10 by |V|:", ", ".join(d["graph"] for d in details[0]["oracle_top10"]))
    for failure in rec["failures"]:
        print("FAILED", failure)
    return {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cactus-mis benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds through spawn()
    if not (ROOT / "src" / "cactus_mis" / "__init__.py").is_file():
        print(f"error: no cactus_mis package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        rec = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: the package does not start: {exc}", file=sys.stderr)
        return 2
    result = report(rec)
    path = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**rec, "result": result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
