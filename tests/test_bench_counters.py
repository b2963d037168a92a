"""The benchmark's exact counters hold on the current code.

A traced pass of `perfbench/one_pass.py` checks the report bytes and every
counter pinned in `perfbench/expected.json` (lookups, graph builds, oracle
calls, root calls, the pooled pass's parent-side zeros), and on `algebra-deep`
the sha256 of the series and estimate output, its byte count, and the series
terms and coefficient bits. Running one pass of each workload here makes a
drift in any of them fail the test suite, not only a benchmark run.
The pass reads `perfbench/` and writes nothing there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("workload", ["verify-all", "verify-pool", "algebra-deep"])
def test_traced_pass_fails_no_check(workload):
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run(
        [sys.executable, str(PERFBENCH / "one_pass.py"), "--workload", workload, "--trace", "1"],
        capture_output=True, text=True, check=True, env=env)
    result = json.loads(out.stdout)
    assert result["failures"] == []
    assert result["attempted"] > 0
