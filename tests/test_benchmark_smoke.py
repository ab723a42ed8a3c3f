"""Each benchmark workload, run once in quick mode.

Checks the outputs of its first pairs against the recorded ones in
``perfbench/expected/``; timings are printed but not checked.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["angular-sweep", "dense-tables", "lg-scan", "probe"])
def test_quick_probe_run_matches_recorded_outputs(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", "0", "--quick"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 1
