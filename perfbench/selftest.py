"""Schema self-test of the benchmark; it checks shapes, never timings.

    python3 perfbench/selftest.py

Runs every workload in ``--quick`` mode with tracing off and on, and
checks that the last output line has exactly the keys and metrics that
``BENCHMARK.json`` declares, with their units, and that the recorded
outputs matched.  Then checks that the benchmark refuses to run, without
printing a result, in a directory holding only itself.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END_UNITS, per_layer_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def declared(spec: dict, key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[key]}


def check_spec(spec: dict):
    assert set(spec) == SPEC_KEYS, sorted(spec)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert declared(spec, "end_to_end") == END_TO_END_UNITS
    assert declared(spec, "per_layer") == per_layer_units()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values()), bounds
    assert bounds["setup_s"] == max(bounds.values()), bounds


def run(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)


def check_result(line: str, units: dict[str, str]):
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["correct"] is True, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(units), sorted(set(result["metrics"]) ^ set(units))
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, name
        assert metric["unit"] == units[name], name
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--quick"]
            proc = run(cmd, ROOT)
            assert proc.returncode == 0, proc.stderr
            check_result(proc.stdout.strip().splitlines()[-1], declared(spec, key))
            print(f"ok {workload} trace={trace}")

    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run([sys.executable, *spec["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
                    "--seconds", "1", "--trace", "0"], bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print("ok refuses to run without sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
