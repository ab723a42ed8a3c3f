"""Record the reference outputs that every benchmark run is checked against.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 perfbench/record.py [WORKLOAD ...]

Runs each workload's pairs in canonical order in this process and writes
``perfbench/expected/<workload>.json``.  Re-record only when a change is
meant to alter verdicts or entropies; a speed-up must leave these files
alone.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from child import build_pairs, capture_curves, probe, run_pairs  # noqa: E402
from run import PROBE_BOUND_TOL  # noqa: E402
from workloads import WORKLOADS, canonical  # noqa: E402

RECORD_PROBE_SEED = 42
# a biased probe is also run at each of these seeds, to record how often
# its minimum falls below the bound S - 2 S_NS
SCAN_SEEDS = range(64)


def bound_violations(pair, spec: dict) -> int:
    return sum(
        rec["min_value"] < rec["bound"] - PROBE_BOUND_TOL
        for rec in (probe(pair, dict(spec, seed=s)) for s in SCAN_SEEDS)
    )


def main(names: list[str]) -> int:
    curves = capture_curves()
    for name in names or WORKLOADS:
        inputs = [dict(spec, index=i, seed=RECORD_PROBE_SEED) for i, spec in enumerate(canonical(name))]
        pairs = build_pairs(inputs)
        rows = run_pairs(inputs, pairs, curves)
        errors = [r for r in rows if r["error"]]
        if errors:
            raise SystemExit(f"{name}: pair {errors[0]['index']} raised\n{errors[0]['error']}")
        for spec, pair, row in zip(inputs, pairs, rows):
            if spec["kind"] == "probe" and spec["mode"] == "biased":
                row["result"]["bound_violations"] = bound_violations(pair, spec)
                row["result"]["scan_seeds"] = len(SCAN_SEEDS)
        path = HERE / "expected" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        with path.open("w") as fh:
            fh.write('{"workload": %s, "pairs": [\n' % json.dumps(name))
            fh.write(",\n".join(json.dumps(r["result"]) for r in rows))
            fh.write("\n]}\n")
        print(f"{name}: {len(rows)} pairs -> {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
