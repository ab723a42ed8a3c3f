"""The four benchmark workloads as plain, JSON-serialisable pair specs.

This module does not import entconvex: the harness generates inputs here
and the child process turns each spec into a pair through the package's
public factories.  A spec's position in :func:`canonical` is its identity;
the recorded outputs in ``expected/`` are keyed by that index.
"""

from __future__ import annotations

import random

WORKLOADS = ("angular-sweep", "dense-tables", "lg-scan", "probe")

# criterion-7 shape.  Pair time grows steeply with l, in one cluster per l.
# At l <= 6, 20 of the 42 pairs have l <= 4, so the median pair fell in the
# gap between the l = 4 and l = 5 clusters and moved by up to a quarter
# between runs of the same code; at l <= 5 it lies inside the l = 4
# cluster and p90 inside the l = 5 one.  The l = 9 misprediction lies
# beyond this workload.
ANGULAR_LMAX = 5
# reference-table rows per table, in `benchmarks.reference_table` order
TABLE_ROWS = {2: 4, 3: 2, 4: 5}
PROBE_SAMPLES = 10_000
HAAR_SAMPLES = 100_000
QUICK_PAIRS = 2


def _lg_scan_modes() -> list[tuple[int, int]]:
    return [(l, m) for l in range(5) for m in range(-4, 5) if m != 0]


def canonical(workload: str) -> list[dict]:
    """Every pair spec of a workload, in recording order."""
    if workload == "angular-sweep":
        return [
            {"kind": "angular", "l": l, "L": L}
            for l in range(1, ANGULAR_LMAX + 1)
            for L in range(1, 2 * l + 1)
        ]
    if workload == "dense-tables":
        return [
            {"kind": "table", "table": t, "row": r}
            for t in (2, 3)
            for r in range(TABLE_ROWS[t])
        ]
    if workload == "lg-scan":
        # the criterion-6 scan: each positive-m mode against every later mode
        modes = _lg_scan_modes()
        specs = [
            {"kind": "lg", "mode0": list(m0), "mode1": list(m1)}
            for i, m0 in enumerate(modes)
            if m0[1] > 0
            for m1 in modes[i + 1:]
        ]
        return specs + [{"kind": "table", "table": 4, "row": r} for r in range(TABLE_ROWS[4])]
    if workload == "probe":
        specs = [
            {"kind": "probe", "l": l, "L": L, "samples": PROBE_SAMPLES, "mode": "biased"}
            for l in (3, 6)
            for L in range(1, 2 * l + 1)
        ]
        return specs + [{"kind": "probe", "l": 1, "L": 1, "samples": HAAR_SAMPLES, "mode": "haar"}]
    raise ValueError(f"unknown workload {workload!r}")


def generate(workload: str, seed: int, quick: bool = False) -> list[dict]:
    """The run's inputs: indexed specs in a seed-shuffled order.

    The seed sets the execution order and each probe's sampling seed; the
    set of pairs, and so the work done, is the same for every seed.
    """
    specs = canonical(workload)
    if quick:
        specs = specs[:QUICK_PAIRS]
    rng = random.Random(seed)
    inputs = [dict(spec, index=i) for i, spec in enumerate(specs)]
    rng.shuffle(inputs)
    for spec in inputs:
        if spec["kind"] == "probe":
            spec["seed"] = rng.randrange(2**31)
    return inputs
