"""Every biased benchmark probe pair against its recorded outputs, at fixed seeds.

The benchmark accepts a biased probe minimum below S - 2 S_NS only on a
pair recorded with ``bound_violations > 0`` in
``perfbench/expected/probe.json``.  A change to the sampler moves the
minimum of every pair, and the quick benchmark run covers two of the 18
biased pairs, so this runs each at the benchmark's sample count and eight
fixed seeds through the benchmark's own pair builder, probe call and check.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

from child import build_pairs, probe  # noqa: E402
from run import check_pair  # noqa: E402
from workloads import canonical  # noqa: E402

SEEDS = range(8)


def test_biased_probe_pairs_pass_the_benchmark_check():
    specs = canonical("probe")
    recorded = json.loads((BENCH / "expected" / "probe.json").read_text())["pairs"]
    assert len(recorded) == len(specs)
    biased = [(s, r) for s, r in zip(specs, recorded) if s["mode"] == "biased"]
    assert len(biased) == 18
    failures = []
    for (spec, want), pair in zip(biased, build_pairs([s for s, _ in biased])):
        for seed in SEEDS:
            error = check_pair(probe(pair, dict(spec, seed=seed)), want)
            if error:
                failures.append(f"{want['label']} seed {seed}: {error}")
    assert not failures
