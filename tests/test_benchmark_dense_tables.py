"""Every verdict benchmark pair against its recorded outputs.

The quick benchmark run checks two pairs of each workload, so this runs
every pair of the three verdict workloads (angular-sweep, dense-tables
and lg-scan) through the benchmark's own pair builder, verdict and check
against ``perfbench/expected/<workload>.json``: labels, Q_c and the
convexity verdict exactly, every entropy and the whole curve within the
benchmark's 1e-12.  lg-scan holds the pairs whose S_NS moves by about
1e-10 under a one-ulp change of rho.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

from child import build_pairs, capture_curves, verdict  # noqa: E402
from run import check_pair  # noqa: E402
from workloads import canonical  # noqa: E402

from entconvex import sweep  # noqa: E402


PAIRS = {"angular-sweep": 30, "dense-tables": 6, "lg-scan": 355}


@pytest.mark.parametrize("workload", PAIRS)
def test_verdict_pairs_pass_the_benchmark_check(monkeypatch, workload):
    # capture_curves rebinds sweep.entropy_curve in every entconvex module;
    # each binding is registered here first so that teardown restores it
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "entconvex" and getattr(mod, "entropy_curve", None) is sweep.entropy_curve:
            monkeypatch.setattr(mod, "entropy_curve", sweep.entropy_curve)
    curves = capture_curves()
    specs = canonical(workload)
    recorded = json.loads((BENCH / "expected" / f"{workload}.json").read_text())["pairs"]
    assert len(recorded) == len(specs) == PAIRS[workload]
    failures = []
    for want, pair in zip(recorded, build_pairs(specs)):
        error = check_pair(verdict(pair, curves), want)
        if error:
            failures.append(f"{want['label']}: {error}")
    assert not failures
