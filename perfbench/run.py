#!/usr/bin/env python3
"""entconvex benchmark: time degenerate pairs to their verdicts, check them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a source checkout; the package is imported from
``src/``.  Every repetition runs in a fresh interpreter with an empty
``ENTCONVEX_CACHE_DIR`` and one BLAS/OpenMP thread.  Each pair's outputs
are checked against ``perfbench/expected/<workload>.json``.

``--trace 0`` repeats the workload until ``--seconds`` have passed and
reports the end-to-end metrics; set-up time is the median of separate
set-up-only interpreters.  ``--trace 1`` alternates untraced and traced
repetitions and reports per-layer self time and counts, and the tracing
overhead.  ``--quick`` runs two pairs once, for the schema self-test.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import THREAD_VARS  # noqa: E402
from tracer import SPANS  # noqa: E402
from workloads import WORKLOADS, canonical, generate  # noqa: E402

BLAS_THREADS = "1"
SETUP_SAMPLES = 7
RUN_DEADLINE_S = 170.0  # the whole run, children included
# Typical median time of one reference slice (child.reference_slice) within
# runs on a 2-vCPU Intel Xeon VM at 2.1 GHz with one BLAS thread.  End-to-end
# times are rescaled by nominal / measured median of the slices sampled
# while the work ran, so that a host that slows everything down for seconds
# or minutes at a time does not read as a change in the program.
REFERENCE_NOMINAL_S = 135e-6
# a pair is rescaled by the slices sampled during it and this long either
# side of it, so that a pair shorter than the sampling period has some
REFERENCE_PAD_S = 0.5

ENTROPY_TOL = 1e-12
PROBE_BOUND_TOL = 1e-9
HAAR_GAP_TOL = 0.02

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "pair_p50_ms": "ms",
    "pair_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# layer group expected to hold most traced self time on each workload
PREDICTED_LAYER = {
    "angular-sweep": "angular",
    "dense-tables": "spectra",
    "lg-scan": "spectra",
    "probe": "criterion",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name, _, _ in SPANS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update({
        "spectra.solves": "count",
        "spectra.solve_n3": "count",
        "spectra.solves_per_point": "solves/point",
        "sweep.points": "count",
        "criterion.probe.samples_per_s": "1/s",
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s",
        "trace.hooks_absent": "count",
    })
    return units


class BenchError(RuntimeError):
    """The run cannot produce a result (missing sources, crashed child)."""


class Runner:
    """Spawns child interpreters inside one scratch directory of the checkout."""

    def __init__(self, work: Path, inputs: list[dict]):
        self.work = work
        self.inputs_path = work / "inputs.json"
        self.inputs_path.write_text(json.dumps(inputs))
        self.started = time.monotonic()
        self.spawned = 0

    def child(self, setup_only: bool = False, trace: bool = False) -> dict:
        self.spawned += 1
        cache = self.work / f"cache-{self.spawned}"
        cache.mkdir()
        out = self.work / f"out-{self.spawned}.json"
        env = dict(os.environ)
        env.update({
            "PYTHONPATH": str(ROOT / "src"),
            "PERFBENCH_SRC": str(ROOT / "src"),
            "ENTCONVEX_CACHE_DIR": str(cache),
            "PYTHONHASHSEED": "0",
        })
        env.update(dict.fromkeys(THREAD_VARS, BLAS_THREADS))
        cmd = [sys.executable, str(HERE / "child.py"),
               "--inputs", str(self.inputs_path), "--out", str(out)]
        cmd += ["--setup-only"] * setup_only + ["--trace"] * trace
        remaining = RUN_DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("run deadline passed")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=remaining,
                                  stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child exceeded the run deadline of {RUN_DEADLINE_S:.0f}s") from exc
        if proc.returncode != 0:
            raise BenchError(f"child exited with {proc.returncode}:\n{proc.stdout[-3000:]}")
        result = json.loads(out.read_text())
        result["setup_s"] = result["setup_done"] - t0
        shutil.rmtree(cache)
        return result


def check_pair(got: dict | None, want: dict) -> str | None:
    """None when the outputs match the record, else the first difference."""
    if got is None:
        return "raised"
    if "bound" in want:  # probe: the minimum depends on the seed, the bound does not
        for key in ("label", "mode", "samples"):
            if got[key] != want[key]:
                return f"{key} {got[key]!r} != {want[key]!r}"
        for key in ("bound", "entropy"):
            if abs(got[key] - want[key]) > ENTROPY_TOL:
                return f"{key} {got[key]!r} != {want[key]!r}"
        if got["mode"] == "haar":
            gap = abs(got["min_value"] - got["bound"])
            return f"haar gap {gap:.4f} >= {HAAR_GAP_TOL}" if gap >= HAAR_GAP_TOL else None
        # the balanced family, always the first sample, attains the bound
        if got["min_value"] > got["bound"] + PROBE_BOUND_TOL:
            return f"probe minimum {got['min_value']!r} above bound {got['bound']!r}"
        if got["min_value"] < got["bound"] - PROBE_BOUND_TOL and not want["bound_violations"]:
            return f"probe minimum {got['min_value']!r} below bound {got['bound']!r}"
        return None
    for key in ("label", "qc", "observed", "agree"):
        if got[key] != want[key]:
            return f"{key} {got[key]!r} != {want[key]!r}"
    for key in ("s0", "s1", "s_ns", "s_r", "max_deviation"):
        if abs(got[key] - want[key]) > ENTROPY_TOL:
            return f"{key} {got[key]!r} != {want[key]!r}"
    if got["entropies"] is None or len(got["entropies"]) != len(want["entropies"]):
        return "curve grid differs"
    worst = max(abs(a - b) for a, b in zip(got["entropies"], want["entropies"]))
    if worst > ENTROPY_TOL:
        return f"curve entropy off by {worst:.2e}"
    return None


def check_rep(rep: dict, expected: list[dict]) -> tuple[list[str], list[str]]:
    """Failures, and recorded findings that this repetition showed again."""
    failures, findings = [], []
    for row in rep["pairs"]:
        want, got = expected[row["index"]], row["result"]
        name = f"pair {row['index']} ({want['label']})"
        why = check_pair(got, want)
        if why is not None:
            failures.append(f"{name}: {row['error'] or why}")
        elif want.get("bound_violations") and got["min_value"] < got["bound"] - PROBE_BOUND_TOL:
            findings.append(f"{name}: probe minimum {got['bound'] - got['min_value']:.2e} below "
                            f"the bound, as recorded for {want['bound_violations']}/"
                            f"{want['scan_seeds']} seeds")
    return failures, findings


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def speed_after(run: dict) -> float:
    """Nominal over measured reference time, from the slices that followed ``run``."""
    return REFERENCE_NOMINAL_S / statistics.median(run["reference_s"])


def scaled_pair_times(rep: dict) -> list[float]:
    """Each pair's time at nominal speed, by the slices sampled while it ran."""
    starts = [t for t, _ in rep["reference"]]
    scaled = []
    for row in rep["pairs"]:
        lo = bisect.bisect_left(starts, row["start_s"] - REFERENCE_PAD_S)
        hi = bisect.bisect_right(starts, row["end_s"] + REFERENCE_PAD_S)
        window = rep["reference"][lo:hi] or rep["reference"]
        scaled.append(row["time_s"] * REFERENCE_NOMINAL_S / statistics.median(s for _, s in window))
    return scaled


def end_to_end(runner: Runner, seconds: float, quick: bool, workload: str) -> tuple[dict, list[dict]]:
    runner.child(setup_only=True)  # warm-up: the first import writes bytecode caches
    setup_runs = [runner.child(setup_only=True) for _ in range(1 if quick else SETUP_SAMPLES)]
    setups = [run["setup_s"] for run in setup_runs]
    reps = []
    t0 = time.monotonic()
    while not reps or (not quick and time.monotonic() - t0 < seconds):
        reps.append(runner.child())
    raw_ms = [1e3 * row["time_s"] for rep in reps for row in rep["pairs"]]
    scaled = [scaled_pair_times(rep) for rep in reps]
    pair_ms = [1e3 * t for times in scaled for t in times]
    # a set-up sample is rescaled by the slices right after it
    scaled_setups = [run["setup_s"] * speed_after(run) for run in setup_runs]
    values = {
        "setup_s": statistics.median(scaled_setups),
        "wall_s": statistics.median(sum(times) for times in scaled),
        "pair_p50_ms": statistics.median(pair_ms),
        "pair_p90_ms": percentile(pair_ms, 90),
        "peak_rss_mb": max(rep["maxrss_kb"] for rep in reps) / 1024.0,
    }
    unscaled = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "pair_p50_ms": statistics.median(raw_ms),
        "pair_p90_ms": percentile(raw_ms, 90),
    }
    reference = statistics.median(s for rep in reps for _, s in rep["reference"])
    print(f"{len(reps)} repetitions, {len(pair_ms)} pairs timed "
          f"(p90 has {sum(t > values['pair_p90_ms'] for t in pair_ms)} samples above it), "
          f"{len(setups)} set-up samples")
    print(f"reference slice median {1e6 * reference:.1f} us against {1e6 * REFERENCE_NOMINAL_S:.0f} us "
          "nominal; unscaled " + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items()))
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, reps


def per_layer(runner: Runner, seconds: float, quick: bool, workload: str) -> tuple[dict, list[dict]]:
    runner.child(setup_only=True)
    plain, traced = [], []
    t0 = time.monotonic()
    while not traced or (not quick and time.monotonic() - t0 < seconds):
        plain.append(runner.child())
        traced.append(runner.child(trace=True))

    def med(fn):
        return statistics.median(fn(rep["trace"]) for rep in traced)

    values = {}
    for name, _, _ in SPANS:
        values[f"{name}.self_s"] = med(lambda t: t["spans"][name]["self_s"])
        values[f"{name}.calls"] = med(lambda t: t["spans"][name]["calls"])
    counts = lambda t, key: t["counts"].get(key, 0)  # noqa: E731
    values["spectra.solves"] = med(lambda t: counts(t, "spectra.solves"))
    values["spectra.solve_n3"] = med(lambda t: counts(t, "spectra.solve_n3"))
    values["sweep.points"] = med(lambda t: counts(t, "sweep.points"))
    values["spectra.solves_per_point"] = med(
        lambda t: counts(t, "spectra.solves") / counts(t, "sweep.points") if counts(t, "sweep.points") else 0.0)
    values["criterion.probe.samples_per_s"] = med(
        lambda t: counts(t, "criterion.probe.samples") / t["spans"]["criterion.probe"]["total_s"]
        if t["spans"]["criterion.probe"]["total_s"] else 0.0)
    values["trace.wall_s"] = statistics.median(rep["wall_s"] for rep in traced)
    values["trace.untraced_wall_s"] = statistics.median(rep["wall_s"] for rep in plain)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    values["trace.hooks_absent"] = len(traced[0]["trace"]["absent"])

    absent = traced[0]["trace"]["absent"]
    if absent:
        print(f"absent hooks (reported as 0 calls): {', '.join(absent)}")
    by_layer: dict[str, float] = {}
    for name, _, _ in SPANS:
        by_layer[name.split(".")[0]] = by_layer.get(name.split(".")[0], 0.0) + values[f"{name}.self_s"]
    total = sum(by_layer.values()) or 1.0
    top = max(by_layer, key=by_layer.get)
    verdict = "matches" if top == PREDICTED_LAYER[workload] else "DOES NOT match"
    print(f"{len(traced)} traced + {len(plain)} untraced repetitions; dominant self-time layer "
          f"{top} ({100 * by_layer[top] / total:.0f}% of span self time), "
          f"{verdict} the predicted {PREDICTED_LAYER[workload]}")
    print("self time by layer: " + ", ".join(
        f"{k} {100 * v / total:.1f}%" for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])))
    print(f"tracing overhead {values['trace.overhead_s']:+.3f}s on an untraced wall of "
          f"{values['trace.untraced_wall_s']:.3f}s; spectra.solve_n3 is computed (sum of n^3), "
          "not measured")
    units = per_layer_units()
    return {k: (v, units[k]) for k, v in values.items()}, plain + traced


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="two pairs, one repetition; no timing meaning")
    args = ap.parse_args()

    if not (ROOT / "src" / "entconvex" / "__init__.py").is_file():
        print(f"error: no entconvex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected_path = HERE / "expected" / f"{args.workload}.json"
    expected = json.loads(expected_path.read_text())["pairs"]
    if len(expected) != len(canonical(args.workload)):
        print(f"error: {expected_path} records {len(expected)} pairs, the workload has "
              f"{len(canonical(args.workload))}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = generate(args.workload, args.seed, quick=args.quick)
        runner = Runner(work, inputs)
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}{' quick' if args.quick else ''}: {len(inputs)} pairs per repetition")
        measure = per_layer if args.trace else end_to_end
        metrics, reps = measure(runner, args.seconds, args.quick, args.workload)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    checked = [check_rep(rep, expected) for rep in reps]
    failures = [f for fails, _ in checked for f in fails]
    findings = sorted({f for _, found in checked for f in found})
    attempted = sum(len(rep["pairs"]) for rep in reps)
    print("context: " + json.dumps(reps[0]["context"], sort_keys=True))
    verdicts: dict[str, int] = {}
    for row in reps[0]["pairs"]:
        res = row["result"]
        if res is None:
            key = "raised"
        elif "bound" in res:
            key = "probe"
        else:
            key = {True: "agree", False: "disagree", None: "Q_c=0"}[res["agree"]]
        verdicts[key] = verdicts.get(key, 0) + 1
    print("verdicts per repetition: " + ", ".join(f"{k} {v}" for k, v in sorted(verdicts.items())))
    for line in findings:
        print(f"recorded finding, not a failure: {line}")
    for line in failures[:10]:
        print(f"FAILED {line}")
    print(f"failed_frac {len(failures) / attempted:.4g} ({len(failures)}/{attempted} pairs)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
