"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

Set-up imports entconvex and builds the pair list from the generated
inputs; then every pair is brought to its verdict through the public API
and timed.  The result, with the raw outputs for checking, is written as
JSON to ``--out``.

    python3 perfbench/child.py --inputs IN.json --out OUT.json [--setup-only] [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
from numpy.linalg import eigvalsh  # noqa: E402  bound before any tracer hook

from tracer import Tracer, rebind  # noqa: E402

# a reference slice runs on a wall-clock timer this often while pairs run
REFERENCE_EVERY_S = 0.02
SETUP_REFERENCE_SLICES = 20  # after a set-up-only run
REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((16, 16))
REFERENCE_MATRIX = REFERENCE_MATRIX + REFERENCE_MATRIX.T

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def machine_context() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def build_pairs(inputs: list[dict]) -> list:
    """PairSpec for every input, from the sweep factories and reference tables."""
    from entconvex import benchmarks, sweep
    from entconvex.lgmodes import LGMode

    tables: dict[int, tuple] = {}
    pairs = []
    for spec in inputs:
        kind = spec["kind"]
        if kind in ("angular", "probe"):
            pairs.append(sweep.angular_pair(spec["l"], spec["L"], spec["L"]))
        elif kind == "lg":
            pairs.append(sweep.lg_pair(LGMode(*spec["mode0"]), LGMode(*spec["mode1"])))
        elif kind == "table":
            if spec["table"] not in tables:
                tables[spec["table"]] = benchmarks.reference_table(spec["table"])
            pairs.append(tables[spec["table"]][spec["row"]].pair)
        else:
            raise ValueError(f"unknown pair kind {kind!r}")
    return pairs


def verdict(pair, curves: list) -> dict:
    """criterion_vs_observation with the curve it computed along the way."""
    from entconvex import sweep

    curves.clear()
    rec = sweep.criterion_vs_observation(pair)
    rep = rec.report
    return {
        "label": rec.pair_label,
        "qc": rep.qc,
        "observed": rec.observed.label,
        "agree": rec.agree,
        "s0": rep.s0,
        "s1": rep.s1,
        "s_ns": rep.s_ns,
        "s_r": rep.s_r,
        "max_deviation": rec.observed.max_deviation,
        "entropies": list(curves[-1].entropies) if curves else None,
    }


def probe(pair, spec: dict) -> dict:
    from entconvex import criterion

    rec = criterion.random_projector_probe(
        pair.builder(1.0), pair.builder(0.0),
        samples=spec["samples"], seed=spec["seed"], mode=spec["mode"],
    )
    return {
        "label": pair.label,
        "mode": spec["mode"],
        "bound": rec.bound,
        "entropy": rec.entropy,
        "min_value": rec.min_value,
        "samples": rec.samples,
    }


def capture_curves() -> list:
    """Keep each curve that ``criterion_vs_observation`` computes, for checking."""
    curves: list = []

    def wrap(fn):
        def entropy_curve(*args, **kwargs):
            curve = fn(*args, **kwargs)
            curves.append(curve)
            return curve

        return entropy_curve

    rebind("entconvex.sweep", "entropy_curve", wrap)
    return curves


def reference_slice() -> float:
    """Time a fixed mix of small-matrix LAPACK and interpreter work."""
    t0 = time.perf_counter()
    for _ in range(4):
        eigvalsh(REFERENCE_MATRIX)
        sum(i * i for i in range(100))
    return time.perf_counter() - t0


class SpeedSampler:
    """Runs a reference slice every ``REFERENCE_EVERY_S`` of wall time.

    The slice runs from a SIGALRM handler, so it samples the machine's
    speed evenly through the pairs, whatever code they are in.  The
    handler runs between bytecodes, never inside a LAPACK call.  An
    untimed slice runs first, so that the timed one finds warm caches
    whatever the interrupted work left in them.  The handler's time is
    kept in ``spent`` so that callers can take it out of theirs.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter at start, slice time)
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_slice()
        self.samples.append((t0, reference_slice()))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)  # at least one sample, however short the run


def run_pairs(inputs: list[dict], pairs: list, curves: list,
              sampler: SpeedSampler | None = None) -> list[dict]:
    """Run every pair; an exception is recorded as that pair's error.

    A pair's ``time_s`` excludes the time the sampler spent inside it;
    ``start_s`` and ``end_s`` place it among the sampler's slices.
    """
    out = []
    for spec, pair in zip(inputs, pairs):
        spent0 = sampler.spent if sampler else 0.0
        t0 = time.perf_counter()
        try:
            result, error = (probe(pair, spec) if spec["kind"] == "probe"
                             else verdict(pair, curves)), None
        except Exception:  # a failing pair is counted, not fatal
            result, error = None, traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        dt = t1 - t0 - ((sampler.spent if sampler else 0.0) - spent0)
        out.append({"index": spec["index"], "time_s": dt, "start_s": t0, "end_s": t1,
                    "result": result, "error": error})
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    inputs = json.loads(Path(args.inputs).read_text())
    import entconvex

    src = Path(os.environ["PERFBENCH_SRC"]).resolve()
    if src not in Path(entconvex.__file__).resolve().parents:
        raise SystemExit(f"imported entconvex from {entconvex.__file__}, not from {src}")
    curves = capture_curves()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    pairs = build_pairs(inputs)
    result = {"setup_done": time.monotonic()}
    if args.setup_only:
        result["reference_s"] = [reference_slice() for _ in range(SETUP_REFERENCE_SLICES)]
    else:
        if tracer is not None:  # per-layer times are not rescaled, so no sampler
            result["pairs"] = run_pairs(inputs, pairs, curves)
        else:
            with SpeedSampler() as sampler:
                result["pairs"] = run_pairs(inputs, pairs, curves, sampler)
            result["reference"] = sampler.samples
        result["wall_s"] = sum(row["time_s"] for row in result["pairs"])
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["context"] = machine_context()
        if tracer is not None:
            result["trace"] = tracer.report()
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
