"""Per-layer spans and counters, attached to entconvex from outside.

Nothing inside the package changes.  A hook replaces a function at every
place that binds it: the defining module, and each loaded ``entconvex``
module that imported the same object by name (``sweep`` and ``criterion``
both import ``eigendecompose``; the package ``__init__`` re-exports many
names).  The ``*_pair`` factories capture their builder when the pair is
created, so hooks go in before any pair is built.

A hook whose target no longer exists is recorded as absent and reports
zero calls; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute path); a dotted attribute is a class member
SPANS = (
    ("angular.build", "entconvex.angular", "coupled_reduced_density"),
    ("oscillator.tensor", "entconvex.oscillator", "coefficient_tensor"),
    ("oscillator.build", "entconvex.oscillator", "oscillator_reduced_density"),
    ("spherium.build", "entconvex.spherium", "spherium_reduced_density"),
    ("spherium.coeffs", "entconvex.spherium", "SpheriumState.coefficients"),
    ("lgmodes.build", "entconvex.lgmodes", "lg_reduced_density"),
    ("spectra.density_check", "entconvex.spectra", "HermitianMatrix.__post_init__"),
    ("spectra.eigendecompose", "entconvex.spectra", "eigendecompose"),
    ("spectra.entropy", "entconvex.spectra", "von_neumann_entropy"),
    ("criterion.evaluate", "entconvex.criterion", "evaluate_criterion"),
    ("criterion.sectors", "entconvex.criterion", "refine_blocks_by_sector"),
    ("criterion.s_ns", "entconvex.criterion", "not_shared_entropy"),
    ("criterion.probe", "entconvex.criterion", "random_projector_probe"),
    ("sweep.curve", "entconvex.sweep", "entropy_curve"),
    ("sweep.classify", "entconvex.sweep", "classify_convexity"),
)

# dense Hermitian eigen-solvers; each matrix of a stacked batch is one solve
SOLVERS = (
    ("numpy.linalg", "eigh"),
    ("numpy.linalg", "eigvalsh"),
    ("scipy.linalg", "eigh"),
    ("scipy.linalg", "eigvalsh"),
)


def rebind(module_name: str, attr: str, make_wrapper) -> bool:
    """Replace ``module.attr`` by ``make_wrapper(original)`` wherever it is bound.

    Returns False, changing nothing, when the target does not exist.
    """
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return False
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    original = getattr(owner, leaf, None)
    if not callable(original):
        return False
    wrapped = make_wrapper(original)
    if path:  # class member: one binding
        setattr(owner, leaf, wrapped)
        return True
    homes = [owner] + [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "entconvex" or name.startswith("entconvex."))
    ]
    for mod in homes:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)
    return True


class Tracer:
    """Self time, inclusive time and call count per span, plus named counts.

    A span's self time is its duration minus the time of the spans it
    called.  Work outside every span is not attributed.
    """

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._child_time: list[float] = []  # one accumulator per open span

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._child_time.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = self._child_time.pop()
                self.self_s[name] += dt - inner
                self.total_s[name] += dt
                self.calls[name] += 1
                if self._child_time:
                    self._child_time[-1] += dt

        return wrapper

    def count_result(self, key: str, measure, fn):
        """Add ``measure(result)`` of every call of ``fn`` to ``counts[key]``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[key] += measure(result)
            return result

        return wrapper

    def count_solves(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            shape = np.shape(args[0] if args else kwargs["a"])
            batch = math.prod(shape[:-2])
            self.counts["spectra.solves"] += batch
            self.counts["spectra.solve_n3"] += batch * shape[-1] ** 3
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        # counters sit under the spans, so a span's time includes its counting
        if not rebind("entconvex.sweep", "entropy_curve",
                      functools.partial(self.count_result, "sweep.points",
                                        lambda c: len(getattr(c, "alphas", ())))):
            self.absent.append("sweep.points")
        if not rebind("entconvex.criterion", "random_projector_probe",
                      functools.partial(self.count_result, "criterion.probe.samples",
                                        lambda r: getattr(r, "samples", 0))):
            self.absent.append("criterion.probe.samples")
        for module, attr in SOLVERS:
            rebind(module, attr, self.count_solves)
        for name, module, attr in SPANS:
            if not rebind(module, attr, functools.partial(self.span, name)):
                self.absent.append(name)

    def report(self) -> dict:
        spans = {
            name: {"self_s": self.self_s[name], "total_s": self.total_s[name],
                   "calls": self.calls[name]}
            for name, _, _ in SPANS
        }
        return {"spans": spans, "counts": dict(self.counts), "absent": list(self.absent)}
