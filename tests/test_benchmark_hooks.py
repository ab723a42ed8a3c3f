"""The benchmark's per-layer hook targets, resolved against the package.

``perfbench/tracer.py`` records a hook whose target no longer exists as
absent and lets the run go on, so deleting or renaming a hooked function
fails no benchmark run.  This pins which spans resolve: the five absent
ones name functions the package no longer has.  Nothing is rebound.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

from tracer import SPANS  # noqa: E402

ABSENT = {"angular.build", "oscillator.build", "spherium.build", "lgmodes.build", "criterion.evaluate"}


def _resolves(module_name: str, attr: str) -> bool:
    """Whether ``module.attr`` (a dotted path for a class member) is a callable, as the tracer needs."""
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_hook_targets_resolve():
    absent = {name for name, module, attr in SPANS if not _resolves(module, attr)}
    assert absent == ABSENT
