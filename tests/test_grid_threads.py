"""The alpha grid's eigenvalue calls on every usable CPU.

A grid whose size groups each fit one ``eigvalsh`` call is solved in the
calling thread; one with a group split into several calls puts all its
chunks in one queue, drained by the caller and grid helper threads
started and joined for that grid (``sweep._solve_on_all_cpus``).  Each chunk is the same ``eigvalsh`` of the
same input as in the serial loop (``oracles.serial_entropy_curve``), so
every curve must equal it bit for bit.
"""

import dataclasses
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from entconvex import sweep
from entconvex.benchmarks import reference_table
from entconvex.lgmodes import LGMode
from entconvex.sweep import (
    angular_pair,
    criterion_vs_observation,
    entropy_curve,
    lg_pair,
    spherium_pair,
)
from oracles import serial_entropy_curve
from test_sweep import _criterion_6_pairs, _run_fresh

JOIN_TIMEOUT = 60.0  # seconds for a thread or forked child that should finish in a few


def _without_sectors(pair):
    return dataclasses.replace(pair, sector_operator=None)


# (pair factory, grid size, threaded): every curve here must equal the
# serial loop's, and it is threaded where some size group needs two calls
CURVES = {
    "spherium-1": (lambda: spherium_pair(1), 41, True),
    "spherium-1-no-sectors": (lambda: _without_sectors(spherium_pair(1)), 41, True),
    # each exchange pair of blocks solves one side, so the M = +-2 groups,
    # at most two blocks of 60-66, fit one call each
    "spherium-2": (lambda: spherium_pair(2), 41, False),
    "spherium-2-no-sectors": (lambda: _without_sectors(spherium_pair(2)), 41, False),
    **{f"table-2-row-{i}": (lambda i=i: reference_table(2)[i].pair, 41, True) for i in range(4)},
    "table-1-row-0": (lambda: reference_table(1)[0].pair, 41, False),
    # a mirror pair solved at size 19 on 201 of 401 points: two calls
    "lg-6-6-401": (lambda: lg_pair(LGMode(6, 6), LGMode(6, -6)), 401, True),
    # solved at size 5: one call for up to 2,621 solved points
    "lg-1-1-401": (lambda: lg_pair(LGMode(1, 1), LGMode(1, -1)), 401, False),
    # groups of at most 6 rows: one call each for up to 1,820 solved points
    **{f"angular-5-{L}-201": (lambda L=L: angular_pair(5, L, L), 201, False) for L in (1, 2, 5, 10)},
}
# the dense-tables pairs; the lg-scan and angular-sweep ones are below
DENSE_TABLES = [r.pair for t in (2, 3) for r in reference_table(t)]


def _angular_sweep_pairs():
    return [angular_pair(l, L, L) for l in range(1, 6) for L in range(1, 2 * l + 1)]


@pytest.fixture
def threaded_spy(monkeypatch):
    """Count the curves that take the threaded path, and the ``eigvalsh`` calls."""
    seen = {"threaded": 0, "calls": 0}
    solve_all = sweep._solve_on_all_cpus
    eigvalsh = np.linalg.eigvalsh
    lock = threading.Lock()

    def on_all_cpus(chunks):
        seen["threaded"] += 1
        solve_all(chunks)

    def counted(a):
        with lock:  # a helper thread counts too
            seen["calls"] += 1
        return eigvalsh(a)

    monkeypatch.setattr(sweep, "_solve_on_all_cpus", on_all_cpus)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return seen


@pytest.mark.parametrize("name", CURVES)
def test_curve_equals_the_serial_loop(name):
    make, grid, _ = CURVES[name]
    pair = make()
    want = serial_entropy_curve(pair, grid)
    got = entropy_curve(pair, grid)
    assert got.entropies == want.entropies
    assert got == want


def _takes_threaded_path(pair, grid, seen):
    """Whether a curve ran threaded, checked against whether some group needed two calls."""
    before = dict(seen)
    curve = entropy_curve(pair, grid)
    threaded = seen["threaded"] - before["threaded"]
    calls = seen["calls"] - before["calls"]
    assert threaded == (calls > len(curve.solved_sizes)), pair.label
    return bool(threaded)


@pytest.mark.parametrize("name", CURVES)
def test_threaded_exactly_where_a_group_needs_two_calls(threaded_spy, name):
    make, grid, threaded = CURVES[name]
    assert _takes_threaded_path(make(), grid, threaded_spy) is threaded


def test_dense_tables_pairs_threaded_but_spherium_m2(threaded_spy):
    # the oscillator rows and spherium M = +-1 split a group into several
    # calls; spherium M = +-2 solves one side of each exchange pair, whose
    # groups fit one call each
    threaded = [_takes_threaded_path(p, sweep.DEFAULT_GRID_SIZE, threaded_spy) for p in DENSE_TABLES]
    assert threaded == [p.label != "spherium M=2/-2" for p in DENSE_TABLES]


@pytest.mark.parametrize(
    "pairs, count", [(_criterion_6_pairs, 355), (_angular_sweep_pairs, 30)], ids=["lg-scan", "angular-sweep"]
)
def test_small_pairs_stay_serial(threaded_spy, pairs, count):
    pairs = pairs()
    assert len(pairs) == count
    assert not any(_takes_threaded_path(p, sweep.DEFAULT_GRID_SIZE, threaded_spy) for p in pairs)


def stress(callers=4, repeats=3):
    """Run verdicts and curves in more caller threads than cores, against the serial loop.

    A GIL switch after every few bytecodes puts any unlocked queue or
    result step between the threads; every join has a timeout.
    """
    pairs = [spherium_pair(1)] + [r.pair for r in reference_table(2)]
    sweep.entropy_curve = serial_entropy_curve  # what criterion_vs_observation calls
    try:
        want = [(criterion_vs_observation(p), serial_entropy_curve(p)) for p in pairs]
    finally:
        sweep.entropy_curve = entropy_curve
    results = [None] * callers
    errors = []

    def caller(k):
        try:
            results[k] = [
                (criterion_vs_observation(p), entropy_curve(p)) for _ in range(repeats) for p in pairs
            ]
        except BaseException as e:  # reported by the main thread
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(callers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(JOIN_TIMEOUT)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    for got in results:
        assert got == want * repeats


def test_stress_more_callers_than_cores():
    # in a fresh interpreter with one BLAS thread, as the benchmark pins
    # it: at OpenBLAS's default count, four callers oversubscribe its own
    # threads, and on 2 CPUs the same work takes about 20 s against 3 s,
    # with the serial loop too
    here = Path(__file__).resolve().parent
    pinned = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    done = subprocess.run(
        [sys.executable, "-c", "import test_grid_threads; test_grid_threads.stress()"],
        env={**os.environ, **pinned, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])},
        capture_output=True,
        text=True,
        timeout=JOIN_TIMEOUT,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("where", ["caller", "helper"])
def test_a_failed_chunk_propagates(monkeypatch, where):
    # the caller solves no chunk before a helper has taken one, so each
    # side meets the grid; the first chunk solved on the side ``where``
    # raises, and the error leaves entropy_curve
    if sweep._usable_cpus() < 2:
        pytest.skip("one usable CPU: no helper thread")
    pair = spherium_pair(1)
    want = serial_entropy_curve(pair)
    eigvalsh = np.linalg.eigvalsh
    helper_started = threading.Event()

    def failing(a):
        in_caller = threading.current_thread() is threading.main_thread()
        if in_caller:
            helper_started.wait(JOIN_TIMEOUT)
        else:
            helper_started.set()
        if in_caller == (where == "caller"):
            raise np.linalg.LinAlgError("planted")
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(np.linalg.LinAlgError, match="planted"):
        entropy_curve(pair)
    assert helper_started.is_set()
    monkeypatch.undo()
    assert entropy_curve(pair) == want


def _forked_curve(pair, want):
    if entropy_curve(pair) != want:
        raise SystemExit(1)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)
def test_forked_child_finishes_a_threaded_curve():
    # a child forked after a threaded curve starts its own helpers
    pair = spherium_pair(1)
    want = entropy_curve(pair)  # starts and joins helpers in this process
    child = multiprocessing.get_context("fork").Process(target=_forked_curve, args=(pair, want))
    child.start()
    child.join(JOIN_TIMEOUT)
    alive = child.is_alive()
    if alive:
        child.kill()
        child.join(JOIN_TIMEOUT)
    assert not alive
    assert child.exitcode == 0


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert sweep._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert sweep._usable_cpus() == 1


def test_one_usable_cpu_starts_no_helper(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a helper thread was made")

    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 1)
    pair = spherium_pair(1)
    want = serial_entropy_curve(pair)
    monkeypatch.setattr(sweep.threading, "Thread", refuse)
    assert entropy_curve(pair) == want


def test_import_starts_no_thread():
    # helpers start only inside a grid with a group split into several
    # calls, and none outlives it; concurrent.futures is never loaded
    code = (
        "import sys, threading\n"
        "import entconvex\n"
        "from entconvex.lgmodes import LGMode\n"
        "from entconvex.sweep import criterion_vs_observation, lg_pair, spherium_pair\n"
        "assert threading.active_count() == 1\n"
        "criterion_vs_observation(lg_pair(LGMode(1, 1), LGMode(1, -1)))\n"
        "assert threading.active_count() == 1\n"
        "criterion_vs_observation(spherium_pair(1))\n"
        "assert threading.active_count() == 1, threading.enumerate()\n"
        "assert 'concurrent.futures' not in sys.modules\n"
    )
    _run_fresh(code)


def test_helpers_start_and_stop_within_a_curve(monkeypatch):
    # a threaded curve starts one helper per further usable CPU and joins
    # each before it returns
    started = []
    thread = threading.Thread

    def recorded(*args, **kwargs):
        started.append(thread(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(sweep.threading, "Thread", recorded)
    pair = spherium_pair(1)
    curve = entropy_curve(pair)
    monkeypatch.undo()
    assert len(started) == 2
    assert not any(t.is_alive() for t in started)
    assert curve == serial_entropy_curve(pair)


def test_queue_runs_largest_first(monkeypatch):
    # with no helper the caller drains the queue alone, in queue order: by
    # points x size**3, descending, each group's points covered once
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 1)
    seen = []
    solve = sweep._solve_chunk

    def spy(coef, terms, out):
        seen.append((len(coef), terms.shape[-1]))
        solve(coef, terms, out)

    monkeypatch.setattr(sweep, "_solve_chunk", spy)
    pair = spherium_pair(1)
    curve = entropy_curve(pair)
    assert curve == serial_entropy_curve(pair)
    costs = [points * size**3 for points, size in seen]
    assert costs == sorted(costs, reverse=True)
    covered = {}
    for points, size in seen:
        covered[size] = covered.get(size, 0) + points
    assert sorted(covered) == sorted(curve.solved_sizes)
    assert set(covered.values()) == {curve.solved_points}
