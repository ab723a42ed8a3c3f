"""The single trace-out, alpha curves against the dense oracle, chord
classification, criterion-vs-observation records."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import entconvex
from entconvex import benchmarks, cli, sweep
from entconvex.angular import cg_matrix
from entconvex.benchmarks import reference_table
from entconvex.criterion import not_shared_entropy, refine_blocks_by_sector
from entconvex.lgmodes import DEFAULT_BASIS_SIZE, DEFAULT_QUADRATURE_ORDER, LGMode, mode_columns
from entconvex.oscillator import OscState, coefficient_tensor
from entconvex.spherium import SpheriumState
from entconvex.spectra import (
    RANGE_TOL,
    SMALL_ROWS,
    SUPPORT_FLOOR,
    GramBlocks,
    HermitianMatrix,
    NotDensityMatrixError,
    eigendecompose,
    gram_blocks,
    von_neumann_entropy,
)
from entconvex.sweep import (
    AgreementRecord,
    ConvexityLabel,
    EntropyCurve,
    PairSpec,
    angular_pair,
    classify_convexity,
    criterion_vs_observation,
    entropy_curve,
    lg_pair,
    oscillator_pair,
    pair_criterion,
    spherium_pair,
)
from oracles import (
    above_small_rows,
    block_density,
    dense_entropy_curve,
    dense_not_shared_entropy,
    dense_refine_blocks_by_sector,
    evaluate_criterion,
    superposition_density,
)

ALPHAS = st.floats(0.0, 1.0)
ENTRIES = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def amplitude_pairs(draw):
    """Two random complex amplitude matrices of one small shape."""
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 4)))
    return (
        draw(hnp.arrays(np.complex128, shape, elements=ENTRIES)),
        draw(hnp.arrays(np.complex128, shape, elements=ENTRIES)),
    )


@st.composite
def blocked_amplitude_pairs(draw):
    """(c0, c1, number of blocks): both block diagonal over one set of
    row/column blocks, rows and columns then permuted."""
    blocks = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=2, max_size=3))
    rows, cols = sum(r for r, _ in blocks), sum(c for _, c in blocks)
    c0 = np.zeros((rows, cols), dtype=complex)
    c1 = np.zeros((rows, cols), dtype=complex)
    r = c = 0
    for nr, nc in blocks:
        c0[r:r + nr, c:c + nc] = draw(hnp.arrays(np.complex128, (nr, nc), elements=ENTRIES))
        c1[r:r + nr, c:c + nc] = draw(hnp.arrays(np.complex128, (nr, nc), elements=ENTRIES))
        r, c = r + nr, c + nc
    prow = draw(st.permutations(range(rows)))
    pcol = draw(st.permutations(range(cols)))
    return c0[np.ix_(prow, pcol)], c1[np.ix_(prow, pcol)], len(blocks)


@st.composite
def low_rank_amplitude_pairs(draw):
    """(c0, c1) of shape (n, k) with k < n: c0c0^dagger + c1c1^dagger has
    rank at most 2k, below n when 2k < n, so the curve solves fewer rows."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n - 1))
    return (
        draw(hnp.arrays(np.complex128, (n, k), elements=ENTRIES)),
        draw(hnp.arrays(np.complex128, (n, k), elements=ENTRIES)),
    )


def _pair(c0, c1):
    return PairSpec(lambda: (c0, c1), "random")


def _row(table, i):
    return lambda: reference_table(table)[i].pair


def _entropy(pair, alpha):
    return von_neumann_entropy(eigendecompose(block_density(pair, alpha)))


def _superposition(c0, c1, alpha):
    amp = np.sqrt(alpha) * c0 + np.sqrt(1.0 - alpha) * c1
    norm = np.linalg.norm(amp)
    assume(norm > 1e-3)  # far from a vanishing superposition
    return amp / norm


def _schmidt_entropy(amp):
    """Entropy from the squared singular values, independent of any trace-out."""
    p = np.linalg.svd(amp / np.linalg.norm(amp), compute_uv=False) ** 2
    p = p[p > 0.0]
    return -float(np.sum(p * np.log2(p)))


MODEL_PAIRS = pytest.mark.parametrize(
    "make_pair",
    [
        lambda: angular_pair(3, 2, 1),
        _row(2, 0),
        lambda: spherium_pair(1),
        lambda: lg_pair(LGMode(1, 1), LGMode(2, -1)),
    ],
    ids=["angular", "oscillator", "spherium", "lg"],
)


def _haar(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestSingleTraceOut:
    @given(amplitude_pairs(), ALPHAS)
    @settings(max_examples=60, deadline=None)
    def test_entropy_is_schmidt_entropy(self, cs, alpha):
        # oracle independent of reduce_pure_state: squared singular values
        expected = _schmidt_entropy(_superposition(*cs, alpha))
        assert _entropy(_pair(*cs), alpha) == pytest.approx(expected, abs=1e-10)

    @given(amplitude_pairs(), ALPHAS, st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_local_unitary_invariance(self, cs, alpha, seed):
        c0, c1 = cs
        _superposition(c0, c1, alpha)
        rng = np.random.default_rng(seed)
        u, v = _haar(rng, c0.shape[0]), _haar(rng, c0.shape[1])
        moved = _pair(u @ c0 @ v.T, u @ c1 @ v.T)
        assert _entropy(moved, alpha) == pytest.approx(_entropy(_pair(c0, c1), alpha), abs=1e-10)

    @given(amplitude_pairs(), ALPHAS)
    @example((np.array([[0j], [1.0]]), np.array([[1.0 + 0j], [0.0]])), 1.7257388681757115e-16)
    @settings(max_examples=60, deadline=None)
    def test_swap_mirrors_alpha(self, cs, alpha):
        c0, c1 = cs
        # below about 1e-13, 1 - (1 - alpha) != alpha in floating point, and
        # sqrt turns that rounding into a 1e-9 amplitude gap; mirror the alpha
        # whose complement is exact, so both sides build one superposition
        alpha = 1.0 - (1.0 - alpha)
        _superposition(c0, c1, 1.0 - alpha)  # the state both sides build
        swapped = block_density(_pair(c1, c0), alpha).entries
        mirrored = block_density(_pair(c0, c1), 1.0 - alpha).entries
        np.testing.assert_allclose(swapped, mirrored, atol=1e-10)
        assert _entropy(_pair(c1, c0), alpha) == pytest.approx(
            _entropy(_pair(c0, c1), 1.0 - alpha), abs=1e-10
        )

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    @MODEL_PAIRS
    def test_builder_is_the_oracle_trace_out(self, make_pair, alpha):
        pair = make_pair()
        assert np.array_equal(pair.builder(alpha).entries, superposition_density(pair, alpha).entries)

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    @MODEL_PAIRS
    def test_block_density_is_the_oracle_trace_out(self, make_pair, alpha):
        # the pipeline's rho(alpha), from the amplitude blocks, against the
        # dense superposition; the oscillator's blocks drop links
        pair = make_pair()
        got = block_density(pair, alpha).entries
        np.testing.assert_allclose(got, superposition_density(pair, alpha).entries, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("alpha", [0.3, 1e-300, 1.0 - 2.0**-53, math.nan])
    def test_builder_forms_only_the_endpoints(self, alpha):
        with pytest.raises(ValueError, match="only for an endpoint"):
            angular_pair(3, 2, 1).builder(alpha)


GRID = 5  # the smallest grid entropy_curve accepts: endpoints and three interior points


def _assume_no_cancellation(c0, c1):
    # summing the block terms after the products costs relative accuracy
    # (norm of the parts / norm of the superposition)^2; keep it near 1
    for a in np.linspace(0.0, 1.0, GRID):
        amp = np.sqrt(a) * c0 + np.sqrt(1.0 - a) * c1
        parts = np.sqrt(a) * np.linalg.norm(c0) + np.sqrt(1.0 - a) * np.linalg.norm(c1)
        assume(np.linalg.norm(amp) > max(0.1 * parts, 1e-3))


class TestBlockCurve:
    """The block-diagonal batched curve against the dense per-point oracle."""

    @given(blocked_amplitude_pairs())
    @settings(max_examples=60, deadline=None)
    def test_planted_blocks_match_dense(self, planted):
        c0, c1, nblocks = planted
        _assume_no_cancellation(c0, c1)
        c0, c1 = above_small_rows(c0, c1)  # rows of zeros: blocks of one row past SMALL_ROWS
        pair = _pair(c0, c1)
        curve = entropy_curve(pair, GRID)
        np.testing.assert_allclose(curve.entropies, dense_entropy_curve(pair, GRID), rtol=0, atol=1e-12)
        # each planted block holds one detected block or more
        assert len(curve.block_sizes) >= nblocks
        assert sum(curve.block_sizes) == c0.shape[0]

    @given(low_rank_amplitude_pairs())
    @settings(max_examples=60, deadline=None)
    def test_low_rank_blocks_match_dense(self, cs):
        c0, c1 = cs
        _assume_no_cancellation(c0, c1)
        pair = _pair(c0, c1)
        curve = entropy_curve(pair, GRID)
        np.testing.assert_allclose(curve.entropies, dense_entropy_curve(pair, GRID), rtol=0, atol=1e-12)
        # rounding puts some of the 2k-rank's null directions above
        # RANGE_TOL, so only the block size bounds the solved size
        assert max(curve.solved_sizes) <= max(curve.block_sizes)
        assert 0.0 <= curve.range_dropped <= RANGE_TOL

    @given(amplitude_pairs())
    @settings(max_examples=60, deadline=None)
    def test_unstructured_match_dense(self, cs):
        _assume_no_cancellation(*cs)
        pair = _pair(*cs)
        curve = entropy_curve(pair, GRID)
        np.testing.assert_allclose(curve.entropies, dense_entropy_curve(pair, GRID), rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "make_pair, sizes, groups",
        [
            *[(_row(1, i), sizes, None) for i, sizes in enumerate(
                [[8, 12, 15], [8, 12, 15], [8, 12, 16], [7, 8, 12],
                 [2, 3, 4, 5, 6, 7], [2, 3, 4, 5, 6, 7], [3, 5, 7]])],
            (_row(2, 0), [128, 128], None),
            # the exchange pairs 121 <-> 132 and 132 <-> 1 + 143 solve one
            # side each: the groups of 121 and 132
            (lambda: spherium_pair(1), [121, 132, 132, 143], [121, 132]),
            *[(_row(4, i), [32], None) for i in range(5)],
        ],
        ids=[*(f"oscillator-table-1-{i}" for i in range(7)), "oscillator-table-2", "spherium-M1",
             *(f"lg-table-4-{i}" for i in range(5))],
    )
    def test_model_pairs_match_dense_and_report_blocks(self, make_pair, sizes, groups):
        pair = make_pair()
        curve = entropy_curve(pair, GRID)
        np.testing.assert_allclose(curve.entropies, dense_entropy_curve(pair, GRID), rtol=0, atol=1e-12)
        # the blocks of more than one row; all other rows are blocks of one
        assert sorted(n for n in curve.block_sizes if n > 1) == sizes
        assert sum(curve.block_sizes) == len(pair.amplitudes()[0])
        assert 0.0 <= curve.offblock_dropped <= 1e-15
        # one solved size per solved block size (every size where no block
        # pairs), none larger than its blocks
        groups = sorted(set(curve.block_sizes)) if groups is None else groups
        assert len(curve.solved_sizes) == len(groups)
        assert all(1 <= r <= n for r, n in zip(curve.solved_sizes, groups))
        assert 0.0 <= curve.range_dropped <= RANGE_TOL

    def test_cross_term_links_blocks(self):
        # c0 c0^dagger lives on rows {0, 1} and c1 c1^dagger on rows {2, 3},
        # but c0 c1^dagger couples them; blocks taken from the diagonal terms
        # alone would miss the coupling and give the wrong entropy inside
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        y = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        zero = np.zeros((2, 3))
        c0 = np.vstack([x, zero]) / np.linalg.norm(x)
        c1 = np.vstack([zero, y]) / np.linalg.norm(y)
        pair = _pair(c0, c1)
        curve = entropy_curve(pair, GRID)
        assert curve.block_sizes == (4,)
        expected = [
            _schmidt_entropy(np.sqrt(a) * c0 + np.sqrt(1.0 - a) * c1)
            for a in np.linspace(0.0, 1.0, GRID)
        ]
        np.testing.assert_allclose(curve.entropies, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(curve.entropies, dense_entropy_curve(pair, GRID), rtol=0, atol=1e-12)

    def test_rejects_vanishing_superposition(self):
        c = np.eye(2) / np.sqrt(2.0)
        with pytest.raises(ValueError, match="vanishes"):
            entropy_curve(_pair(c, -c))

    @pytest.mark.parametrize("fraction", [1.2, 0.8])
    def test_cancellation_bound(self, fraction):
        # unit 4 x 4 states with c1 = -cos(t) c0 + sin(t) e, e a unit vector
        # orthogonal to c0: the alpha = 1/2 point has squared norm sin^2(t/2)
        # of its parts'.  Just above the bound the curve holds to 1e-12;
        # just below it raises
        rng = np.random.default_rng(2024)
        c0 = rng.standard_normal((4, 4))
        c0 /= np.linalg.norm(c0)
        e = rng.standard_normal((4, 4))
        e -= np.vdot(c0, e) * c0
        e /= np.linalg.norm(e)
        t = 2.0 * np.arcsin(np.sqrt(fraction * sweep.CANCELLED_NORM2))
        c1 = -np.cos(t) * c0 + np.sin(t) * e
        pair = _pair(c0, c1)
        if fraction < 1.0:
            with pytest.raises(ValueError, match="vanishes"):
                entropy_curve(pair, GRID)
            return
        curve = entropy_curve(pair, GRID)
        assert curve.alphas[GRID // 2] == 0.5
        expected = [_schmidt_entropy(np.sqrt(a) * c0 + np.sqrt(1.0 - a) * c1) for a in curve.alphas]
        np.testing.assert_allclose(curve.entropies, expected, rtol=0, atol=1e-12)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            entropy_curve(_pair(np.eye(2), np.eye(3)))

    def test_rejects_negative_eigenvalue(self, monkeypatch):
        # an exchange pair whose solved blocks hold a zero eigenvalue: the
        # shifted zero, repeated for its partner, is caught; lifted past
        # the small-pair rule by rows of zeros, so that its blocks pair
        c0, c1 = above_small_rows(*angular_pair(5, 3, -1, -2).amplitudes())
        pair = _pair(c0, c1)
        assert any((r == 2).any() for r in gram_blocks(c0, c1).repeats)
        solve = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solve(a) - 1e-9)
        with pytest.raises(NotDensityMatrixError):
            entropy_curve(pair)

    def test_import_and_verdicts_leave_scipy_unloaded(self):
        # the package runs on numpy alone; scipy would add its import time
        # and resident memory to every process that builds a verdict
        code = (
            "import sys, entconvex, entconvex.cli\n"
            "from entconvex import angular, lgmodes, oscillator, spherium\n"
            "from entconvex.sweep import (\n"
            "    angular_pair, criterion_vs_observation, lg_pair, oscillator_pair, spherium_pair)\n"
            "for pair in (\n"
            "    angular_pair(2, 1, 1),\n"
            "    lg_pair(lgmodes.LGMode(1, 1), lgmodes.LGMode(1, -1)),\n"
            "    oscillator_pair(oscillator.OscState(0, 1, 0, 0), oscillator.OscState(0, -1, 0, 0)),\n"
            "    spherium_pair(1, lmax=12),\n"
            "):\n"
            "    criterion_vs_observation(pair)\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
        )
        _run_fresh(code)

    def test_verdicts_leave_fractions_unloaded(self):
        # Clebsch-Gordan coefficients are exact in integer arithmetic and
        # spherium's distance weights are integer quotients: no verdict of
        # any model loads fractions
        code = (
            "import sys, entconvex, entconvex.cli\n"
            "from entconvex import lgmodes, oscillator\n"
            "from entconvex.sweep import angular_pair, criterion_vs_observation, lg_pair, oscillator_pair, spherium_pair\n"
            "for pair in (\n"
            "    angular_pair(6, 2, 2),\n"
            "    lg_pair(lgmodes.LGMode(1, 1), lgmodes.LGMode(1, -1)),\n"
            "    oscillator_pair(oscillator.OscState(0, 1, 0, 0), oscillator.OscState(0, -1, 0, 0)),\n"
            "    spherium_pair(1),\n"
            "):\n"
            "    criterion_vs_observation(pair)\n"
            "assert 'fractions' not in sys.modules\n"
        )
        _run_fresh(code)

    @pytest.mark.parametrize(
        "make_pair, calls, full",
        [
            (lambda: lg_pair(LGMode(1, 1), LGMode(1, -1)), 1, 32),
            (lambda: lg_pair(LGMode(3, 4), LGMode(4, -3)), 1, 32),
            (_row(2, 0), None, 128),
            (lambda: spherium_pair(1), 4, None),
        ],
        ids=["lg-1-1", "lg-3-4", "oscillator-table-2", "spherium-M1"],
    )
    def test_eigvalsh_calls_per_curve(self, monkeypatch, make_pair, calls, full):
        # a dim-32 LG density is one block, and the whole grid goes in one
        # call; the spherium blocks (dim 529) solve one side of each
        # exchange pair, 121 and 132, and keep one dense density's entries
        # per call, 4 calls for the 21 points with alpha <= 1/2 that a
        # mirror pair solves of its 41.  LG and oscillator blocks are solved
        # on their amplitudes' range, smaller than the block (``full``); the
        # spherium blocks are full rank.  The oscillator's r, and so its call
        # count, moves with rounding.
        pair = make_pair()
        gram = gram_blocks(*pair.amplitudes())
        solves = []

        def spy(a, _solve=np.linalg.eigvalsh):
            solves.append(np.shape(a))
            return _solve(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        curve = entropy_curve(pair, gram=gram)
        solved = sorted({shape[-1] for shape in solves})
        assert solved == sorted(curve.solved_sizes)
        points = 21 if pair.mirror is not None else 41
        assert curve.solved_points == points
        blocks = len(curve.block_sizes) if gram.repeats is None else sum(int(np.count_nonzero(r)) for r in gram.repeats)
        assert sum(math.prod(shape[:-2]) for shape in solves) == points * blocks
        if calls is not None:
            assert len(solves) == calls
        if full is None:
            assert solved == [121, 132]
            assert curve.range_dropped == 0.0
        else:
            assert curve.block_sizes == (full,) * len(curve.block_sizes)
            assert max(solved) < full
            assert 0.0 < curve.range_dropped <= RANGE_TOL


def _criterion_6_pairs():
    """The criterion-6 LG pairs: the l, |m| <= 4 scan and table 4."""
    modes = [LGMode(l, m) for l in range(5) for m in range(-4, 5) if m != 0]
    pairs = [lg_pair(m0, m1) for i, m0 in enumerate(modes) if m0.m > 0 for m1 in modes[i + 1:]]
    return pairs + [row.pair for row in reference_table(4)]


def _spy_dtypes(monkeypatch):
    """Record the dtype of every matrix stack the curve hands to eigh and eigvalsh."""
    seen = []
    for name in ("eigh", "eigvalsh"):
        def spy(a, *args, _solve=getattr(np.linalg, name), **kwargs):
            seen.append(np.asarray(a).dtype)
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return seen


class TestRealCurve:
    """Complex terms that are real within their products' rounding are solved
    on their real parts; the complex solve is the oracle."""

    def test_criterion_6_pairs_solve_real(self, monkeypatch):
        pairs = _criterion_6_pairs()
        assert len(pairs) == 355
        grams = [gram_blocks(*pair.amplitudes()) for pair in pairs]
        assert all(np.iscomplexobj(terms) for gram in grams for _, terms in gram.groups)
        seen = _spy_dtypes(monkeypatch)
        curves = [entropy_curve(pair, gram=gram) for pair, gram in zip(pairs, grams)]
        assert seen and all(dtype == np.float64 for dtype in seen)
        assert max(c.imag_dropped for c in curves) <= 0.006
        monkeypatch.setattr(sweep, "_imag_ratio", lambda terms, traced: math.inf)
        seen.clear()
        for pair, gram, curve in zip(pairs, grams, curves):
            full = entropy_curve(pair, gram=gram)
            assert full.imag_dropped == 0.0
            np.testing.assert_allclose(curve.entropies, full.entropies, rtol=0, atol=1e-13, err_msg=pair.label)
        assert all(dtype == np.complex128 for dtype in seen)

    def test_criterion_6_pairs_match_dense(self):
        # on the scan's own 13-point grid
        for pair in _criterion_6_pairs():
            got = entropy_curve(pair, grid_size=13).entropies
            np.testing.assert_allclose(got, dense_entropy_curve(pair, 13), rtol=0, atol=1e-12, err_msg=pair.label)

    @pytest.mark.parametrize("make", ["random", "perturbed-lg"])
    def test_complex_terms_stay_complex(self, monkeypatch, make):
        if make == "random":  # |Im| about 1e14 times the bound
            rng = np.random.default_rng(4)
            c0, c1 = (rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)) for _ in range(2))
            least = 1e12
        else:  # an LG pair, c1 shifted by 1e-12 i: about 1e8 times the bound
            c0, c1 = lg_pair(LGMode(1, 1), LGMode(2, -1)).amplitudes()
            c1 = c1 + 1e-12j
            least = 1e7
        gram = gram_blocks(c0, c1)
        assert min(sweep._imag_ratio(terms, gram.traced) for _, terms in gram.groups) > least
        seen = _spy_dtypes(monkeypatch)
        curve = entropy_curve(_pair(c0, c1), gram=gram)
        assert curve.imag_dropped == 0.0
        assert seen and all(dtype == np.complex128 for dtype in seen)
        want = dense_entropy_curve(_pair(c0, c1), len(curve.alphas))
        np.testing.assert_allclose(curve.entropies, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "make_pair",
        [
            lambda: angular_pair(3, 2, 1),
            _row(2, 0),
            lambda: spherium_pair(1),
            lambda: _pair(*np.random.default_rng(6).standard_normal((2, 4, 6))),
        ],
        ids=["angular", "oscillator", "spherium", "random-real"],
    )
    def test_real_terms_skip_the_check(self, monkeypatch, make_pair):
        def fail(terms, traced):
            raise AssertionError("real terms were checked")

        monkeypatch.setattr(sweep, "_imag_ratio", fail)
        pair = make_pair()
        gram = gram_blocks(*pair.amplitudes(), pair.sector_operator)
        assert not any(np.iscomplexobj(terms) for _, terms in gram.groups)
        assert entropy_curve(pair, gram=gram).imag_dropped == 0.0


def test_support_floor_shared_with_dense_oracle():
    # a 4 x 4 pair whose superposition at alpha = 0.475 has a Schmidt weight
    # of 9e-13, below SUPPORT_FLOOR: the curve and the dense oracle drop it
    # alike, and both read about -p log2 p = 3.6e-11 bits below the exact
    # Schmidt entropy, more than the 1e-12 by which they agree
    rng = np.random.default_rng(5)
    p = np.array([0.9, 0.07, 0.03, 9.0e-13])
    p /= p.sum()
    target = _haar(rng, 4) @ np.diag(np.sqrt(p)) @ _haar(rng, 4)
    alpha = 0.475
    c1 = _haar(rng, 4) / 2.0
    c0 = (target - math.sqrt(1.0 - alpha) * c1) / math.sqrt(alpha)
    pair = _pair(c0, c1)
    curve = entropy_curve(pair)
    i = 19
    assert curve.alphas[i] == pytest.approx(alpha, abs=1e-15)
    dense = dense_entropy_curve(pair, len(curve.alphas))
    assert abs(curve.entropies[i] - dense[i]) <= 1e-12
    amp = math.sqrt(curve.alphas[i]) * c0 + math.sqrt(1.0 - curve.alphas[i]) * c1
    weights = np.linalg.svd(amp / np.linalg.norm(amp), compute_uv=False) ** 2
    assert weights[-1] == pytest.approx(9.0e-13, rel=1e-3)
    exact = _schmidt_entropy(amp)
    for got in (curve.entropies[i], dense[i]):
        assert 3.5e-11 < exact - got < 3.7e-11


def _run_fresh(code):
    """Run ``code`` in a new interpreter that imports the package from source."""
    src = str(Path(entconvex.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def _assert_criterion_matches_dense(pair):
    got = pair_criterion(pair)
    want = evaluate_criterion(
        pair.builder(1.0), pair.builder(0.0), sector_operator=pair.sector_operator
    )
    for name in ("s0", "s1", "s_ns", "s_r"):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12, (pair.label, name)
    assert got.qc == want.qc, pair.label
    if pair.sector_operator is not None:
        _assert_refinement_matches_dense(pair)


def _assert_refinement_matches_dense(pair):
    """The block refinement of the reference against the dense oracle's
    refinement of the same spectrum."""
    op = pair.sector_operator
    gram = gram_blocks(*pair.amplitudes(), op)
    spec0 = gram.spectrum(gram.endpoint(0))
    refined = refine_blocks_by_sector(spec0, gram.restrict(gram.sector, spec0))
    dense = dense_refine_blocks_by_sector(spec0, op)
    w = spec0.eigenvalues
    on_support = [b for b in refined.blocks if w[b[0]] > SUPPORT_FLOOR]
    assert on_support == [b for b in dense.blocks if dense.eigenvalues[b[0]] > SUPPORT_FLOOR], pair.label
    assert np.array_equal(refined.eigenvalues, w) and np.array_equal(dense.eigenvalues, w)
    # each degeneracy block's columns diagonalize the operator, in ascending order
    v = refined.eigenvectors
    for block in spec0.blocks:
        if len(block) > 1 and w[block[0]] > SUPPORT_FLOOR:
            vb = v[:, list(block)]
            r = vb.conj().T @ op @ vb
            assert np.max(np.abs(r - np.diag(np.diag(r)))) <= 1e-10, pair.label
            assert np.all(np.diff(np.diag(r).real) >= -1e-12), pair.label
    rho1 = pair.builder(0.0).entries
    got = not_shared_entropy(refined, gram.restrict(gram.endpoint(1), spec0))
    assert abs(got - dense_not_shared_entropy(dense, rho1)) <= 1e-12, pair.label


def _unitary(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]


@st.composite
def planted_sector_pairs(draw):
    """(c0, c1, sector operator): amplitudes block diagonal over three or
    four amplitude blocks of mixed sizes (A has 3-5 rows, B 2-4 and fewer
    than A, C 2-3, and a fourth of 1-2 or none), rows and columns then
    permuted.

    Each row carries a sector value and an eigenvalue of rho0:
    - a degeneracy block at ``lam_d`` on rows a1, a2 of block A and b1 of
      block B; a1 and b1 share a sector value, a2 has another, so block A
      holds two columns of it;
    - a chain of three eigenvalues near 1e-8, one in each of A, B and C,
      each step below the 1e-8 degeneracy gap, so they form one degeneracy
      block whose positional means differ from its rows' own eigenvalues;
      the partner is of the same size there, so its Theta terms are active;
    - the other rows ("bulk") have spaced eigenvalues;
    - blocks of one row each ("pad") lift the pair past the small-pair
      rule (``SMALL_ROWS``), at eigenvalues 1e-4 apart between the chain
      and the rest.
    Within each block, rho0 and rho1 are rotated among the bulk and
    lam_d rows of one sector, so both commute with the diagonal of the
    sector operator; the chain rows are left in place.  The operator also
    holds an entry between a1 and b1, which links blocks A and B.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    s, t = draw(st.permutations([-1, 0, 1]))[:2]
    # bulk rows per block; block A stays larger than block B
    extra = [draw(st.integers(0, 2))]
    extra += [draw(st.integers(0, extra[0])), draw(st.integers(1, 2))]
    fourth = draw(st.integers(0, 2))  # a fourth block of bulk rows, or none
    rng = np.random.default_rng(seed)
    lam_d = 0.05
    chain = np.cumsum([0.8e-8, *rng.uniform(0.3e-8, 0.9e-8, 2)])[::-1]
    # rows as (block, sector, role, eigenvalue); roles: d, chain, bulk, pad
    rows = [(0, s, "d", lam_d), (0, t, "d", lam_d), (0, s, "chain", chain[0]),
            (1, s, "d", lam_d), (1, t, "chain", chain[1]), (2, s, "chain", chain[2])]
    for block, n in enumerate(extra + [fourth]):
        rows += [(block, draw(st.sampled_from([-1, 0, 1])), "bulk", 0.0) for _ in range(n)]
    rows += [(4 + k, 0, "pad", 1e-4 * (k + 1)) for k in range(SMALL_ROWS + 1 - len(rows))]
    bulk = [i for i, r in enumerate(rows) if r[2] == "bulk"]
    spaced = rng.permutation(len(bulk)) + 1.0
    lam = np.array([r[3] for r in rows])
    lam[bulk] = spaced * (1.0 - lam.sum()) / spaced.sum()
    mu = np.array([rng.uniform(0.5, 1.5) * r[3] for r in rows])
    mu[bulk] = rng.uniform(0.2, 1.0, len(bulk))
    mu[bulk] *= (1.0 - mu.sum() + mu[bulk].sum()) / mu[bulk].sum()
    assume(np.all(mu > 0.0) and np.all(np.abs(np.subtract.outer(lam[bulk], lam_d)) > 1e-3))
    dim = len(rows)
    c0 = np.zeros((dim, dim), dtype=complex)
    c1 = np.zeros((dim, dim), dtype=complex)
    for block in sorted({r[0] for r in rows}):
        idx = [i for i, r in enumerate(rows) if r[0] == block]
        q0, q1 = np.eye(len(idx), dtype=complex), np.eye(len(idx), dtype=complex)
        for sector in (-1, 0, 1):
            mix = [k for k, i in enumerate(idx) if rows[i][1] == sector and rows[i][2] != "chain"]
            q0[np.ix_(mix, mix)] = _unitary(rng, len(mix))
            q1[np.ix_(mix, mix)] = _unitary(rng, len(mix))
        c0[np.ix_(idx, idx)] = (q0 * np.sqrt(lam[idx])) @ _unitary(rng, len(idx))
        c1[np.ix_(idx, idx)] = (q1 * np.sqrt(mu[idx])) @ _unitary(rng, len(idx))
    op = np.diag([float(r[1]) for r in rows])
    op[0, 3] = op[3, 0] = rng.uniform(0.2, 0.5)  # a1 and b1
    prow, pcol = rng.permutation(dim), rng.permutation(dim)
    return c0[np.ix_(prow, pcol)], c1[np.ix_(prow, pcol)], op[np.ix_(prow, prow)]


class TestBlockCriterion:
    """pair_criterion from the amplitude blocks against the dense criterion chain."""

    def test_lg_scan_matches_dense(self):
        # the criterion-6 scan; the LG(3, 4)/LG(4, -3) and LG(3, 2)/LG(4, +-1)
        # references have eigenvalues just outside one degeneracy block, where
        # S_NS moves by ~1e-10 under a one-ulp change of rho
        modes = [LGMode(l, m) for l in range(5) for m in range(-4, 5) if m != 0]
        pairs = [lg_pair(m0, m1) for i, m0 in enumerate(modes) if m0.m > 0 for m1 in modes[i + 1:]]
        assert len(pairs) == 350
        labels = {pair.label for pair in pairs}
        for m0, m1 in [((3, 4), (4, -3)), ((3, 2), (4, 1)), ((3, 2), (4, -1))]:
            assert lg_pair(LGMode(*m0), LGMode(*m1)).label in labels
        for pair in pairs:
            _assert_criterion_matches_dense(pair)

    def test_angular_mirror_pairs_match_dense(self):
        for l in range(1, 7):
            for L in range(1, 2 * l + 1):
                for M in range(1, L + 1):
                    _assert_criterion_matches_dense(angular_pair(l, L, M))

    @pytest.mark.parametrize("use_sectors", [True, False], ids=["sectors", "no-sectors"])
    @pytest.mark.parametrize(
        "make_pair",
        [
            _row(2, 0), lambda: spherium_pair(1),
            _row(2, 1), _row(2, 2), _row(2, 3),
            lambda: spherium_pair(2), lambda: spherium_pair(-2),
            # at lambda = 0, L_z links the amplitude blocks of each shell kx + ky
            lambda: oscillator_pair(OscState(0, 1, 0, 0), OscState(0, -1, 0, 0)),
        ],
        ids=["oscillator-table-2", "spherium-M1",
             "oscillator-table-2-row-1", "oscillator-table-2-row-2", "oscillator-table-2-row-3",
             "spherium-M2", "spherium-M-2", "oscillator-lambda-0"],
    )
    def test_sector_models_match_dense(self, make_pair, use_sectors):
        pair = make_pair()
        assert pair.sector_operator is not None
        if not use_sectors:
            pair = dataclasses.replace(pair, sector_operator=None)
        _assert_criterion_matches_dense(pair)

    def test_decoupled_oscillator_table_matches_dense(self):
        # table 1 has no sectors; its densities split into 224-244 amplitude blocks
        rows = reference_table(1)
        assert len(gram_blocks(*rows[0].pair.amplitudes()).block_sizes) == 224
        for row in rows:
            assert row.pair.sector_operator is None
            _assert_criterion_matches_dense(row.pair)

    @given(planted_sector_pairs())
    @settings(max_examples=40, deadline=None)
    def test_planted_sector_blocks_match_dense(self, planted):
        c0, c1, op = planted
        pair = PairSpec(lambda: (c0, c1), "planted", sector_operator=op)
        gram = gram_blocks(c0, c1)
        assert len(gram.block_sizes) >= 3 and len(set(gram.block_sizes)) >= 2
        spec0 = gram.spectrum(gram.endpoint(0))
        # the lam_d block spans two amplitude blocks; the chain is one block
        sizes = [len(b) for b in spec0.blocks]
        assert 3 in sizes and sizes[-1] == 3, sizes
        # the operator's entry between A and B merges them, and it couples no two blocks
        merged = gram_blocks(c0, c1, op)
        assert len(merged.block_sizes) == len(gram.block_sizes) - 1
        assert sum(np.count_nonzero(o) for o in merged.sector) == np.count_nonzero(op)
        _assert_criterion_matches_dense(pair)

    def test_sector_operator_links_shared_blocks(self):
        # amplitude blocks A (rows 0, 1), B (rows 2, 3) and C (row 4); one
        # degeneracy block spans A and B.  An operator entry between two
        # blocks links their rows in the trace-out, so the blocks merge and
        # the operator couples no two of them
        # the rows from 5 on are zeros, blocks of one row with eigenvalue 0
        # that lift the pair past the small-pair rule
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        c0 = np.zeros((5, 5))
        c0[:2, :2] = np.diag([0.6, 0.4]) @ h
        c0[2:4, 2:4] = np.diag([0.6, 0.3]) @ h
        c0[4, 4] = 0.5
        c0 /= np.linalg.norm(c0)
        c1 = c0[[1, 0, 3, 2, 4]]
        c0, c1 = above_small_rows(c0, c1)
        zeros = (1,) * (len(c0) - 5)
        gram = gram_blocks(c0, c1)
        assert gram.block_sizes == (2, 2, 1) + zeros
        assert [len(b) for b in gram.spectrum(gram.endpoint(0)).blocks] == [2, 1, 1, 1, len(zeros)]
        op = np.diag([1.0, -1.0, 1.0, -1.0, 0.0] + [0.0] * len(zeros))
        assert gram_blocks(c0, c1, op).block_sizes == (2, 2, 1) + zeros
        _assert_criterion_matches_dense(PairSpec(lambda: (c0, c1), "diagonal", sector_operator=op))
        op[0, 4] = op[4, 0] = 0.5
        assert gram_blocks(c0, c1, op).block_sizes == (3, 2) + zeros
        _assert_criterion_matches_dense(PairSpec(lambda: (c0, c1), "A-C", sector_operator=op))
        op[1, 3] = op[3, 1] = 0.5
        assert gram_blocks(c0, c1, op).block_sizes == (5,) + zeros
        _assert_criterion_matches_dense(PairSpec(lambda: (c0, c1), "A-B", sector_operator=op))

    @pytest.mark.parametrize(
        "make_pair",
        [*(_row(2, i) for i in range(4)), lambda: spherium_pair(1), lambda: spherium_pair(2)],
        ids=[*(f"oscillator-table-2-row-{i}" for i in range(4)), "spherium-M1", "spherium-M2"],
    )
    def test_table_sector_operators_keep_the_blocks(self, make_pair):
        # L_z and l_z link no two amplitude blocks of tables 2 and 3: the
        # trace-out is the one without the operator, bit for bit
        pair = make_pair()
        c0, c1 = pair.amplitudes()
        op = pair.sector_operator
        plain, gram = gram_blocks(c0, c1), gram_blocks(c0, c1, op)
        assert plain.sector is None
        for name in ("block_sizes", "dropped", "norms"):
            assert getattr(gram, name) == getattr(plain, name)
        assert len(gram.groups) == len(plain.groups) == len(gram.sector)
        for (rows, terms), (want_rows, want_terms), o in zip(gram.groups, plain.groups, gram.sector):
            assert np.array_equal(rows, want_rows) and np.array_equal(terms, want_terms)
            assert np.array_equal(o, op[rows[:, :, None], rows[:, None, :]])

    def test_oscillator_lambda_0_sectors_are_shells(self):
        # at lambda = 0, L_z links the rows of each shell kx + ky = s; the
        # 255 amplitude blocks of at most 2 rows become the 31 shells
        pair = oscillator_pair(OscState(0, 1, 0, 0), OscState(0, -1, 0, 0))
        c0, c1 = pair.amplitudes()
        nb = math.isqrt(len(c0))
        assert len(gram_blocks(c0, c1).block_sizes) == 255
        gram = gram_blocks(c0, c1, pair.sector_operator)
        assert len(gram.block_sizes) == 2 * nb - 1 and max(gram.block_sizes) == nb
        for rows, _ in gram.groups:
            shell = rows // nb + rows % nb
            assert np.all(shell == shell[:, :1])
        _assert_criterion_matches_dense(pair)
        curve = entropy_curve(pair, GRID, gram=gram)
        np.testing.assert_allclose(curve.entropies, dense_entropy_curve(pair, GRID), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("use_sectors", [True, False], ids=["sectors", "no-sectors"])
    def test_spherium_solves_only_amplitude_blocks(self, monkeypatch, use_sectors, empty_state_memo):
        pair = spherium_pair(1)
        if not use_sectors:
            pair = dataclasses.replace(pair, sector_operator=None)
        gram = gram_blocks(*pair.amplitudes(), pair.sector_operator)
        # no dim x dim array: the traced peak stays below one dense 529 x 529 float64
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sweep._criterion(pair, gram)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 529 * 529 * 8

        def refuse(*args, **kwargs):
            raise AssertionError("the criterion built a dense density")

        monkeypatch.setattr(HermitianMatrix, "__post_init__", refuse)
        monkeypatch.setattr(PairSpec, "builder", refuse)
        sizes, refined, inside = [], [], [False]
        for name in ("eigh", "eigvalsh"):
            def spy(a, *args, _solve=getattr(np.linalg, name), **kwargs):
                sizes.append(np.shape(a)[-1])
                if inside[0]:
                    refined.append(np.shape(a))
                return _solve(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)

        def refine(spec0, op, _refine=sweep.refine_blocks_by_sector):
            inside[0] = True
            try:
                return _refine(spec0, op)
            finally:
                inside[0] = False

        monkeypatch.setattr(sweep, "refine_blocks_by_sector", refine)
        pair_criterion(pair)
        # the density is 529 x 529 and its largest amplitude block 143, but
        # rho0 splits on its own exact pattern into parts of at most 11 rows
        assert max(sizes) == 11
        # each part holds one m1, so l_z is a multiple of the identity on it
        # and the sector refinement solves nothing
        assert refined == []


def _osc_state(lam, *q):
    return lambda: coefficient_tensor(OscState(*q, lam))


def _lg_mode(l, m):
    return lambda: mode_columns(l, m, DEFAULT_BASIS_SIZE, DEFAULT_QUADRATURE_ORDER)


def _cli_pair(argv):
    return lambda: cli.build_pair(cli.make_parser({}).parse_args(["curve", *argv.split()]))


# the second state of each mirror reference row, built directly by its model
MIRROR_ROWS = {
    (1, 0): _osc_state(0.0, 0, 0, 3, 1),
    (1, 3): _osc_state(0.0, 0, 0, 2, 2),
    (1, 6): _osc_state(0.0, 1, -1, 1, -1),
    **{(2, i): _osc_state(0.7, n, m, 0, 0) for i, (n, m) in enumerate([(1, 1), (2, 1), (0, 2), (1, 2)])},
    (3, 0): lambda: SpheriumState(-1).coefficients(),
    (3, 1): lambda: SpheriumState(-2).coefficients(),
    (4, 0): _lg_mode(1, -1),
    (4, 1): _lg_mode(2, -1),
    (4, 4): _lg_mode(3, -3),
    **{(5, L - 1): (lambda L=L: cg_matrix(3, L, -L)) for L in range(1, 7)},
}
MIRROR_PARAMS = [pytest.param(table, row, id=f"table-{table}-{row}") for table, row in MIRROR_ROWS]


def _assert_second_state(pair, second, spherium):
    c0, c1 = pair.amplitudes()
    want = second()
    assert c1.dtype == want.dtype and not c1.flags.writeable
    if spherium:  # the r12 sums run in another order for -M
        assert np.max(np.abs(c1 - want)) <= 2e-16
    else:
        assert np.array_equal(c1, want)


class TestMirrorPairs:
    """Pairs declared mirrored: c1 = T(c0), half the grid solved, S1 = S0."""

    def test_reference_rows_declared(self):
        # 18 of the 24 rows; the others pair states that no local symmetry swaps
        declared = {
            (table, i)
            for table in benchmarks.TABLE_IDS
            for i, row in enumerate(reference_table(table))
            if row.pair.mirror is not None
        }
        assert declared == set(MIRROR_ROWS)

    @pytest.mark.parametrize("table, row", MIRROR_PARAMS)
    def test_reference_row_second_state(self, table, row):
        _assert_second_state(reference_table(table)[row].pair, MIRROR_ROWS[table, row], table == 3)

    @pytest.mark.parametrize(
        "make_pair, second",
        [
            *[(lambda l=l, L=L: angular_pair(l, L, L), lambda l=l, L=L: cg_matrix(l, L, -L))
              for l in range(1, 7) for L in range(1, 2 * l + 1)],
            (_cli_pair("--model oscillator --n 1 --m -1 --l 0 --p 0 --lambda 0.7"),
             _osc_state(0.7, 1, 1, 0, 0)),
            (_cli_pair("--model oscillator --n 0 --m 1 --l 1 --p -2"), _osc_state(0.0, 0, -1, 1, 2)),
            (_cli_pair("--model lg --l 1 --m 1"), _lg_mode(1, -1)),
            (_cli_pair("--model lg --l 2 --m -3"), _lg_mode(2, 3)),
            (_cli_pair("--model angular --l 3 --L 2 --M 2"), lambda: cg_matrix(3, 2, -2)),
            (_cli_pair("--model spherium --M 1"), lambda: SpheriumState(-1).coefficients()),
        ],
    )
    def test_second_state(self, make_pair, second):
        pair = make_pair()
        assert pair.mirror is not None
        _assert_second_state(pair, second, pair.label.startswith("spherium"))

    @pytest.mark.parametrize(
        "make_pair",
        [lambda: spherium_pair(1), lambda: spherium_pair(-2), _row(2, 0), _row(1, 0),
         lambda: angular_pair(3, 2, 2), lambda: angular_pair(4, 3, 1), lambda: lg_pair(LGMode(1, 1), LGMode(1, -1))],
        ids=["spherium-1", "spherium-2", "oscillator-table-2", "oscillator-table-1", "angular-odd", "angular-even",
             "lg"],
    )
    def test_image_is_the_two_array_image(self, make_pair):
        # the signs applied in place give the image that 0.0 - c over a
        # second array gave, to the bit and with no negative zero
        pair = make_pair()
        c0, c1 = pair.amplitudes()
        t = pair.mirror
        c = c0.conj() if t.conj else c0
        if t.flip is not None:
            c = c[np.ix_(t.flip(c.shape[0]), t.flip(c.shape[1]))]
        if t.parity is not None:
            c = np.where(np.outer(t.parity(c.shape[0]), t.parity(c.shape[1])) != t.sign, 0.0 - c, c)
        elif t.sign < 0:
            c = 0.0 - c
        assert c1.dtype == c.dtype and c1.tobytes() == c.tobytes()
        assert not c1.flags.writeable and not np.may_share_memory(c1, c0) or c1 is c0

    def test_spherium_image_is_one_array(self):
        c0 = SpheriumState(1).coefficients()
        mirror = spherium_pair(1).mirror
        mirror(c0)  # index tables outside the trace
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            image = mirror(c0)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert image.nbytes <= peak < 1.5 * image.nbytes

    @pytest.mark.parametrize(
        "make_pair",
        [
            _row(1, 1), _row(1, 2), _row(4, 2),
            lambda: lg_pair(LGMode(2, 1), LGMode(2, 2)),
            lambda: angular_pair(3, 2, 2, 1), lambda: angular_pair(3, 2, 2, 2),
            lambda: angular_pair(3, 2, 0), lambda: spherium_pair(0), lambda: spherium_pair(1, 1),
            lambda: lg_pair(LGMode(1, 0), LGMode(1, 0)),
            lambda: oscillator_pair(OscState(1, 0, 0, 0), OscState(1, 0, 0, 0)),
        ],
        ids=["table-1-1", "table-1-2", "table-4-2", "lg-2-1-2-2", "angular-M-1", "angular-M-M",
             "angular-M0", "spherium-M0", "spherium-M-M", "lg-m0", "oscillator-m0-p0"],
    )
    def test_not_declared(self, make_pair):
        pair = make_pair()
        assert pair.mirror is None
        assert entropy_curve(pair, 7).solved_points == 7

    @pytest.mark.parametrize("table, row", MIRROR_PARAMS)
    def test_mirrored_matches_full(self, table, row):
        # the same amplitudes solved in full: only the mirrored half moves
        pair = reference_table(table)[row].pair
        full = dataclasses.replace(pair, mirror=None)
        got, want = criterion_vs_observation(pair), criterion_vs_observation(full)
        np.testing.assert_allclose(
            entropy_curve(pair).entropies, entropy_curve(full).entropies, rtol=0, atol=1e-13
        )
        assert got.report.s0 == want.report.s0 and got.report.qc == want.report.qc
        assert got.observed.label == want.observed.label
        assert got.report.s1 == got.report.s0
        assert abs(got.report.s1 - want.report.s1) <= 1e-13
        tol = 1e-14 if table == 3 else 0.0
        assert abs(got.report.s_ns - want.report.s_ns) <= tol
        assert abs(got.report.s_r - want.report.s_r) <= tol

    @pytest.mark.parametrize("grid", [5, 8, 41, 42])
    def test_solved_points(self, monkeypatch, grid):
        pair = angular_pair(4, 3, 2)
        full = dataclasses.replace(pair, mirror=None)
        points = []

        def spy(a, _solve=np.linalg.eigvalsh):
            points.append(np.shape(a)[0])
            return _solve(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        half = entropy_curve(pair, grid)
        assert half.solved_points == (grid + 1) // 2
        # one call per block size, holding every solved point
        assert set(points) == {half.solved_points}
        points.clear()
        whole = entropy_curve(full, grid)
        assert whole.solved_points == grid and set(points) == {grid}
        np.testing.assert_allclose(half.entropies, whole.entropies, rtol=0, atol=1e-13)
        assert half.entropies == half.entropies[::-1]

    def test_criterion_solves_only_the_reference(self, monkeypatch, empty_state_memo):
        pair = reference_table(2)[0].pair
        gram = gram_blocks(*pair.amplitudes(), pair.sector_operator)
        rho0 = gram.endpoint(0)
        solved = []

        def spy(self, blocks, _solve=GramBlocks.spectrum):
            solved.append(blocks)
            return _solve(self, blocks)

        monkeypatch.setattr(GramBlocks, "spectrum", spy)
        sweep._criterion(pair, gram)
        assert len(solved) == 1
        assert all(np.array_equal(a, b) for a, b in zip(solved[0], rho0))
        solved.clear()
        sweep._criterion(dataclasses.replace(pair, mirror=None), gram)
        assert len(solved) == 2


def test_table_forms_one_trace_out_per_row(monkeypatch):
    # the row's criterion and its curve read the same gram blocks
    calls = []

    def counted(c0, c1, sector=None):
        calls.append(c0.shape)
        return gram_blocks(c0, c1, sector)

    monkeypatch.setattr(sweep, "gram_blocks", counted)
    table = benchmarks.evaluate_table(5)
    assert len(calls) == len(table.rows) == 6


@pytest.mark.parametrize("table", benchmarks.TABLE_IDS)
def test_shared_trace_out_gives_the_pairs_own_criterion(table):
    # criterion_vs_observation hands its one trace-out to the criterion;
    # the report is, bitwise, the one pair_criterion forms from the pair
    for row in reference_table(table):
        assert criterion_vs_observation(row.pair).report == pair_criterion(row.pair)


def test_gram_passed_in_reads_no_amplitudes():
    # two amplitude blocks of non-orthogonal states: the curve's three
    # traces come from the trace-out, summed over its blocks; the rows from
    # 6 on are zeros, blocks of one row past SMALL_ROWS
    rng = np.random.default_rng(71)
    c0, c1 = np.zeros((2, SMALL_ROWS + 1, 5), dtype=complex)
    for c in (c0, c1):
        c[:3, :2] = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        c[3:6, 2:] = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    pair = PairSpec(amplitudes=lambda: (c0, c1), label="two blocks")
    gram = gram_blocks(c0, c1)
    assert gram.block_sizes == (3, 3) + (1,) * (SMALL_ROWS - 5)
    want = [np.vdot(c0, c0).real, np.vdot(c1, c1).real, 2.0 * np.vdot(c1, c0).real]
    np.testing.assert_allclose(gram.norms, want, rtol=1e-14, atol=0)

    def no_amplitudes():
        raise AssertionError("amplitudes() called although the trace-out was passed in")

    blind = dataclasses.replace(pair, amplitudes=no_amplitudes)
    assert entropy_curve(blind, gram=gram) == entropy_curve(pair)
    assert sweep._criterion(blind, gram) == pair_criterion(pair)


def test_public_names_resolve():
    # __all__ must name only what the package still defines
    assert [name for name in entconvex.__all__ if not hasattr(entconvex, name)] == []


def _curve(entropies):
    alphas = tuple(np.linspace(0.0, 1.0, len(entropies)))
    return EntropyCurve(
        alphas=alphas,
        entropies=tuple(entropies),
        s0=entropies[-1],
        s1=entropies[0],
    )


class TestEntropyCurve:
    def test_endpoint_consistency_enforced(self):
        with pytest.raises(ValueError):
            EntropyCurve((0.0, 0.5, 1.0), (1.0, 0.5, 1.0), s0=0.3, s1=1.0)

    def test_negative_entropy_rejected(self):
        with pytest.raises(ValueError):
            _curve([0.0, -0.5, 0.0])

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, -2e-12], ids=["nan", "inf", "-inf", "below-floor"]
    )
    def test_each_bad_entropy_rejected(self, bad):
        with pytest.raises(ValueError, match="entropies must be finite and non-negative"):
            _curve([0.0, bad, 0.0])

    def test_rounding_below_zero_accepted(self):
        assert _curve([0.0, -1e-12, 0.0]).entropies[1] == -1e-12

    def test_chord_endpoints(self):
        c = _curve([1.0, 0.6, 2.0])
        chord = c.chord()
        assert chord[0] == pytest.approx(1.0)
        assert chord[-1] == pytest.approx(2.0)


class TestClassify:
    def test_linear(self):
        c = _curve(list(np.linspace(0.5, 1.5, 9)))
        assert classify_convexity(c, 1e-9).label == "linear"

    def test_convex(self):
        a = np.linspace(0.0, 1.0, 9)
        c = _curve(list(1.0 + a - 0.5 * a * (1.0 - a)))
        assert classify_convexity(c, 1e-9).label == "convex"

    def test_concave(self):
        a = np.linspace(0.0, 1.0, 9)
        c = _curve(list(1.0 + a + 0.5 * a * (1.0 - a)))
        assert classify_convexity(c, 1e-9).label == "concave"

    def test_indefinite(self):
        a = np.linspace(0.0, 1.0, 21)
        wiggle = 0.2 * np.sin(2.0 * np.pi * a)
        c = _curve(list(1.0 + wiggle))
        assert classify_convexity(c, 1e-9).label == "indefinite"

    def test_max_deviation_reported(self):
        a = np.linspace(0.0, 1.0, 101)
        c = _curve(list(1.0 - a * (1.0 - a)))
        lab = classify_convexity(c, 1e-9)
        assert lab.max_deviation == pytest.approx(0.25, abs=1e-6)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            ConvexityLabel("wavy", 0.0)


class TestEntropyCurveBuilder:
    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            entropy_curve(angular_pair(1, 1, 1), grid_size=3)

    def test_same_state_constant(self):
        curve = entropy_curve(angular_pair(2, 2, 2, Mprime=2), grid_size=7)
        assert max(curve.entropies) - min(curve.entropies) < 1e-10

    def test_mirror_symmetry(self):
        # the symmetry a mirror pair relies on, on the curve solved in full
        pair = dataclasses.replace(angular_pair(3, 2, 2), mirror=None)
        curve = entropy_curve(pair, grid_size=11)
        assert curve.solved_points == 11
        s = np.array(curve.entropies)
        np.testing.assert_allclose(s, s[::-1], atol=1e-8)

    def test_endpoints_are_single_states(self):
        curve = entropy_curve(angular_pair(3, 1, 1), grid_size=5)
        assert curve.entropies[0] == curve.s1
        assert curve.entropies[-1] == curve.s0


class TestCriterionVsObservation:
    def test_convex_agreement(self):
        rec = criterion_vs_observation(angular_pair(3, 1, 1))
        assert rec.report.qc == 1
        assert rec.observed.label == "convex"
        assert rec.agree is True and rec.asserted

    def test_concave_agreement(self):
        rec = criterion_vs_observation(angular_pair(3, 4, 4))
        assert rec.report.qc == -1
        assert rec.observed.label == "concave"
        assert rec.agree is True

    def test_qc_zero_asserts_nothing(self):
        rec = criterion_vs_observation(angular_pair(3, 6, 6))
        assert rec.report.qc == 0
        assert rec.agree is None and not rec.asserted

    def test_record_type(self):
        rec = criterion_vs_observation(angular_pair(1, 1, 1), grid_size=5)
        assert isinstance(rec, AgreementRecord)
        assert rec.pair_label.startswith("angular")
