"""The small-pair rule: pairs of at most ``spectra.SMALL_ROWS`` rows are solved whole.

Such a pair is one block, with no link graph, component or exchange
search; a block of at most ``SMALL_ROWS`` rows is neither split on its own
exact blocks nor compressed onto its range.  Every angular pair is small
(at most 2 * 12 + 1 rows); LG's blocks of 32 rows are not, and keep the
range step.
"""

import numpy as np
import pytest

from entconvex import spectra, sweep
from entconvex.lgmodes import DEFAULT_BASIS_SIZE, LGMode
from entconvex.spectra import RANGE_TOL, SMALL_ROWS, gram_blocks, own_blocks
from entconvex.sweep import (
    EntropyCurve,
    PairSpec,
    angular_pair,
    classify_convexity,
    entropy_curve,
    lg_pair,
    pair_criterion,
)
from oracles import dense_entropy_curve, evaluate_criterion

GRID = 5


def _assert_small_matches_dense(pair, grid):
    rows = len(pair.amplitudes()[0])
    assert rows <= SMALL_ROWS
    gram = gram_blocks(*pair.amplitudes())
    assert gram.block_sizes == (rows,) and gram.dropped == 0.0 and gram.repeats is None
    curve = entropy_curve(pair, grid, gram=gram)
    assert curve.solved_sizes == (rows,) and curve.range_dropped == 0.0
    dense = dense_entropy_curve(pair, grid)
    np.testing.assert_allclose(curve.entropies, dense, rtol=0, atol=1e-12, err_msg=pair.label)
    want = EntropyCurve(curve.alphas, tuple(dense), dense[-1], dense[0])
    got, label = classify_convexity(curve, pair.chord_tol), classify_convexity(want, pair.chord_tol)
    assert got.label == label.label and abs(got.max_deviation - label.max_deviation) <= 1e-12, pair.label
    report = pair_criterion(pair)
    oracle = evaluate_criterion(pair.builder(1.0), pair.builder(0.0))
    for name in ("s0", "s1", "s_ns", "s_r"):
        assert abs(getattr(report, name) - getattr(oracle, name)) <= 1e-12, (pair.label, name)
    assert report.qc == oracle.qc, pair.label


@pytest.mark.parametrize("l", range(1, 13))
def test_angular_mirror_pairs_match_dense(l):
    # every M > 0 against -M; criterion 7's pairs, M = L, on all 41 points
    for L in range(1, 2 * l + 1):
        for M in range(1, L + 1):
            _assert_small_matches_dense(angular_pair(l, L, M), sweep.DEFAULT_GRID_SIZE if M == L else GRID)


@pytest.mark.parametrize("l", range(1, 7))
def test_angular_pairs_of_two_m_match_dense(l):
    # every pair M > M' of l <= 6: 2,933 in all
    for L in range(1, 2 * l + 1):
        for M in range(-L, L + 1):
            for Mp in range(-L, M):
                _assert_small_matches_dense(angular_pair(l, L, M, Mp), GRID)


def _square(c, rows):
    return np.pad(c, (0, rows - len(c)))


@pytest.mark.parametrize("rows", [SMALL_ROWS, SMALL_ROWS + 1], ids=["small", "one-more"])
def test_the_rule_switches_at_small_rows(monkeypatch, rows):
    small = rows <= SMALL_ROWS
    searched, ranged = [], []
    components, on_range = spectra.components, sweep._on_range
    monkeypatch.setattr(spectra, "components", lambda *a: searched.append(1) or components(*a))
    monkeypatch.setattr(sweep, "_on_range", lambda t: ranged.append(t.shape) or on_range(t))
    # an angular pair of 11 rows, padded with zeros: its blocks, found or not
    c0, c1 = (_square(c, rows) for c in angular_pair(5, 4, 4).amplitudes())
    pair = PairSpec(lambda: (c0, c1), f"angular l=5 L=M=4 in {rows} rows")
    gram = gram_blocks(c0, c1)
    assert (gram.block_sizes == (rows,)) == small and (len(searched) == 0) == small
    assert gram.dropped == 0.0
    # past SMALL_ROWS its one-row blocks stand in for the exchange partners of two rows
    assert (gram.repeats is None) == small
    curve = entropy_curve(pair, GRID, gram=gram)
    assert ranged == [] and curve.solved_sizes == tuple(rows.shape[1] for rows, _, _ in sweep._counted_groups(gram))
    np.testing.assert_allclose(curve.entropies, dense_entropy_curve(pair, GRID), rtol=0, atol=1e-12)
    # one block of rank at most 6: compressed onto its range only past SMALL_ROWS
    rng = np.random.default_rng(rows)
    c0, c1 = (rng.standard_normal((rows, 3)) + 1j * rng.standard_normal((rows, 3)) for _ in range(2))
    pair = PairSpec(lambda: (c0, c1), f"rank 6 in {rows} rows")
    curve = entropy_curve(pair, GRID)
    assert curve.block_sizes == (rows,) and (len(ranged) == 0) == small
    assert (curve.solved_sizes == (rows,)) == small and 0.0 <= curve.range_dropped <= RANGE_TOL
    np.testing.assert_allclose(curve.entropies, dense_entropy_curve(pair, GRID), rtol=0, atol=1e-12)
    # a block with two halves of exact zeros between them: split only past SMALL_ROWS
    half = rows // 2
    m = np.zeros((1, rows, rows))
    m[0, :half, :half] = m[0, half:, half:] = 1.0
    parts = own_blocks([np.arange(rows)[None]], [m])
    assert (parts is None) == small
    if not small:
        assert sorted(len(p) for group in parts for p in group) == [half, rows - half]


def test_lg_blocks_keep_the_range_step():
    # LG's one block of 32 rows lies past SMALL_ROWS: compressed onto its range
    assert SMALL_ROWS < DEFAULT_BASIS_SIZE
    pair = lg_pair(LGMode(2, 1), LGMode(3, -1))
    curve = entropy_curve(pair, GRID)
    assert curve.block_sizes == (DEFAULT_BASIS_SIZE,)
    assert curve.solved_sizes[0] < DEFAULT_BASIS_SIZE
    np.testing.assert_allclose(curve.entropies, dense_entropy_curve(pair, GRID), rtol=0, atol=1e-12)
