"""The trace-out's two-level block search against the search over every entry.

``gram_blocks`` first splits the rows into the connected components of the
exact nonzero pattern of c0 and c1 (and the sector operator's links), then
applies the ``BLOCK_LINK_TOL`` threshold of G = (|c0| + |c1|)(|c0| +
|c1|)^T inside each component, over its rows and touched columns only.
Rows of different components share no column, so their G entry is exactly
zero and every field must equal the trace-out that forms G over every row
and column (``oracles.gram_blocks_unmemoized``), bit for bit.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from entconvex import benchmarks, spectra
from entconvex.lgmodes import LGMode
from entconvex.spectra import BLOCK_LINK_TOL, SMALL_ROWS, gram_blocks
from entconvex.sweep import lg_pair, spherium_pair
from oracles import gram_blocks_unmemoized


def _same_array(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def assert_same_gram(got, want, dropped_rtol=0.0):
    """Every field of two trace-outs equal to the bit; ``dropped`` within ``dropped_rtol``."""
    assert (got.block_sizes, got.dim, got.traced) == (want.block_sizes, want.dim, want.traced)
    assert math.copysign(1.0, got.dropped) == math.copysign(1.0, want.dropped)
    if dropped_rtol:
        assert got.dropped == pytest.approx(want.dropped, rel=dropped_rtol, abs=0.0)
    else:
        assert got.dropped == want.dropped
    assert [type(n) for n in got.norms] == [type(n) for n in want.norms] and got.norms == want.norms
    assert len(got.groups) == len(want.groups)
    for (rows, terms), (rows_want, terms_want) in zip(got.groups, want.groups):
        assert _same_array(rows, rows_want) and _same_array(terms, terms_want)
    assert (got.sector is None) == (want.sector is None)
    if got.sector is not None:
        assert all(_same_array(a, b) for a, b in zip(got.sector, want.sector, strict=True))
    assert (got.repeats is None) == (want.repeats is None)
    if got.repeats is not None:
        assert all(_same_array(a, b) for a, b in zip(got.repeats, want.repeats, strict=True))
    assert got.exchange_dropped == want.exchange_dropped


SPHERIUM_PAIRS = [(M, Mp) for M in range(-2, 3) for Mp in range(-2, 3) if M != Mp]


@pytest.mark.parametrize("sectors", [True, False], ids=["sectors", "no-sectors"])
@pytest.mark.parametrize("M,Mp", SPHERIUM_PAIRS, ids=[f"M{M}/{Mp}" for M, Mp in SPHERIUM_PAIRS])
def test_spherium_pairs_equal_the_search_over_every_entry(M, Mp, sectors, empty_state_memo):
    pair = spherium_pair(M, Mp)
    c0, c1 = pair.amplitudes()
    op = pair.sector_operator if sectors else None
    assert_same_gram(gram_blocks(c0, c1, op), gram_blocks_unmemoized(c0, c1, op))


@pytest.mark.parametrize("row", range(7))
def test_table_1_rows_split_by_the_threshold_alone(row, empty_state_memo):
    # the uncoupled oscillators have (almost) no zero entry: one component,
    # and every block comes from G's threshold
    pair = benchmarks.reference_table(1)[row].pair
    c0, c1 = pair.amplitudes()
    gram = gram_blocks(c0, c1, pair.sector_operator)
    assert len(gram.block_sizes) > 1
    assert_same_gram(gram, gram_blocks_unmemoized(c0, c1, pair.sector_operator))


def test_lg_pair(empty_state_memo):
    c0, c1 = lg_pair(LGMode(2, 1), LGMode(2, 2)).amplitudes()
    assert_same_gram(gram_blocks(c0, c1), gram_blocks_unmemoized(c0, c1))


ROWS = SMALL_ROWS + 5


def _planted(seed, kind):
    """A sparse pair of ``ROWS`` rows with two components of the exact pattern.

    ``"sector"``: the components are joined only by one off-diagonal entry
    of the sector operator.  ``"threshold"``: one row of the first component
    reaches it only through entries far below ``BLOCK_LINK_TOL``, so the
    threshold splits it off.  ``"zero-rows"``: a third of the rows are zero
    in both states.
    """
    rng = np.random.default_rng(seed)
    half = ROWS // 2
    c0, c1 = np.zeros((ROWS, 12)), np.zeros((ROWS, 12))
    for c in (c0, c1):
        c[:half, :6] = rng.standard_normal((half, 6)) * (rng.random((half, 6)) < 0.6)
        c[half:, 6:] = rng.standard_normal((ROWS - half, 6)) * (rng.random((ROWS - half, 6)) < 0.6)
    sector = None
    if kind == "sector":
        sector = np.diag(rng.standard_normal(ROWS))
        sector[2, half + 1] = sector[half + 1, 2] = 0.5
    elif kind == "threshold":
        c0[0], c1[0] = 0.0, 0.0
        c0[0, 1] = c1[0, 1] = 1e-20  # links row 0 by G entries near 1e-20, below the threshold
        c0[1:half, 1] = c1[1:half, 1] = 1.0
    elif kind == "zero-rows":
        zero = rng.permutation(ROWS)[: ROWS // 3]
        c0[zero], c1[zero] = 0.0, 0.0
    return c0, c1, sector


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("kind", ["sector", "threshold", "zero-rows"])
def test_planted_sparse_pairs(kind, seed, empty_state_memo):
    c0, c1, sector = _planted(seed, kind)
    gram = gram_blocks(c0, c1, sector)
    # a G entry summed over a component's columns can round differently in
    # its last bit from the one summed over every column (BLAS blocks the
    # sum by its length), so on arbitrary input the largest dropped link is
    # equal only to rounding; on the model pairs above it is equal to the bit
    assert_same_gram(gram, gram_blocks_unmemoized(c0, c1, sector), dropped_rtol=4e-16)
    if kind == "sector":  # one block of every nonzero row, through the operator's one link
        assert max(gram.block_sizes) == sum(1 for r in range(ROWS) if c0[r].any() or c1[r].any())
    if kind == "threshold":
        s = np.abs(c0) + np.abs(c1)
        g = s @ s.T
        assert 0.0 < g[0, 1:].max() <= BLOCK_LINK_TOL * g.max()
        assert gram.block_sizes[0] == 1


def test_spherium_trace_out_forms_no_dense_array(empty_state_memo):
    # beyond the terms it returns, gram_blocks on spherium M = +-1 holds less
    # than one dense 529 x 529 float64 at a time: no |c|, G or c[rows] over
    # every column
    pair = spherium_pair(1)
    c0, c1 = pair.amplitudes()
    for op in (pair.sector_operator, None):
        gram_blocks(c0, c1, op)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            gram = gram_blocks(c0, c1, op)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held - start >= sum(terms.nbytes for _, terms in gram.groups)
        assert peak - held < 529 * 529 * 8


def test_exchange_search_gets_the_exact_pattern(monkeypatch, empty_state_memo):
    # the support of the exchange search is the boolean pattern of c0 or c1
    seen = []

    def spy(c0, c1, support, label, n, _search=spectra.exchange_repeats):
        seen.append(support)
        return _search(c0, c1, support, label, n)

    monkeypatch.setattr(spectra, "exchange_repeats", spy)
    pair = dataclasses.replace(spherium_pair(2), sector_operator=None)
    c0, c1 = pair.amplitudes()
    gram_blocks(c0, c1)
    (support,) = seen
    assert support.dtype == bool and np.array_equal(support, (c0 != 0) | (c1 != 0))
