"""Exchange pairs of alpha-curve blocks: one side solved, its eigenvalues counted twice.

Identical particles in an exchange-symmetric or -antisymmetric state, c =
s c^T, give block b of one particle's density the nonzero spectrum of the
blocks P holding b's columns (``spectra.exchange_repeats``).  Every curve
that pairs must match the dense per-point oracle to 1e-12; every case the
guards refuse must solve every block.
"""

import dataclasses

import numpy as np
import pytest

from entconvex import spectra, sweep
from entconvex.lgmodes import LGMode
from entconvex.spectra import gram_blocks
from entconvex.sweep import PairSpec, angular_pair, entropy_curve, lg_pair, spherium_pair
from oracles import above_small_rows, dense_entropy_curve

GRID = 5


def _pair(c0, c1, label="planted"):
    return PairSpec(lambda: (c0, c1), label)


def _assert_matches_dense(pair, gram=None):
    curve = entropy_curve(pair, GRID, gram=gram)
    np.testing.assert_allclose(curve.entropies, dense_entropy_curve(pair, GRID), rtol=0, atol=1e-12,
                               err_msg=pair.label)
    return curve


def _counts(gram):
    """Each block's count, keyed by its rows."""
    return {tuple(r): int(n) for (rows, _), rep in zip(gram.groups, gram.repeats) for r, n in zip(rows.tolist(), rep)}


def _spherium(M, Mprime=None, use_sectors=True):
    pair = spherium_pair(M, Mprime)
    return pair if use_sectors else dataclasses.replace(pair, sector_operator=None)


@pytest.mark.parametrize("use_sectors", [True, False], ids=["sectors", "no-sectors"])
@pytest.mark.parametrize(
    "M, Mprime, solved",
    [(1, None, [121, 132]), (-1, None, [121, 132]), (2, None, [60, 61, 66, 66]), (-2, None, [60, 61, 66, 66]),
     (2, 1, [253])],
    ids=["M1", "M-1", "M2", "M-2", "M2-1"],
)
def test_spherium_pairs(M, Mprime, solved, use_sectors):
    # M = +-1: 121 <-> 132 and 132 <-> 1 + 143; M = +-2: 60 <-> 1 + 71,
    # 61 <-> 72 and two 66 <-> 66; M = 2/1, no mirror: 253 <-> 1 + 273
    pair = _spherium(M, Mprime, use_sectors)
    gram = gram_blocks(*pair.amplitudes(), pair.sector_operator)
    counted = sorted(len(rows) for rows, n in _counts(gram).items() if n == 2)
    assert counted == solved
    assert 0.0 < gram.exchange_dropped <= 1.0
    curve = _assert_matches_dense(pair, gram)
    assert curve.exchange_dropped == gram.exchange_dropped


def test_angular_pairs_that_pair_match_dense():
    # every pair M > M' of l <= 6, lifted past the small-pair rule with rows
    # of zeros: 188 of the 2,933 pair, all exactly; the others have no
    # partners or only blocks below EXCHANGE_MIN_ROWS rows, which are solved
    # whole
    pairs = [angular_pair(l, L, M, Mp) for l in range(1, 7) for L in range(1, 2 * l + 1)
             for M in range(-L, L + 1) for Mp in range(-L, M)]
    paired = 0
    for pair in pairs:
        c0, c1 = above_small_rows(*pair.amplitudes())
        gram = gram_blocks(c0, c1)
        if gram.repeats is None:
            continue
        paired += 1
        assert gram.exchange_dropped == 0.0
        _assert_matches_dense(_pair(c0, c1, pair.label), gram)
    assert (len(pairs), paired) == (2933, 188)


def _planted(rng, sign, complex_, a=6, b=5, own=spectra.SMALL_ROWS):
    """c0, c1 of one exchange sign: block A of ``a`` rows coupled to B of
    ``b``, and a block C of ``own`` rows coupled to itself; rows and
    columns then permuted alike.  C's rows lift the pair past the
    small-pair rule (``spectra.SMALL_ROWS``)."""
    dim = a + b + own
    perm = rng.permutation(dim)
    cs = []
    for _ in range(2):
        x = rng.standard_normal((dim, dim))
        if complex_:
            x = x + 1j * rng.standard_normal((dim, dim))
        c = np.zeros((dim, dim), dtype=x.dtype)
        c[:a, a:a + b] = x[:a, a:a + b]
        c[a:a + b, :a] = sign * x[:a, a:a + b].T
        y = x[a + b:, a + b:]
        c[a + b:, a + b:] = y + sign * y.T
        cs.append(c[np.ix_(perm, perm)] / np.linalg.norm(c))
    return cs, np.argsort(perm)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("sign", [1, -1], ids=["symmetric", "antisymmetric"])
@pytest.mark.parametrize("a, b", [(6, 5), (5, 7), (5, 9)])
@pytest.mark.parametrize("seed", range(3))
def test_planted_pairs_solve_the_smaller_side(seed, a, b, sign, complex_):
    rng = np.random.default_rng([seed, a, b, sign + 1, complex_])
    (c0, c1), where = _planted(rng, sign, complex_, a, b)
    gram = gram_blocks(c0, c1)
    counts = _counts(gram)
    A, B, C = (tuple(sorted(where[list(r)].tolist())) for r in (range(a), range(a, a + b), range(a + b, len(c0))))
    assert counts == {A: 2 if a < b else 0, B: 0 if a < b else 2, C: 1}
    assert 0.0 <= gram.exchange_dropped <= 1.0
    _assert_matches_dense(_pair(c0, c1))


def test_opposite_signs_solve_every_block():
    # c0 symmetric and c1 antisymmetric: the superposition is neither, and
    # counting one side twice gives another entropy
    rng = np.random.default_rng(12)
    (c0, _), _ = _planted(rng, 1, False)
    (_, c1), _ = _planted(np.random.default_rng(12), -1, False)
    gram = gram_blocks(c0, c1)
    assert gram.repeats is None and gram.exchange_dropped == 0.0
    _assert_matches_dense(_pair(c0, c1))
    forced = dataclasses.replace(gram, repeats=gram_blocks(c0, c0).repeats)
    wrong = entropy_curve(_pair(c0, c1), GRID, gram=forced).entropies
    assert np.max(np.abs(np.array(wrong) - dense_entropy_curve(_pair(c0, c1), GRID))) > 1e-3


def test_perturbed_coupling_solves_its_blocks():
    # one coupling entry off by 1e-12 of the largest, far beyond rounding:
    # the pair it couples solves both sides, the other pair still pairs
    pair = spherium_pair(1)
    c0, c1 = pair.amplitudes()
    i, j = np.unravel_index(np.argmax(np.abs(c0)), c0.shape)
    c0 = c0.copy()
    c0[i, j] += 1e-12 * abs(c0[i, j])
    gram = gram_blocks(c0, c1)
    counts = _counts(gram)
    assert [n for rows, n in counts.items() if i in rows or j in rows] == [1, 1]
    assert sorted(n for rows, n in counts.items() if len(rows) > 1) == [0, 1, 1, 2]
    _assert_matches_dense(_pair(c0, c1), gram)


@pytest.mark.parametrize("args, sizes", [((2, 3, 3), (1,) * 5), ((3, 2, 2), (2, 2, 2, 1)), ((3, 1, 1), (4, 3))])
def test_small_blocks_solve_every_block(args, sizes):
    # exchange pairs (one-row blocks; 1 <-> 2; 3 <-> 4) of blocks below
    # EXCHANGE_MIN_ROWS rows: cheaper to solve than to pair.  Lifted past
    # the small-pair rule by rows of zeros, each a block of one row
    pair = angular_pair(*args)
    small = len(pair.amplitudes()[0])
    c0, c1 = above_small_rows(*pair.amplitudes())
    assert max(sizes) < spectra.EXCHANGE_MIN_ROWS
    gram = gram_blocks(c0, c1)
    assert gram.block_sizes == sizes + (1,) * (len(c0) - small) and gram.repeats is None
    _assert_matches_dense(_pair(c0, c1, pair.label), gram)
    wide = np.zeros((len(c0) + spectra.EXCHANGE_MIN_ROWS,) * 2)
    wide[:len(c0), :len(c0)] = c0
    wide[len(c0):, len(c0):] = 0.1  # an unpaired block large enough for the search
    assert gram_blocks(wide, np.pad(c1, (0, spectra.EXCHANGE_MIN_ROWS))).repeats is not None


def test_non_square_amplitudes_solve_every_block():
    # the leading square part is an exchange pair of blocks, but rows and
    # columns do not run over one basis
    rng = np.random.default_rng(3)
    (c0, c1), _ = _planted(rng, 1, False)
    extra = np.zeros((len(c0), 2))
    wide0, wide1 = np.hstack([c0, extra]), np.hstack([c1, extra])
    gram = gram_blocks(wide0, wide1)
    assert gram.repeats is None
    _assert_matches_dense(_pair(wide0, wide1), gram)
    assert gram_blocks(*lg_pair(LGMode(1, 1), LGMode(1, -1)).amplitudes()).repeats is None


def test_skipped_blocks_reach_no_solve(monkeypatch):
    # spherium M = +-1 is full rank, so the terms handed to each grid call
    # are the counted blocks' own, bit for bit, and no other block's
    pair = spherium_pair(1)
    gram = gram_blocks(*pair.amplitudes(), pair.sector_operator)
    counted = [terms[:, rep > 0] for (_, terms), rep in zip(gram.groups, gram.repeats) if rep.any()]
    seen, solved = [], []
    solve_chunk, eigvalsh = sweep._solve_chunk, np.linalg.eigvalsh

    def spy_solve_chunk(coef, terms, out):
        seen.append(terms)
        return solve_chunk(coef, terms, out)

    def spy_eigvalsh(a):
        solved.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(sweep, "_solve_chunk", spy_solve_chunk)
    monkeypatch.setattr(np.linalg, "eigvalsh", spy_eigvalsh)
    curve = entropy_curve(pair, gram=gram)
    assert len(seen) == len(solved) > 0
    assert all(any(t.shape == c.shape and np.array_equal(t, c) for c in counted) for t in seen)
    assert sum(s[0] * s[1] for s in solved) == curve.solved_points * sum(c.shape[1] for c in counted)
    assert sorted({s[-1] for s in solved}) == [121, 132]
