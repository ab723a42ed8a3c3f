"""Endpoints and the range step on their own exact blocks, against the pair-block oracles."""

import dataclasses

import numpy as np
import pytest

from entconvex import benchmarks, spectra, sweep
from entconvex.lgmodes import LGMode
from entconvex.spectra import RANGE_TOL, component_labels, gram_blocks, own_blocks
from entconvex.sweep import angular_pair, entropy_curve, lg_pair, pair_criterion, spherium_pair
from oracles import components_by_search, pair_block_criterion, plain_on_range

REFERENCE_ROWS = [(table, i) for table in (2, 3, 4, 5) for i in range(len(benchmarks.reference_table(table)))]


def _angular_mirror_pairs():
    return [angular_pair(l, L, M) for l in range(1, 7) for L in range(1, 2 * l + 1) for M in range(1, L + 1)]


def _lg_scan():
    modes = [LGMode(l, m) for l in range(5) for m in range(-4, 5) if m != 0]
    return [lg_pair(m0, m1) for i, m0 in enumerate(modes) if m0.m > 0 for m1 in modes[i + 1:]]


def _spherium(M, use_sectors):
    pair = spherium_pair(M)
    return pair if use_sectors else dataclasses.replace(pair, sector_operator=None)


def _plain_curve(pair, gram, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(sweep, "_on_range", plain_on_range)
        return entropy_curve(pair, gram=gram)


def _assert_matches_oracle(pair, monkeypatch, bitwise):
    """The verdict against the pair-block criterion and the plain range step."""
    gram = gram_blocks(*pair.amplitudes(), pair.sector_operator)
    got, want = sweep._criterion(pair, gram), pair_block_criterion(pair, gram)
    if bitwise:
        assert got == want, pair.label
    for name in ("s0", "s1", "s_ns", "s_r"):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12, (pair.label, name)
    assert got.qc == want.qc, pair.label
    curve, plain = entropy_curve(pair, gram=gram), _plain_curve(pair, gram, monkeypatch)
    np.testing.assert_allclose(curve.entropies, plain.entropies, rtol=0, atol=1e-12, err_msg=pair.label)
    assert curve.range_dropped <= RANGE_TOL
    labels = [sweep.classify_convexity(c, pair.chord_tol).label for c in (curve, plain)]
    assert labels[0] == labels[1], pair.label
    return curve, plain


class TestAgainstPairBlockOracles:
    """The criterion on rho0's own blocks against pair_block_criterion, and the
    curve's range step on the own blocks of c0c0^dagger + c1c1^dagger against
    one eigh per amplitude block (plain_on_range)."""

    @pytest.mark.parametrize("table, row", REFERENCE_ROWS, ids=[f"table-{t}-{i}" for t, i in REFERENCE_ROWS])
    def test_reference_rows(self, monkeypatch, table, row):
        # 17 rows; the oscillator (table 2) and LG (table 4, three mirror
        # rows among them) reports split nothing and stay bitwise, and LG's
        # S has no zero entry, so its curve is the plain one
        pair = benchmarks.reference_table(table)[row].pair
        curve, plain = _assert_matches_oracle(pair, monkeypatch, bitwise=table in (2, 4))
        if table == 4:
            assert curve == plain
        if table in (3, 5):  # the oscillator's rank moves with rounding (FOUND line 30); these do not
            assert curve.solved_sizes == plain.solved_sizes

    @pytest.mark.parametrize("use_sectors", [True, False], ids=["sectors", "no-sectors"])
    @pytest.mark.parametrize("M", [1, -1, 2, -2])
    def test_spherium(self, monkeypatch, M, use_sectors):
        curve, plain = _assert_matches_oracle(_spherium(M, use_sectors), monkeypatch, bitwise=False)
        assert curve.solved_sizes == plain.solved_sizes

    def test_angular_mirror_pairs(self, monkeypatch):
        # every angular pair is small: one block, solved whole, so nothing splits
        pairs = _angular_mirror_pairs()
        assert len(pairs) == 203 and all(p.mirror is not None for p in pairs)
        for pair in pairs:
            curve, plain = _assert_matches_oracle(pair, monkeypatch, bitwise=True)
            assert curve == plain, pair.label

    def test_lg_scan_is_bitwise(self, monkeypatch):
        # LG's S_NS moves by 1e-10 under a one-ulp change of rho0: equal means bit for bit
        pairs = _lg_scan()
        assert len(pairs) == 350
        for pair in pairs:
            gram = gram_blocks(*pair.amplitudes())
            assert sweep._criterion(pair, gram) == pair_block_criterion(pair, gram), pair.label

    @pytest.mark.parametrize("M, sizes", [(1, range(21, 24)), (2, range(10, 15))])
    def test_spherium_parts(self, M, sizes):
        # each pair block of rho0 splits into 21-23 (M = +-1) or 10-14 (M = +-2)
        # parts of at most 11 rows, each of one m1: l_z is a multiple of the
        # identity on every part
        pair = spherium_pair(M)
        gram = gram_blocks(*pair.amplitudes(), pair.sector_operator)
        spec = gram.spectrum(gram.endpoint(0))
        lz = np.diagonal(pair.sector_operator)
        parts = [part for rows, _ in spec.groups for part in rows]
        for rows, _ in gram.groups:
            for block in rows:
                inside = [part for part in parts if np.isin(part, block).all()]
                assert sum(len(part) for part in inside) == len(block)
                if len(block) > 1:
                    assert len(inside) in sizes
        assert max(p.shape[1] for p, _ in spec.groups) == 11
        for rows, _ in spec.groups:
            assert np.all(lz[rows] == lz[rows[:, :1]])

    @pytest.mark.parametrize("link, parts", [(0.0, [[0, 1], [2], [3]]), (0.5, [[0, 1, 2], [3]])])
    def test_sector_links_merge_parts(self, empty_state_memo, link, parts):
        # rows 0-2 and 4 on are one amplitude block, larger than SMALL_ROWS,
        # which rho0 splits into {0, 1}, {2} and one part per row from 4 on;
        # an operator entry between rows 1 and 2 joins the first two parts,
        # so it couples no two of them; read-only, so the memo stores c0 and
        # c1, whose endpoints a pair with an operator still solves on each call
        n = spectra.SMALL_ROWS + 2
        c0 = np.zeros((n, n))
        c0[0, :2], c0[1, :2], c0[2, 2], c0[3, 3] = [0.5, 0.3], [0.2, -0.4], 0.6, 0.3
        c0[4:, 4:] = np.diag(np.linspace(0.2, 0.1, n - 4))
        c0 /= np.linalg.norm(c0)
        c1 = c0[[2, 1, 4, 3, *range(5, n), 0]]  # the cycle 0 -> 2 -> 4 -> ... -> n - 1 -> 0 links the rows
        c0.setflags(write=False)
        c1.setflags(write=False)
        op = np.diag([1.0, 1.0, 2.0, 0.0] + [0.0] * (n - 4))
        op[1, 2] = op[2, 1] = link
        pair = sweep.PairSpec(lambda: (c0, c1), "rho0 split", sector_operator=op)
        for _ in range(2):  # cold, then with both states stored
            gram = gram_blocks(c0, c1, op)
            assert gram.block_sizes == (n - 1, 1) and None not in gram.states
            spec = gram.spectrum(gram.endpoint(0))
            got = sorted(sorted(p.tolist()) for rows, _ in spec.groups for p in rows)
            assert got == parts + [[i] for i in range(4, n)]
            got, want = sweep._criterion(pair, gram), pair_block_criterion(pair, gram)
            for name in ("s0", "s_ns", "s_r"):
                assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12, name
            assert got.qc == want.qc

    @pytest.mark.parametrize("M", [1, 2])
    def test_eigh_own_is_an_eigendecomposition(self, M):
        pair = spherium_pair(M)
        gram = gram_blocks(*pair.amplitudes())
        for rows, terms in gram.groups:
            if rows.shape[1] == 1:
                continue
            sym = terms[0] + terms[1]
            w, u = sweep._eigh_own(sym)
            want = np.linalg.eigvalsh(sym)
            scale = np.abs(want).max()
            assert np.all(np.diff(w, axis=1) >= 0.0)
            np.testing.assert_allclose(w, want, rtol=0, atol=1e-14 * scale)
            np.testing.assert_allclose(u.swapaxes(1, 2) @ u, np.broadcast_to(np.eye(rows.shape[1]), u.shape),
                                       rtol=0, atol=1e-13)
            np.testing.assert_allclose(sym @ u, u * w[:, None, :], rtol=0, atol=1e-14 * scale)


class TestSplitStaysOffLGAndTheOscillator:
    """No LG or coupled-oscillator criterion searches or cuts parts: one zero test per group."""

    @pytest.fixture
    def searched(self, monkeypatch):
        calls = []

        def spy(name):
            real = getattr(spectra, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(spectra, name, counted)

        for name in ("component_labels", "cut_blocks"):
            spy(name)
        monkeypatch.setattr(sweep, "cut_blocks", spectra.cut_blocks)
        return calls

    def test_lg_scan(self, searched, empty_state_memo):
        for pair in _lg_scan() + [row.pair for row in benchmarks.reference_table(4)]:
            sweep.criterion_vs_observation(pair)
        assert searched == []

    @pytest.mark.parametrize("row", range(4))
    def test_coupled_oscillator_criterion(self, searched, empty_state_memo, row):
        pair = benchmarks.reference_table(2)[row].pair
        pair_criterion(pair)
        assert searched == []


@pytest.mark.parametrize("seed", range(20))
def test_component_labels_match_a_search(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    linked = rng.random((3, n, n)) < rng.choice([0.05, 0.2, 0.5])
    linked |= linked.swapaxes(1, 2)
    labels = component_labels(linked)
    for block, label in zip(linked, labels):
        for part in components_by_search(block | np.eye(n, dtype=bool)):
            assert np.all(label[part] == part[0])


def test_own_blocks_keep_a_layout_without_zeros():
    # blocks of n and n + 1 rows, larger than SMALL_ROWS: the even rows, and
    # the odd ones with row 2n
    rng = np.random.default_rng(5)
    n = spectra.SMALL_ROWS + 1
    even, odd = list(range(0, 2 * n, 2)), list(range(1, 2 * n, 2))
    layout = [np.array([even]), np.array([odd + [2 * n]])]
    mats = [rng.standard_normal((1, n, n)), rng.standard_normal((1, n + 1, n + 1))]
    assert own_blocks(layout, mats) is None
    mats[1][0, 0, n] = mats[1][0, n, 0] = 0.0  # one zero pair, still linked through row 1
    assert own_blocks(layout, mats) is None
    mats[1][0, 1:n, n] = mats[1][0, n, 1:n] = 0.0  # row 2n alone now
    parts = own_blocks(layout, mats)
    assert [p.tolist() for p in parts] == [[[2 * n]], [even, odd]]
    assert [m.shape for m in spectra.cut_blocks(layout, mats, parts)] == [(1, 1, 1), (2, n, n)]
