import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from entconvex.spectra import (
    BLOCK_LINK_TOL,
    SMALL_ROWS,
    SUPPORT_FLOOR,
    HermitianMatrix,
    NonHermitianError,
    NotDensityMatrixError,
    components,
    eigendecompose,
    entropy_bits,
    gap_clusters,
    gram_blocks,
    von_neumann_entropy,
)
from oracles import above_small_rows, components_by_search, reconstruct, reduce_pure_state


def _density(mat):
    return HermitianMatrix(np.asarray(mat, dtype=complex))


def _random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return _density(rho / np.real(np.trace(rho)))


class TestHermitianMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(NotDensityMatrixError):
            _density(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotDensityMatrixError):
            _density([[1.5, 0.0], [0.0, -0.5]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            HermitianMatrix(np.full((2, 2), bad))
        # a non-finite off-diagonal pair passes every comparison-based check
        with pytest.raises(ValueError, match="finite"):
            HermitianMatrix(np.array([[0.5, bad], [bad, 0.5]]))

    def test_entries_read_only(self):
        m = _density(np.eye(3) / 3.0)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 9.0


class TestEigendecompose:
    def test_descending_order_and_reconstruction(self):
        rng = np.random.default_rng(3)
        rho = _random_density(rng, 6)
        spec = eigendecompose(rho)
        assert np.all(np.diff(spec.eigenvalues) <= 1e-14)
        np.testing.assert_allclose(reconstruct(spec), rho.entries, atol=1e-12)

    def test_blocks_group_degenerate_eigenvalues(self):
        spec = eigendecompose(_density(np.diag([0.4, 0.4, 0.2])))
        assert [len(b) for b in spec.blocks] == [2, 1]

    def test_one_solve_per_density(self, monkeypatch):
        # the density check's eigh is the only solve; eigendecompose groups its pairs
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        rho = _random_density(np.random.default_rng(19), 5)
        spec = eigendecompose(rho)
        assert len(calls) == 1
        np.testing.assert_allclose(reconstruct(spec), rho.entries, atol=1e-12)

    def test_support_excludes_kernel(self):
        spec = eigendecompose(_density(np.diag([0.5, 0.5, 0.0])))
        assert np.flatnonzero(spec.eigenvalues > SUPPORT_FLOOR).tolist() == [0, 1]


class TestGapClusters:
    @staticmethod
    def _split_runs(w, tol):
        # the np.split form gap_clusters replaced
        cuts = np.flatnonzero(w[:-1] - w[1:] > tol * max(float(w[0] - w[-1]), 1.0)) + 1
        return [tuple(run.tolist()) for run in np.split(np.arange(len(w)), cuts)]

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_split_runs_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        # few distinct values, so ties and near ties repeat
        w = np.sort(rng.choice(rng.random(max(1, n // 3)), n) + rng.choice([0.0, 1e-9], n))[::-1]
        for tol in (1e-8, 0.05):
            got = gap_clusters(w, tol)
            assert got == self._split_runs(w, tol)
            assert all(type(i) is int for run in got for i in run)

    @pytest.mark.parametrize(
        "w", [np.array([0.3]), np.full(5, 0.2), np.array([0.5, 0.5 - 1e-9, 0.5 - 2e-9])],
        ids=["single", "all-tied", "one-chain"],
    )
    def test_one_cluster(self, w):
        assert gap_clusters(w, 1e-8) == self._split_runs(w, 1e-8) == [tuple(range(len(w)))]


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        spec = eigendecompose(_density(np.diag([1.0, 0.0, 0.0])))
        assert von_neumann_entropy(spec) == 0.0

    def test_maximally_mixed(self):
        spec = eigendecompose(_density(np.eye(4) / 4.0))
        assert von_neumann_entropy(spec) == pytest.approx(2.0, abs=1e-12)

    def test_binary_entropy_value(self):
        p = 0.25
        spec = eigendecompose(_density(np.diag([p, 1.0 - p])))
        expected = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
        assert von_neumann_entropy(spec) == pytest.approx(expected, abs=1e-12)

    def test_entropy_bits_per_row(self):
        # one entropy per set along the last axis; kernel and pure rows give 0
        w = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.25, 0.25, 0.5]])
        np.testing.assert_allclose(entropy_bits(w), [1.0, 0.0, 1.5], rtol=0, atol=1e-15)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotDensityMatrixError, match="negative eigenvalue"):
            entropy_bits(np.array([1.0 + 1e-9, -1e-9]))

    @given(st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_unitary_invariance(self, raw):
        w = np.array(raw) / sum(raw)
        rng = np.random.default_rng(int(sum(raw) * 1e6) % 2**31)
        q, _ = np.linalg.qr(
            rng.standard_normal((len(w), len(w))) + 1j * rng.standard_normal((len(w), len(w)))
        )
        rho = _density((q * w) @ q.conj().T)
        s_rot = von_neumann_entropy(eigendecompose(rho))
        s_diag = von_neumann_entropy(eigendecompose(_density(np.diag(w))))
        assert s_rot == pytest.approx(s_diag, abs=1e-9)


class TestReducePureState:
    """The dense trace-out oracle that ``PairSpec.builder`` matches bit for bit."""

    def test_bell_state_halves(self):
        rho = reduce_pure_state(np.eye(2) / math.sqrt(2.0))
        np.testing.assert_allclose(rho.entries, np.eye(2) / 2.0, atol=1e-14)

    def test_schmidt_entropies_match_sides(self):
        rng = np.random.default_rng(13)
        g = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        c = g / np.linalg.norm(g)
        sa = von_neumann_entropy(eigendecompose(reduce_pure_state(c)))
        sb = von_neumann_entropy(eigendecompose(reduce_pure_state(c.T)))
        assert sa == pytest.approx(sb, abs=1e-10)

    def test_entropy_from_singular_values(self):
        rng = np.random.default_rng(17)
        g = rng.standard_normal((4, 4))
        c = g / np.linalg.norm(g)
        w = np.linalg.svd(c, compute_uv=False) ** 2
        expected = -float(np.sum(w * np.log2(w)))
        got = von_neumann_entropy(eigendecompose(reduce_pure_state(c)))
        assert got == pytest.approx(expected, abs=1e-10)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            reduce_pure_state(np.eye(2))


class TestGramBlocks:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.inf)])
    def test_rejects_non_finite_amplitudes(self, bad):
        c = np.eye(2) / math.sqrt(2.0)
        c_bad = c.astype(complex)
        c_bad[0, 1] = bad
        for pair in ((c_bad, c), (c, c_bad)):
            with pytest.raises(ValueError, match="finite"):
                gram_blocks(*pair)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (3,)])
    def test_rejects_sector_operator_of_another_shape(self, shape):
        c = np.eye(3) / math.sqrt(3.0)
        with pytest.raises(ValueError, match="sector operator shape"):
            gram_blocks(c, c, np.ones(shape))

    @pytest.mark.parametrize(
        "entry, value, error",
        [((2, 2), math.nan, "finite"), ((0, 1), math.inf, "finite"), ((0, 1), 0.3, "hermiticity")],
        ids=["nan-diagonal", "inf-link", "asymmetric"],
    )
    def test_rejects_a_bad_sector_operator(self, entry, value, error):
        # every nonzero entry lies in one of the operator's blocks, where it is
        # checked: a NaN used to fail later in eigh, and an entry without its
        # mirror was symmetrized silently
        c = np.eye(3) / math.sqrt(3.0)
        op = np.diag([1.0, -1.0, 0.0])
        op[entry] = value
        with pytest.raises(ValueError, match=error):
            gram_blocks(c, c, op)

    def test_one_block_endpoint_is_reduce_pure_state(self):
        # one block of every row: the criterion's endpoint density and its
        # eigenpairs are those of reduce_pure_state to the bit
        rng = np.random.default_rng(23)
        c0, c1 = (rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5)) for _ in range(2))
        c0, c1 = c0 / np.linalg.norm(c0), c1 / np.linalg.norm(c1)
        gram = gram_blocks(c0, c1)
        assert gram.block_sizes == (4,)
        for state, c in enumerate((c0, c1)):
            (rho,) = gram.endpoint(state)
            spec = gram.spectrum((rho,))
            dense = reduce_pure_state(c)
            assert np.array_equal(rho[0], dense.entries)
            assert np.array_equal(spec.eigenvalues, eigendecompose(dense).eigenvalues)
            assert np.array_equal(spec.eigenvectors, eigendecompose(dense).eigenvectors)

    def test_endpoint_of_blocks_matches_dense(self):
        # two blocks, solved apart and embedded, against the dense density;
        # rows of zeros, blocks of one row each, lift the pair past SMALL_ROWS
        c0 = np.zeros((3, 3))
        c0[:2, :2] = [[0.6, 0.2], [0.1, 0.5]]
        c0[2, 2] = 0.3
        c0 /= np.linalg.norm(c0)
        (c0,) = above_small_rows(c0)
        zeros = len(c0) - 3
        gram = gram_blocks(c0, c0)
        assert sorted(gram.block_sizes) == [1] * (1 + zeros) + [2]
        rho = gram.endpoint(0)
        spec = gram.spectrum(rho)
        dense = reduce_pure_state(c0)
        # each block's eigenvectors stay in its rows; the dense view embeds them
        assert [u.shape for _, u in spec.groups] == [(1 + zeros, 1, 1), (1, 2, 2)]
        assert [m.shape for m in rho] == [(1 + zeros, 1, 1), (1, 2, 2)]
        for (rows, _), m in zip(spec.groups, rho):
            np.testing.assert_allclose(m[0], dense.entries[np.ix_(rows[0], rows[0])], rtol=0, atol=1e-15)
        np.testing.assert_allclose(spec.eigenvalues, eigendecompose(dense).eigenvalues, rtol=0, atol=1e-15)
        np.testing.assert_allclose(reconstruct(spec), dense.entries, rtol=0, atol=1e-15)
        assert spec.blocks == eigendecompose(dense).blocks


@st.composite
def symmetric_links(draw):
    """A symmetric boolean link matrix of 1-12 rows, links and self-links drawn
    apart, so some rows are isolated and some have no self-link."""
    n = draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.7]))
    upper = np.triu(draw(hnp.arrays(np.float64, (n, n), elements=st.floats(0.0, 1.0))) < density, 1)
    diag = draw(hnp.arrays(np.bool_, n))
    return upper | upper.T | np.diag(diag)


@st.composite
def patterns(draw):
    """A rectangular boolean pattern of 1-12 rows and 0-15 columns, some rows empty."""
    shape = (draw(st.integers(1, 12)), draw(st.integers(0, 15)))
    density = draw(st.sampled_from([0.0, 0.05, 0.15, 0.4]))
    return draw(hnp.arrays(np.float64, shape, elements=st.floats(0.0, 1.0))) < density


class TestComponents:
    @given(symmetric_links())
    @settings(max_examples=200, deadline=None)
    def test_equals_frontier_search_from_every_row(self, linked):
        # a link matrix is the pattern with its diagonal set
        got = components(linked | np.eye(len(linked), dtype=bool))
        want = components_by_search(linked)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @given(patterns())
    @settings(max_examples=300, deadline=None)
    def test_rectangular_pattern_joins_rows_through_shared_columns(self, pattern):
        got = components(pattern)
        want = components_by_search(pattern.astype(int) @ pattern.T.astype(int) > 0)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_long_chain_is_one_component(self):
        # row k shares column k with row k + 1: a chain of 200 links
        pattern = np.eye(200, dtype=bool) | np.eye(200, k=-1, dtype=bool)
        assert [p.tolist() for p in components(pattern[::-1])] == [list(range(200))]

    def test_isolated_rows_without_self_links(self):
        linked = np.zeros((5, 5), dtype=bool)
        linked[1, 3] = linked[3, 1] = True  # rows 1 and 3 carry no self-link
        linked[4, 4] = True
        assert [p.tolist() for p in components(linked | np.eye(5, dtype=bool))] == [[0], [1, 3], [2], [4]]
        # as a pattern, rows 1 and 3 share no column
        assert [p.tolist() for p in components(linked)] == [[0], [1], [2], [3], [4]]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_trace_out_keeps_the_blocks_and_the_dropped_link(self, seed):
        # the within-block links zeroed by one label comparison give the
        # per-block np.ix_ assignment's largest dropped link, to the bit
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(2, 9, 2)
        keep = rng.random((rows, cols)) < 0.3
        c0 = np.where(keep, rng.standard_normal((rows, cols)), 0.0)
        c1 = np.where(keep, 1e-9 * rng.standard_normal((rows, cols)), 0.0)
        # rows of zeros past SMALL_ROWS, isolated rows of the link graph
        zeros = np.zeros((SMALL_ROWS + 1 - rows, cols))
        c0, c1 = np.vstack([c0, zeros]), np.vstack([c1, zeros])
        gram = gram_blocks(c0, c1)
        a = np.abs(c0) + np.abs(c1)
        g = a @ a.T
        top = g.max()
        blocks = components_by_search(g > BLOCK_LINK_TOL * top)
        assert gram.block_sizes == tuple(len(b) for b in blocks)
        assert [r.tolist() for r, _ in gram.groups] == [
            [b.tolist() for b in blocks if len(b) == size] for size in sorted(set(gram.block_sizes))
        ]
        for b in blocks:
            g[np.ix_(b, b)] = 0.0
        assert gram.dropped == (g.max() / top if top > 0.0 else 0.0)
        assert gram.traced == cols
