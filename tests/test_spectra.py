import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entconvex.spectra import (
    HermitianMatrix,
    NonHermitianError,
    NotDensityMatrixError,
    eigendecompose,
    gram_blocks,
    reduce_pure_state,
    von_neumann_entropy,
)
from oracles import reconstruct


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
        assert spec.support == (0, 1)


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

    def test_one_block_endpoint_is_reduce_pure_state(self):
        # one block of every row: the criterion's endpoint density and its
        # eigenpairs are those of reduce_pure_state to the bit
        rng = np.random.default_rng(23)
        c0, c1 = (rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5)) for _ in range(2))
        c0, c1 = c0 / np.linalg.norm(c0), c1 / np.linalg.norm(c1)
        gram = gram_blocks(c0, c1)
        assert gram.block_sizes == (4,)
        for state, c in enumerate((c0, c1)):
            spec, (rho,) = gram.endpoint(state)
            dense = reduce_pure_state(c)
            assert np.array_equal(rho[0], dense.entries)
            assert np.array_equal(spec.eigenvalues, eigendecompose(dense).eigenvalues)
            assert np.array_equal(spec.eigenvectors, eigendecompose(dense).eigenvectors)

    def test_endpoint_of_blocks_matches_dense(self):
        # two blocks, solved apart and embedded, against the dense density
        c0 = np.zeros((3, 3))
        c0[:2, :2] = [[0.6, 0.2], [0.1, 0.5]]
        c0[2, 2] = 0.3
        c0 /= np.linalg.norm(c0)
        gram = gram_blocks(c0, c0)
        assert sorted(gram.block_sizes) == [1, 2]
        spec, rho = gram.endpoint(0)
        dense = reduce_pure_state(c0)
        # each block's eigenvectors stay in its rows; the dense view embeds them
        assert [u.shape for _, u in spec.groups] == [(1, 1, 1), (1, 2, 2)]
        assert [m.shape for m in rho] == [(1, 1, 1), (1, 2, 2)]
        for (rows, _), m in zip(spec.groups, rho):
            np.testing.assert_allclose(m[0], dense.entries[np.ix_(rows[0], rows[0])], rtol=0, atol=1e-15)
        np.testing.assert_allclose(spec.eigenvalues, eigendecompose(dense).eigenvalues, rtol=0, atol=1e-15)
        np.testing.assert_allclose(reconstruct(spec), dense.entries, rtol=0, atol=1e-15)
        assert spec.blocks == eigendecompose(dense).blocks
