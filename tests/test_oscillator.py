"""Two-oscillator model: analytic oracles for the decoupled limit, energy
and angular-momentum checks for the coupled one."""

import math

import numpy as np
import pytest
from scipy.special import roots_hermite

from entconvex.oscillator import (
    OscBasisSpec,
    OscState,
    angular_momentum_matrix,
    coefficient_tensor,
    gauss_hermite,
    kappa_coefficients,
    omega_relative,
)
from entconvex.spectra import eigendecompose, von_neumann_entropy
from entconvex.sweep import oscillator_pair, pair_criterion
from oracles import coefficient_tensor_analytic, energy_expectation, lz_residual

SMALL = OscBasisSpec(n_per_coordinate=10, quadrature_order=32)


def _binomial_entropy_bits(n):
    """Entropy of the Schmidt channel of n quanta split (a1 +/- a2)/sqrt(2)."""
    probs = [math.comb(n, k) / 2.0**n for k in range(n + 1)]
    return -sum(p * math.log2(p) for p in probs)


class TestBasics:
    @pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan, -0.1])
    def test_rejects_bad_coupling(self, lam):
        with pytest.raises(ValueError, match="lambda"):
            OscState(1, 1, 0, 0, lam)

    def test_omega_relative(self):
        assert omega_relative(0.0) == 1.0
        assert omega_relative(0.7) == pytest.approx(math.sqrt(3.8), abs=1e-15)

    def test_energy_ladder(self):
        s = OscState(1, -2, 0, 0, 0.7)
        assert s.energy == pytest.approx(5.0 + math.sqrt(3.8), abs=1e-12)
        assert s.lz == -2

    def test_kappa_normalized(self):
        # several (j, k) feed the same Cartesian state (fixed j + k), so
        # amplitudes must be combined per target before squaring
        for n, m in [(0, 0), (1, 1), (0, -3), (2, 1)]:
            combined: dict[int, complex] = {}
            for (j, k), v in kappa_coefficients(n, m).items():
                combined[j + k] = combined.get(j + k, 0.0) + v
            total = sum(abs(v) ** 2 for v in combined.values())
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_basis_too_small_raises(self):
        with pytest.raises(ValueError):
            OscBasisSpec(n_per_coordinate=4).check_state(OscState(0, 0, 3, -1))


class TestGaussHermite:
    @pytest.mark.parametrize("order", [1, 7, 32, 48, 64])
    def test_matches_reference_rule(self, order):
        t, w = gauss_hermite(order)
        ref_t, ref_w = roots_hermite(order)
        np.testing.assert_allclose(t, ref_t, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(w, ref_w, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("order", [1, 7, 32, 48, 64])
    def test_even_moments_exact(self, order):
        # integral of t^{2k} exp(-t^2) = Gamma(k + 1/2), exact for 2k < 2 order
        t, w = gauss_hermite(order)
        for k in range(order):
            assert np.sum(w * t ** (2 * k)) == pytest.approx(math.gamma(k + 0.5), rel=1e-12)

    def test_cached_and_read_only(self):
        t, w = gauss_hermite(48)
        assert gauss_hermite(48)[0] is t
        for a in (t, w):
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestDecoupledLimit:
    def test_analytic_matches_quadrature(self):
        for q in [(0, 0, 1, -1), (1, 1, 0, 0), (0, -2, 0, 0)]:
            s = OscState(*q, 0.0)
            a = coefficient_tensor_analytic(s, SMALL)
            b = coefficient_tensor(s, SMALL)
            assert min(
                np.max(np.abs(a - b)), np.max(np.abs(a + b))
            ) < 1e-10  # global phase free

    def test_exact_binomial_entropies(self):
        # with the centered mode in its vacuum, the (a1 +/- a2)/sqrt(2)
        # rotation splits each relative circular mode's quanta binomially:
        # the entropy is the sum of the two binomial-channel entropies of
        # the chirality quanta (N +/- p)/2 with N = 2l + |p|
        cases = {
            (0, 0, 3, -1): _binomial_entropy_bits(3) + _binomial_entropy_bits(4),
            (0, 0, 1, -1): _binomial_entropy_bits(1) + _binomial_entropy_bits(2),
            (0, 0, 2, -2): _binomial_entropy_bits(2) + _binomial_entropy_bits(4),
        }
        for q, expected in cases.items():
            s = OscState(*q, 0.0)
            rho = oscillator_pair(s, s).builder(1.0)
            got = von_neumann_entropy(eigendecompose(rho))
            assert got == pytest.approx(expected, abs=1e-8)

    def test_energy_oracle_decoupled(self):
        s = OscState(0, 0, 3, -1, 0.0)
        assert energy_expectation(s) == pytest.approx(s.energy, abs=1e-8)


class TestCoupled:
    def test_energy_oracle(self):
        for q in [(1, -1, 0, 0), (0, 2, 0, 0)]:
            s = OscState(*q, 0.7)
            assert energy_expectation(s) == pytest.approx(s.energy, abs=1e-4)

    def test_lz_residual_small(self):
        assert lz_residual(OscState(1, -1, 0, 0, 0.7)) < 1e-3  # truncation-level

    def test_mismatched_coupling_rejected(self):
        with pytest.raises(ValueError):
            oscillator_pair(OscState(0, 1, 0, 0, 0.0), OscState(0, -1, 0, 0, 0.7))

    def test_non_degenerate_pair_warns(self):
        with pytest.warns(UserWarning):
            oscillator_pair(OscState(0, 1, 0, 0, 0.0), OscState(1, 1, 0, 0, 0.0), SMALL).builder(0.5)

    def test_mirror_pair_isospectral(self):
        s0 = OscState(0, -2, 0, 0, 0.7)
        s1 = OscState(0, 2, 0, 0, 0.7)
        pair = oscillator_pair(s0, s1)
        a, b = pair.builder(1.0), pair.builder(0.0)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(a.entries), np.linalg.eigvalsh(b.entries), atol=1e-10
        )


class TestSectorConvention:
    def test_sector_operator_hermitian(self):
        lz = angular_momentum_matrix(SMALL)
        np.testing.assert_allclose(lz, lz.conj().T, atol=1e-14)

    def test_sector_commutes_with_endpoint(self):
        basis = OscBasisSpec()
        s0 = OscState(1, -1, 0, 0, 0.7)
        s1 = OscState(1, 1, 0, 0, 0.7)
        rho = oscillator_pair(s0, s1, basis).builder(1.0).entries
        lz = angular_momentum_matrix(basis)
        assert np.max(np.abs(rho @ lz - lz @ rho)) < 1e-4  # truncation-level

    def test_sector_value_at_least_minimized(self):
        s0 = OscState(1, -1, 0, 0, 0.7)
        s1 = OscState(1, 1, 0, 0, 0.7)
        with_sectors = pair_criterion(oscillator_pair(s0, s1, use_sectors=True))
        without = pair_criterion(oscillator_pair(s0, s1, use_sectors=False))
        assert with_sectors.s_ns >= without.s_ns - 1e-9
        assert with_sectors.s0 == pytest.approx(without.s0, abs=1e-12)
