"""Two-oscillator model: analytic oracles for the decoupled limit, energy
and angular-momentum checks for the coupled one."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import roots_hermite

from entconvex import oscillator
from entconvex.oscillator import (
    OscBasisSpec,
    OscState,
    _ladder_matrices,
    angular_momentum_matrix,
    coefficient_tensor,
    gauge_phases,
    gauss_hermite,
    kappa_coefficients,
    omega_relative,
)
from entconvex.spectra import eigendecompose, gram_blocks, von_neumann_entropy
from entconvex.sweep import oscillator_pair, pair_criterion
from oracles import (
    cartesian_from_overlaps,
    cartesian_tensor,
    coefficient_tensor_analytic,
    energy_expectation,
    lz_residual,
)

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
            b = cartesian_tensor(s, SMALL)
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
            oscillator_pair(OscState(0, 1, 0, 0, 0.0), OscState(1, 1, 0, 0, 0.0), SMALL)

    def test_mirror_pair_isospectral(self):
        s0 = OscState(0, -2, 0, 0, 0.7)
        s1 = OscState(0, 2, 0, 0, 0.7)
        pair = oscillator_pair(s0, s1)
        a, b = pair.builder(1.0), pair.builder(0.0)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(a.entries), np.linalg.eigvalsh(b.entries), atol=1e-10
        )


# the oscillator states of tables 1 (lambda = 0) and 2 (lambda = 0.7)
TABLE_STATES = [
    *((q, 0.0) for q in [(0, 0, 3, -1), (0, 0, 3, 1), (3, 1, 0, 0), (1, 1, 2, 0), (0, 0, 2, -2),
                         (0, 0, 2, 2), (1, 1, 1, 1), (1, -1, 1, -1)]),
    *((q, 0.7) for q in [(1, -1, 0, 0), (1, 1, 0, 0), (2, -1, 0, 0), (2, 1, 0, 0), (0, -2, 0, 0),
                         (0, 2, 0, 0), (1, -2, 0, 0), (1, 2, 0, 0)]),
]
# every state with n <= 1, l <= 2, |m|, |p| <= 2 and lambda in {0, 0.7}
# whose mirror image is another state
MIRROR_GRID = [
    (n, m, l, p, lam)
    for lam in (0.0, 0.7) for n in range(2) for l in range(3)
    for m in range(-2, 3) for p in range(-2, 3) if (m, p) != (0, 0)
]


class TestGauge:
    """The phase gauge D = diag(i^(-ky)) makes every oscillator array real."""

    STATES = [(0, 0, 3, -1, 0.0), (1, 1, 2, 0, 0.0), (1, -1, 0, 0, 0.7), (2, 1, 0, 0, 0.7),
              (0, -2, 0, 0, 0.7), (0, 1, 1, -2, 0.3)]

    def test_gauge_phases_exact(self):
        assert np.array_equal(gauge_phases(9), [1, -1j, -1, 1j, 1, -1j, -1, 1j, 1])

    @pytest.mark.parametrize("q", STATES)
    def test_tensor_real(self, q):
        c = coefficient_tensor(OscState(*q))
        assert c.dtype == np.float64 and not c.flags.writeable
        assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("q", MIRROR_GRID)
    def test_mirror_bitwise(self, q):
        # P = diag((-1)^ky), with no conjugation, maps the state onto its image
        # exactly; a state the basis rejects has its image rejected alike
        s0 = OscState(*q)
        image = OscState(s0.n, -s0.m, s0.l, -s0.p, s0.lam)
        pair = oscillator_pair(s0, image)
        assert not pair.mirror.conj
        try:
            want = coefficient_tensor(image)
        except ValueError as exc:
            with pytest.raises(ValueError, match="norm deficit") as exc0:
                coefficient_tensor(s0)
            assert str(exc0.value) == str(exc)
            return
        c0, c1 = pair.amplitudes()
        assert np.array_equal(c1, want)
        assert np.array_equal(np.signbit(c1), np.signbit(want))

    @pytest.mark.parametrize("q, lam", TABLE_STATES)
    def test_contraction_matches_per_kappa_pair_oracle(self, q, lam):
        # the one real contraction against the complex accumulation, one
        # kappa pair at a time, over the same quadrature overlaps
        s = OscState(*q, lam)
        basis = OscBasisSpec()
        a_max, c_max = 2 * s.n + abs(s.m), 2 * s.l + abs(s.p)
        ox = oscillator._overlap_tensor(basis.n_per_coordinate, a_max, c_max,
                                        omega_relative(lam), basis.quadrature_order)
        want = cartesian_from_overlaps(s, ox)
        # normalized by the norm of |want|, a real array in the tensor's layout:
        # a complex norm sums its squares in another order, off by up to 3e-15
        want = want / np.linalg.norm(np.abs(want))
        assert np.max(np.abs(cartesian_tensor(s, basis) - want)) < 1e-15

    def test_cartesian_tensor_is_exact_inverse(self):
        s = OscState(1, -1, 0, 0, 0.7)
        c = cartesian_tensor(s)
        nb = OscBasisSpec().n_per_coordinate
        phase = np.tile(gauge_phases(nb), nb)
        assert np.array_equal((c * np.outer(phase, phase)).real, coefficient_tensor(s))

    def test_imaginary_remainder_raises(self, monkeypatch):
        # a kappa phase off the gauge's powers of i leaves the amplitudes complex
        kappa = oscillator.kappa_coefficients
        monkeypatch.setattr(
            oscillator, "kappa_coefficients",
            lambda n, m: {k: v * np.exp(0.25j * np.pi) for k, v in kappa(n, m).items()},
        )
        oscillator._coefficient_tensor_cached.cache_clear()
        try:
            with pytest.raises(ValueError, match="imaginary"):
                coefficient_tensor(OscState(1, 1, 0, 0, 0.0), SMALL)
        finally:
            oscillator._coefficient_tensor_cached.cache_clear()

    @pytest.mark.parametrize("basis", [SMALL, OscBasisSpec()])
    def test_lz_real_symmetric(self, basis):
        lz = angular_momentum_matrix(basis)
        assert lz.dtype == np.float64
        assert np.array_equal(lz, lz.T)
        # D L_z D^dagger of the Cartesian x p_y - y p_x
        nb = basis.n_per_coordinate
        x, P = _ladder_matrices(nb)
        p = 1j * P
        cart = np.kron(x, p) - np.kron(p, x)
        d = np.tile(gauge_phases(nb), nb)
        np.testing.assert_allclose(lz, d[:, None] * cart * d.conj(), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("basis", [SMALL, OscBasisSpec()])
    def test_lz_equals_complex_kron_bitwise(self, basis):
        # the real factors give the gauged complex kron formula to the bit
        nb = basis.n_per_coordinate
        x, P = _ladder_matrices(nb)
        p = 1j * P
        d = gauge_phases(nb)
        y = d[:, None] * x * d.conj()
        py = d[:, None] * p * d.conj()
        lz = (np.kron(x, py) - np.kron(p, y)).real
        want = 0.5 * (lz + lz.T)
        got = angular_momentum_matrix(basis)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_pair_solved_in_real_arithmetic(self):
        pair = oscillator_pair(OscState(1, -1, 0, 0, 0.7), OscState(1, 1, 0, 0, 0.7))
        gram = gram_blocks(*pair.amplitudes())
        assert all(terms.dtype == np.float64 for _, terms in gram.groups)
        for state in (0, 1):
            spec = gram.spectrum(gram.endpoint(state))
            assert all(u.dtype == np.float64 for _, u in spec.groups)


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
        pair = oscillator_pair(s0, s1)
        with_sectors = pair_criterion(pair)
        without = pair_criterion(dataclasses.replace(pair, sector_operator=None))
        assert with_sectors.s_ns >= without.s_ns - 1e-9
        assert with_sectors.s0 == pytest.approx(without.s0, abs=1e-12)
