"""Two electrons on a sphere: distance-expansion identities, a pointwise
wave-function oracle, and the reduced radial equation."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import sph_harm_y

from entconvex import spherium
from entconvex.spherium import (
    SpheriumState,
    angular_momentum_diagonal,
    basis_size,
    coupled_pair_array,
    multiply_r12,
    perkins_weight,
    sph_product,
)
from entconvex.spectra import eigendecompose, von_neumann_entropy
from entconvex.sweep import PairSpec, pair_criterion, spherium_pair
from oracles import (
    expansion_value,
    multiply_r12_loop,
    radial_residual,
    sph_product_unmirrored,
    wave_function,
)

RNG = np.random.default_rng(101)


def _angles():
    return (
        float(RNG.uniform(0.1, math.pi - 0.1)),
        float(RNG.uniform(0.0, 2.0 * math.pi)),
    )


class TestDistanceExpansion:
    def test_first_order_weights(self):
        assert perkins_weight(1, 0) == Fraction(4, 3)
        assert perkins_weight(1, 1) == Fraction(-4, 15)

    def test_squared_distance_is_polynomial(self):
        # r12^2 = R^2 (2 - 2 cos gamma): exactly two Legendre terms
        assert perkins_weight(2, 0) == Fraction(2)
        assert 3 * perkins_weight(2, 1) == Fraction(-2)
        assert perkins_weight(2, 2) == Fraction(0)

    def test_sph_product_pointwise(self):
        for l1, m1, l2, m2 in [(1, 0, 1, 0), (1, 1, 2, -1), (2, 2, 2, 1)]:
            th, ph = _angles()
            direct = sph_harm_y(l1, m1, th, ph) * sph_harm_y(l2, m2, th, ph)
            series = sum(
                c * sph_harm_y(L, m1 + m2, th, ph) for L, c in sph_product(l1, m1, l2, m2)
            )
            assert series == pytest.approx(direct, abs=1e-12)

    def test_multiply_r12_converges_to_distance(self):
        # apply the distance to Y00 Y00; the angular series converges
        # slowly, so check the error and that it shrinks with the cut
        # (fixed angles: the convergence rate degrades near coincidence)
        th1, ph1, th2, ph2 = 0.7, 1.1, 2.0, 4.3
        cosg = math.cos(th1) * math.cos(th2) + math.sin(th1) * math.sin(th2) * math.cos(ph1 - ph2)
        r12 = math.sqrt(6.0 * (2.0 - 2.0 * cosg))
        y00sq = 1.0 / (4.0 * math.pi)
        errs = []
        for lmax in (6, 24):
            lcut = lmax + 2
            arr = np.zeros((basis_size(lcut),) * 2, dtype=complex)
            arr[0, 0] = 1.0
            got = expansion_value(multiply_r12(arr, lcut, (lmax,))[0], lcut, th1, ph1, th2, ph2)
            errs.append(abs(got.real - r12 * y00sq) / (r12 * y00sq))
        assert errs[0] < 5e-3
        assert errs[1] < errs[0] / 5.0

    def test_one_pass_equals_separate_passes(self):
        # the norm-tail check reads the lmax - 4 product from the same pass
        lmax = 20
        lcut = lmax + 2
        arr = coupled_pair_array(1, lcut)
        both = multiply_r12(arr, lcut, (lmax, lmax - 4))
        np.testing.assert_array_equal(both[0], multiply_r12(arr, lcut, (lmax,))[0])
        np.testing.assert_array_equal(both[1], multiply_r12(arr, lcut, (lmax - 4,))[0])
        assert not np.array_equal(both[0], both[1])

    @pytest.mark.parametrize("M", [1, -1, 2, -2])
    def test_bitwise_equals_term_loop(self, M):
        # hoisted weights and partial products keep every rounding step
        lcut = 22
        arr = coupled_pair_array(M, lcut)
        got = multiply_r12(arr, lcut, (20, 16))
        want = multiply_r12_loop(arr, lcut, (20, 16))
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w)

    def test_mirrored_keys_equal_unmirrored_coupling(self):
        # every key the r12 products reach (l1 <= 2 from the coupled pair,
        # l2 <= 20) and a margin, compared bit for bit by float.hex
        for l1 in range(4):
            for l2 in range(21):
                for m1 in range(-l1, l1 + 1):
                    for m2 in range(-l2, l2 + 1):
                        got = sph_product(l1, m1, l2, m2)
                        want = sph_product_unmirrored(l1, m1, l2, m2)
                        assert [(L, c.hex()) for L, c in got] == [(L, c.hex()) for L, c in want]

    @pytest.mark.parametrize("M", [1, -1, 2, -2])
    def test_amplitudes_equal_unmirrored_build(self, monkeypatch, M):
        got = spherium._state_coefficients.__wrapped__(M, 20)
        unmirrored = functools.lru_cache(maxsize=None)(sph_product_unmirrored)
        monkeypatch.setattr(spherium, "sph_product", unmirrored)
        assert np.array_equal(got, spherium._state_coefficients.__wrapped__(M, 20))


class TestWaveFunction:
    def test_expansion_matches_pointwise_oracle(self):
        state = SpheriumState(1, lmax=20)
        arr = state.coefficients()
        ref, got = [], []
        for _ in range(6):
            (th1, ph1), (th2, ph2) = (_angles(), _angles())
            ref.append(wave_function(1, th1, ph1, th2, ph2))
            got.append(expansion_value(arr, state.lcut, th1, ph1, th2, ph2))
        ref, got = np.array(ref), np.array(got)
        scale = np.vdot(ref, got) / np.vdot(ref, ref)  # expansion is normalized
        assert np.max(np.abs(got - scale * ref)) / np.max(np.abs(got)) < 1e-3

    def test_antisymmetry(self):
        (th1, ph1), (th2, ph2) = (_angles(), _angles())
        a = wave_function(2, th1, ph1, th2, ph2)
        b = wave_function(2, th2, ph2, th1, ph1)
        assert a == pytest.approx(-b, abs=1e-12)

    def test_pair_array_antisymmetric(self):
        arr = coupled_pair_array(1, 4)
        np.testing.assert_allclose(arr, -arr.T, atol=1e-14)

    def test_radial_equation_residual(self):
        r = np.linspace(1e-3, 2.0 * math.sqrt(6.0), 2001)
        assert radial_residual(r) <= 1e-10


class TestReducedDensity:
    def test_mirror_pair_isospectral(self):
        pair = spherium_pair(1, lmax=12)
        a, b = pair.builder(1.0), pair.builder(0.0)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(a.entries), np.linalg.eigvalsh(b.entries), atol=1e-10
        )

    def test_entropy_stable_under_lmax(self):
        vals = []
        for lmax in (16, 20):
            rho = spherium_pair(1, lmax=lmax).builder(0.5)
            vals.append(von_neumann_entropy(eigendecompose(rho)))
        assert vals[0] == pytest.approx(vals[1], abs=1e-4)

    def test_mismatched_cuts_rejected(self):
        with pytest.raises(ValueError):
            PairSpec(
                lambda: (SpheriumState(1, lmax=12).coefficients(), SpheriumState(-1, lmax=16).coefficients()),
                "spherium lmax 12/16",
            ).builder(0.5)

    def test_sector_diagonal_is_m(self):
        d = np.diag(angular_momentum_diagonal(2))
        assert list(d) == [0, -1, 0, 1, -2, -1, 0, 1, 2]


class TestCriterion:
    def test_sector_report_consistent(self):
        rep = pair_criterion(spherium_pair(1, lmax=12))
        assert rep.s_r == pytest.approx(rep.s0 - rep.s_ns, abs=1e-12)
        assert rep.qc == 1
        unrestricted = pair_criterion(spherium_pair(1, lmax=12, use_sectors=False))
        assert rep.s_ns >= unrestricted.s_ns - 1e-9
