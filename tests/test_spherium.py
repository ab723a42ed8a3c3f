"""Two electrons on a sphere: distance-expansion identities, a pointwise
wave-function oracle, and the reduced radial equation."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import sph_harm_y

from entconvex import angular, spherium
from entconvex.spherium import (
    SpheriumState,
    angular_momentum_diagonal,
    coupled_pair_entries,
    gaunt_table,
    multiply_r12,
    r12_weights,
)
from entconvex.spectra import eigendecompose, von_neumann_entropy
from entconvex.sweep import PairSpec, pair_criterion, spherium_pair
from oracles import (
    block_density,
    coupled_pair_array,
    expansion_value,
    multiply_r12_loop,
    nonzero_entries,
    perkins_weight,
    radial_residual,
    sph_product,
    sph_product_unmirrored,
    state_coefficients_loop,
    wave_function,
)

RNG = np.random.default_rng(101)


def _angles():
    return (
        float(RNG.uniform(0.1, math.pi - 0.1)),
        float(RNG.uniform(0.0, 2.0 * math.pi)),
    )


class TestDistanceExpansion:
    def test_closed_form_weights_equal_exact_series(self):
        # -4 / ((2l - 1)(2l + 1)(2l + 3)) rounds once, as float() of the Fraction
        radius = math.sqrt(spherium.SPHERE_RADIUS_SQ)
        want = [4.0 * math.pi * radius * float(perkins_weight(1, l)) for l in range(200)]
        assert [w.hex() for w in r12_weights(199).tolist()] == [w.hex() for w in want]

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
            y00y00 = (np.array([0]), np.array([0]), np.array([1.0 + 0.0j]))
            got = expansion_value(multiply_r12(y00y00, lcut, (lmax,))[0], lcut, th1, ph1, th2, ph2)
            errs.append(abs(got.real - r12 * y00sq) / (r12 * y00sq))
        assert errs[0] < 5e-3
        assert errs[1] < errs[0] / 5.0

    def test_one_pass_equals_separate_passes(self):
        # the norm-tail check reads the lmax - 4 product from the same pass
        for lmax in (12, 16, 20):
            lcut = lmax + 2
            arr = coupled_pair_array(1, lcut)
            entries = nonzero_entries(arr)
            both = multiply_r12(entries, lcut, (lmax, lmax - 4))
            for got, top in zip(both, (lmax, lmax - 4)):
                assert np.array_equal(got, multiply_r12(entries, lcut, (top,))[0])
                assert np.array_equal(got, multiply_r12_loop(arr, lcut, (top,))[0])
            assert not np.array_equal(both[0], both[1])

    @pytest.mark.parametrize("M", [1, -1, 2, -2])
    def test_bitwise_equals_term_loop(self, M):
        # the table's couplings and the ordered scatter keep every rounding step
        for lmax in (12, 16, 20):
            lcut = lmax + 2
            arr = coupled_pair_array(M, lcut)
            got = multiply_r12(nonzero_entries(arr), lcut, (lmax, lmax - 4))
            want = multiply_r12_loop(arr, lcut, (lmax, lmax - 4))
            for g, w in zip(got, want, strict=True):
                assert np.array_equal(g, w)

    def test_mirrored_keys_equal_unmirrored_coupling(self):
        # every key the r12 products reach (l1 <= 2 from the coupled pair,
        # l2 <= lmax): the package's table and the oracle's mirrored keys
        # against the unmirrored exact coupling, bit for bit by float.hex
        for lmax in (12, 16, 20):
            table = gaunt_table(lmax)
            for l1 in range(3):
                for l2 in range(lmax + 1):
                    for m1 in range(-l1, l1 + 1):
                        for m2 in range(-l2, l2 + 1):
                            want = [(L, c.hex()) for L, c in sph_product_unmirrored(l1, m1, l2, m2)]
                            coeffs = table[l1, l1 + m1, l2 * l2 + l2 + m2]
                            got = [(l2 - l1 + 2 * k, c.hex()) for k, c in enumerate(coeffs.tolist()) if c]
                            assert got == want
                            assert [(L, c.hex()) for L, c in sph_product(l1, m1, l2, m2)] == want

    def test_table_built_once_and_read_only(self):
        table = gaunt_table(20)
        assert gaunt_table(20) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0, 0, 0] = 1.0

    def test_rejects_entries_beyond_the_table(self):
        entry = (np.array([9]), np.array([1]), np.array([1.0]))  # (l, m) = (3, -3)
        with pytest.raises(ValueError, match="l <= 2"):
            multiply_r12(entry, 4, (2,))

    @pytest.mark.parametrize("M", [0, 1, -1, 2, -2])
    def test_pair_entries_equal_dense_nonzeros(self, M):
        # the entries are the dense pair's np.nonzero scan, order and bits
        rows, cols, vals = coupled_pair_entries(M)
        want_rows, want_cols, want_vals = nonzero_entries(coupled_pair_array(M, 4))
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
        assert vals.dtype == want_vals.dtype
        assert [v.hex() for v in vals.tolist()] == [v.hex() for v in want_vals.tolist()]

    @pytest.mark.parametrize("M", [1, -1, 2, -2])
    def test_amplitudes_equal_unmirrored_build(self, M):
        for lmax in (12, 16, 20):
            got = SpheriumState(M, lmax).coefficients()
            assert np.array_equal(got, state_coefficients_loop(M, lmax, sph_product_unmirrored))

    @pytest.mark.parametrize("M", [1, -1, 2, -2])
    def test_exact_cg_only_for_the_coupled_pair(self, monkeypatch, M):
        # a cold state evaluates exact Racah sums only for the coupled pair's
        # <= 3 coefficients; the Gaunt table supplies every other coupling
        calls = []
        racah = angular._racah

        def counting(*key):
            calls.append(key)
            return racah(*key)

        uncached = angular.cg.__wrapped__
        monkeypatch.setattr(angular, "_racah", counting)
        for owner in (angular, spherium):
            monkeypatch.setattr(owner, "cg", uncached)
        spherium._state_coefficients.__wrapped__(M, 20)
        assert 0 < len(calls) <= 3


def _dense_tail(M, lmax):
    """The norm tail from two dense arrays, one per order of the distance series."""
    rows, cols, vals = pair = coupled_pair_entries(M)
    amp, amp_lo = multiply_r12(pair, lmax + spherium.COUPLED_L2, (lmax, lmax - 4))
    for r in (amp, amp_lo):
        r /= spherium.CORRELATION_SCALE
        r[rows, cols] += vals
    norm = np.linalg.norm(amp)
    return amp, abs(np.linalg.norm(amp_lo) - norm) / norm


class TestNormTail:
    @pytest.mark.parametrize("M", [-2, -1, 0, 1, 2])
    def test_tail_from_one_dense_array(self, M):
        # the shorter series is summed over its nonzero entries only: the
        # state is the two-array state to the bit and the tail equal to rounding
        for lmax in (4, 5, 8, 12, 20):
            amp, norm, tail = spherium._correlated(M, lmax)
            want, want_tail = _dense_tail(M, lmax)
            assert amp.tobytes() == want.tobytes() and norm == np.linalg.norm(want)
            assert tail == pytest.approx(want_tail, rel=1e-9, abs=1e-15)

    def test_raises_where_two_arrays_raise(self):
        raised = []
        for lmax in range(4, 21):
            tail = _dense_tail(1, lmax)[1]
            try:
                spherium._state_coefficients.__wrapped__(1, lmax)
            except ValueError:
                raised.append(lmax)
            assert (lmax in raised) == (tail > spherium.NORM_TAIL_TOL)
        assert raised  # the check is live at small lmax


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
        # on the pair's entries: each has its negative at the transpose
        for M in (0, 1, 2):
            rows, cols, vals = coupled_pair_entries(M)
            entries = dict(zip(zip(rows.tolist(), cols.tolist()), vals.tolist()))
            assert entries == {(c, r): -v for (r, c), v in entries.items()}

    def test_shortest_series_fails_norm_tail(self):
        # the tail compares lmax with lmax - 4, so lmax = 4 is measured against
        # lmax = 0 (a tail of 3.3e-2), not against itself
        with pytest.raises(ValueError, match="norm tail"):
            SpheriumState(1, 4).coefficients()

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
            rho = block_density(spherium_pair(1, lmax=lmax), 0.5)
            vals.append(von_neumann_entropy(eigendecompose(rho)))
        assert vals[0] == pytest.approx(vals[1], abs=1e-4)

    def test_mismatched_cuts_rejected(self):
        c0 = SpheriumState(1, lmax=12).coefficients()
        c1 = SpheriumState(-1, lmax=16).coefficients()
        with pytest.raises(ValueError, match="of one shape"):
            pair_criterion(PairSpec(lambda: (c0, c1), "spherium lmax 12/16"))

    def test_sector_diagonal_is_m(self):
        d = np.diag(angular_momentum_diagonal(2))
        assert list(d) == [0, -1, 0, 1, -2, -1, 0, 1, 2]


class TestCriterion:
    def test_sector_report_consistent(self):
        rep = pair_criterion(spherium_pair(1, lmax=12))
        assert rep.s_r == pytest.approx(rep.s0 - rep.s_ns, abs=1e-12)
        assert rep.qc == 1
        unrestricted = pair_criterion(dataclasses.replace(spherium_pair(1, lmax=12), sector_operator=None))
        assert rep.s_ns >= unrestricted.s_ns - 1e-9
