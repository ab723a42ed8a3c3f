"""Laguerre-Gaussian transverse modes and the x|y reduced density."""

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from entconvex.lgmodes import (
    DEFAULT_BASIS_SIZE,
    DEFAULT_QUADRATURE_ORDER,
    LGMode,
    _genlaguerre,
    lg_evaluate,
    mode_columns,
    mode_norm_capture,
)
from entconvex.spectra import eigendecompose, von_neumann_entropy
from entconvex.sweep import lg_pair, pair_criterion
from oracles import block_density, mode_columns_per_mode

# the criterion-6 scan's modes; table 4's are among them
SCAN_MODES = [(l, m) for l in range(5) for m in range(-4, 5) if m != 0]
TABLE_4_MODES = [(1, 1), (1, -1), (2, 1), (2, -1), (2, 2), (2, -2), (3, 3), (3, -3)]


class TestEvaluate:
    def test_ground_mode_is_gaussian(self):
        m = LGMode(0, 0)
        v = lg_evaluate(m, np.array([0.0, 0.5, 1.0]), np.zeros(3))
        assert np.all(np.abs(v.imag) < 1e-15)
        np.testing.assert_allclose(v.real, np.exp(-np.array([0.0, 0.25, 1.0])), atol=1e-14)
        # rotational symmetry of the modulus
        assert abs(lg_evaluate(m, 0.3, 0.4)) == pytest.approx(abs(lg_evaluate(m, 0.5, 0.0)), abs=1e-14)

    def test_mirror_is_conjugate(self):
        x, y = 0.7, -0.4
        a = lg_evaluate(LGMode(2, 3), x, y)
        b = lg_evaluate(LGMode(2, -3), x, y)
        assert b == pytest.approx(np.conj(a), abs=1e-14)
        # equivalently a y-reflection
        c = lg_evaluate(LGMode(2, 3), x, -y)
        assert c == pytest.approx(np.conj(a), abs=1e-14)

    def test_vortex_zero_at_origin(self):
        assert abs(lg_evaluate(LGMode(1, 1), 0.0, 0.0)) == 0.0

    def test_negative_radial_index_rejected(self):
        with pytest.raises(ValueError):
            LGMode(-1, 0)

    @pytest.mark.parametrize("l", range(9))
    def test_laguerre_bitwise_equals_reference(self, l):
        # the reference library's integer-order recurrence, to the bit
        r2 = np.concatenate([np.linspace(0.0, 50.0, 10001), [0.0, 1e-300, 2.5e-8, 1.0 / 3.0]])
        for am in range(9):
            np.testing.assert_array_equal(_genlaguerre(l, am, r2), eval_genlaguerre(l, am, r2))


class TestReducedDensity:
    def test_basis_captures_mode(self):
        # deficits 4.0e-13, 4.3e-8 and 6.4e-10; the bound is the package's
        # truncation tolerance
        for mode in (LGMode(1, 1), LGMode(3, 3), LGMode(2, -2)):
            assert mode_norm_capture(mode) > 1 - 1e-6

    def test_small_basis_misses_mode(self):
        # the capture reads the norms before normalization, so a basis of 4
        # shows that it holds only 0.40 of LG(3, 4)
        assert mode_norm_capture(LGMode(3, 4), n_basis=4) < 0.5

    def test_density_properties(self):
        rho = block_density(lg_pair(LGMode(1, 1), LGMode(1, -1)), 0.3)
        assert rho.trace() == pytest.approx(1.0, abs=1e-10)

    def test_same_mode_alpha_independent(self):
        m = LGMode(2, 1)
        s = [
            von_neumann_entropy(eigendecompose(block_density(lg_pair(m, m), a)))
            for a in (0.0, 0.4, 1.0)
        ]
        assert max(s) - min(s) < 1e-10

    def test_trace_swap_isospectral(self):
        # tracing x instead of y maps (l, m) to (l, -m) up to a phase, so
        # the two partial traces of one mode share a spectrum
        m0, m1 = LGMode(2, 1), LGMode(2, -1)
        a = lg_pair(m0, m0).builder(1.0)
        b = lg_pair(m1, m1).builder(1.0)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(a.entries), np.linalg.eigvalsh(b.entries), atol=1e-8
        )

    def test_entropy_stable_under_basis_growth(self):
        vals = [
            von_neumann_entropy(
                eigendecompose(block_density(lg_pair(LGMode(3, 3), LGMode(3, -3), n_basis=nb), 0.5))
            )
            for nb in (32, 36)
        ]
        assert vals[0] == pytest.approx(vals[1], abs=1e-4)

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError):
            lg_pair(LGMode(0, 0), LGMode(1, 1)).builder(1.2)


class TestCriterion:
    def test_mirror_pair_not_shared_vanishes(self):
        rep = pair_criterion(lg_pair(LGMode(1, 1), LGMode(1, -1)))
        assert rep.s_ns == pytest.approx(0.0, abs=1e-10)
        assert rep.qc == 1
        assert rep.s0 == pytest.approx(rep.s1, abs=1e-10)


class TestModeColumns:
    @pytest.mark.parametrize("lm", sorted(set(SCAN_MODES) | set(TABLE_4_MODES)), ids=str)
    def test_cached_basis_equals_the_per_mode_formula(self, lm):
        # the x-basis and y factors are built once per basis, to the bit
        got = mode_columns(*lm, DEFAULT_BASIS_SIZE, DEFAULT_QUADRATURE_ORDER)
        want = mode_columns_per_mode(*lm, DEFAULT_BASIS_SIZE, DEFAULT_QUADRATURE_ORDER)
        assert np.array_equal(got, want)
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))

    @pytest.mark.parametrize("n_basis", [32, 48])
    def test_real_einsums_equal_the_three_operand_einsum(self, n_basis):
        # the x-integral as two real einsums, against the oracle's one
        # complex three-operand einsum: every entry and sign bit of l <= 6,
        # |m| <= 6 (uncached, so the scan's cached columns stay in place)
        for l in range(7):
            for m in range(-6, 7):
                got = mode_columns.__wrapped__(l, m, n_basis, DEFAULT_QUADRATURE_ORDER)
                want = mode_columns_per_mode(l, m, n_basis, DEFAULT_QUADRATURE_ORDER)
                assert np.array_equal(got, want), (l, m)
                for part in (np.real, np.imag):
                    assert np.array_equal(np.signbit(part(got)), np.signbit(part(want))), (l, m)

    def test_basis_table_is_read_only_and_shared(self):
        from entconvex.lgmodes import _x_basis

        table = _x_basis(DEFAULT_BASIS_SIZE, DEFAULT_QUADRATURE_ORDER)
        assert _x_basis(DEFAULT_BASIS_SIZE, DEFAULT_QUADRATURE_ORDER) is table
        assert not any(a.flags.writeable for a in table)
        assert table[4].shape == (DEFAULT_BASIS_SIZE, DEFAULT_QUADRATURE_ORDER)
