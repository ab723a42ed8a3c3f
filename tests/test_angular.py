"""Coupled-angular-momentum model against a ladder-operator oracle.

The oracle never touches the Clebsch-Gordan engine: coupled states are
built in the product space from the highest-weight condition L+ |psi> = 0
and explicit L- lowering, with the usual phase fixed by making the
largest-m1 component positive.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from entconvex import angular, spherium
from entconvex.angular import AngularConfig, cg
from entconvex.sweep import angular_pair
from oracles import block_density, clebsch_gordan, coupled_energy_check, coupled_reduced_density_exact


def _single_ops(j):
    """(Jz, J+, J-) in the descending m-basis m = j, j-1, ..., -j."""
    dim = 2 * j + 1
    ms = np.array([j - i for i in range(dim)], dtype=float)
    jz = np.diag(ms)
    jp = np.zeros((dim, dim))
    for i in range(1, dim):
        m = ms[i]
        jp[i - 1, i] = math.sqrt(j * (j + 1) - m * (m + 1))
    return jz, jp, jp.T


def _product_ops(l1, l2):
    z1, p1, m1 = _single_ops(l1)
    z2, p2, m2 = _single_ops(l2)
    i1, i2 = np.eye(2 * l1 + 1), np.eye(2 * l2 + 1)
    lz = np.kron(z1, i2) + np.kron(i1, z2)
    lp = np.kron(p1, i2) + np.kron(i1, p2)
    lm = np.kron(m1, i2) + np.kron(i1, m2)
    l2op = lm @ lp + lz @ lz + lz
    return lz, lp, lm, l2op


def oracle_coupled_vector(l1, l2, L, M):
    """Coupled state |L, M> in the product basis, from ladder algebra only."""
    lz, lp, lm, _ = _product_ops(l1, l2)
    dim1, dim2 = 2 * l1 + 1, 2 * l2 + 1
    # highest weight: unique null vector of L+ inside the Lz = L sector
    sector = [k for k in range(dim1 * dim2) if abs(lz[k, k] - L) < 1e-9]
    a = lp[:, sector]
    _, sv, vh = np.linalg.svd(a)
    null_mask = np.concatenate([sv, np.zeros(len(sector) - len(sv))]) < 1e-10
    assert np.sum(null_mask) == 1, "coupling multiplicity should be one"
    top = np.zeros(dim1 * dim2)
    top[sector] = vh[-1].real if np.sum(null_mask) else 0.0
    # phase: the component with the largest m1 is positive
    lead = min(k for k in sector if abs(top[k]) > 1e-12)
    if top[lead] < 0:
        top = -top
    v = top
    for _ in range(L - M):
        v = lm @ v
        v = v / np.linalg.norm(v)
    return v


def _cg_vector(l1, l2, L, M):
    dim1, dim2 = 2 * l1 + 1, 2 * l2 + 1
    v = np.zeros(dim1 * dim2)
    for i in range(dim1):
        m1 = l1 - i
        m2 = M - m1
        if abs(m2) <= l2:
            j = l2 - m2
            v[i * dim2 + j] = cg(l1, m1, l2, m2, L, M)
    return v


def _oracle_density(l, L, M, alpha, Mprime=None):
    """Numeric trace-out of the superposed coupled state."""
    Mp = -M if Mprime is None else Mprime
    psi = math.sqrt(alpha) * oracle_coupled_vector(l, l, L, M)
    psi = psi + math.sqrt(1.0 - alpha) * oracle_coupled_vector(l, l, L, Mp)
    psi = psi / np.linalg.norm(psi)
    amp = psi.reshape(2 * l + 1, 2 * l + 1)
    return amp @ amp.conj().T


class TestClebschGordan:
    def test_textbook_half_cases(self):
        # 1 x 1 -> 2, 1, 0 at M = 0
        assert cg(1, 0, 1, 0, 2, 0) == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)
        assert cg(1, 0, 1, 0, 1, 0) == pytest.approx(0.0, abs=1e-15)
        assert cg(1, 0, 1, 0, 0, 0) == pytest.approx(-math.sqrt(1.0 / 3.0), abs=1e-15)

    def test_stretched_coefficient_is_one(self):
        for l in (1, 2, 5):
            c = clebsch_gordan(l, l, l, l, 2 * l, 2 * l)
            assert c.sign == 1 and c.square == Fraction(1)

    def test_selection_rules(self):
        assert cg(1, 1, 1, 1, 2, 0) == 0.0  # m1 + m2 != M
        assert clebsch_gordan(1, 0, 1, 0, 1, 0).square == Fraction(0)  # parity zero

    def test_exact_normalization(self):
        for l1, l2 in [(1, 1), (2, 2), (3, 2), (4, 4)]:
            for L in range(abs(l1 - l2), l1 + l2 + 1):
                for M in range(-L, L + 1):
                    total = Fraction(0)
                    for m1 in range(-l1, l1 + 1):
                        if abs(M - m1) <= l2:
                            total += clebsch_gordan(l1, m1, l2, M - m1, L, M).square
                    assert total == Fraction(1)

    def test_cross_l_orthogonality(self):
        for l1, l2 in [(2, 2), (3, 3), (4, 3)]:
            for M in range(-min(l1 + l2, 3), min(l1 + l2, 3) + 1):
                ls = range(max(abs(l1 - l2), abs(M)), l1 + l2 + 1)
                for L in ls:
                    for Lp in ls:
                        if Lp <= L:
                            continue
                        total = sum(
                            cg(l1, m1, l2, M - m1, L, M) * cg(l1, m1, l2, M - m1, Lp, M)
                            for m1 in range(-l1, l1 + 1)
                            if abs(M - m1) <= l2
                        )
                        assert total == pytest.approx(0.0, abs=1e-13)

    def test_matches_ladder_oracle(self):
        for l1, l2 in [(1, 1), (2, 1), (2, 2)]:
            for L in range(abs(l1 - l2), l1 + l2 + 1):
                for M in range(-L, L + 1):
                    np.testing.assert_allclose(
                        _cg_vector(l1, l2, L, M),
                        oracle_coupled_vector(l1, l2, L, M),
                        atol=1e-12,
                    )

    @pytest.mark.parametrize("source", ["cg_matrix", "spherium"])
    def test_bitwise_equals_exact_oracle(self, source):
        # every coefficient the pipeline reaches: the angular amplitudes up
        # to MAX_ELL (38,025 keys, from ``cg``) and the spherium states at
        # lmax 20 (the Gaunt table's j = 1, 2 coefficients, every key)
        keys = _reached_keys(source)
        assert len(keys) > 4000
        for k, value in keys.items():
            assert value.hex() == clebsch_gordan(*k).value.hex(), k

    def test_table_guards_exact_conversion(self):
        # the integer squares stay exact up to the 2**53 bound (l = 4000 is
        # beyond any basis the package can hold), and raise beyond it rather
        # than round twice
        l, m = np.array([4000, 4000, 3999]), np.array([4000, 0, -1])
        table = spherium.cg_table(2, l, m)
        for i, mj, k in [(0, 2, 2), (0, -2, 1), (1, 0, 0), (1, 1, 1), (2, -2, 0), (2, 1, 2)]:
            key = (2, mj, int(l[i]), int(m[i]), int(l[i]) - 2 + 2 * k, int(m[i]) + mj)
            assert table[2 + mj, i, k].hex() == clebsch_gordan(*key).value.hex(), key
        with pytest.raises(ValueError, match=r"2\*\*53"):
            spherium.cg_table(2, np.array([5000]), np.array([0]))
        with pytest.raises(ValueError, match="beyond the exact"):
            spherium.cg_table(1, np.array([10**5]), np.array([0]))

    def test_numpy_integer_arguments(self):
        # np.int64 times a large Python int overflows; the integer Racah
        # form must take numpy's integers as the exact values they hold
        for k in [(12, 3, 12, -3, 12, 0), (12, 12, 12, -12, 0, 0), (6, 2, 5, -1, 7, 1),
                  (20, 7, 22, -6, 24, 1), (1, 0, 1, 0, 1, 0), (2, 1, 2, 1, 2, 0)]:
            got = cg.__wrapped__(*(np.int64(x) for x in k))
            assert type(got) is float
            assert got.hex() == cg(*k).hex() == clebsch_gordan(*k).value.hex(), k


def _reached_keys(source):
    """The Clebsch-Gordan keys that building the angular or spherium
    amplitudes reads, each with the value it reads."""
    if source == "spherium":
        keys = {}
        l, m = spherium._harmonics(spherium.basis_size(20))
        for j in (spherium.COUPLED_L1, spherium.COUPLED_L2):
            table = spherium.cg_table(j, l, m)
            for (row, i, k), value in np.ndenumerate(table):
                L = int(l[i]) - j + 2 * k
                if L >= abs(int(l[i]) - j):
                    keys[(j, row - j, int(l[i]), int(m[i]), L, row - j + int(m[i]))] = value
        return keys
    keys = set()

    def record(*k):
        keys.add(k)
        return cg(*k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(angular, "cg", record)
        for l in range(angular.MAX_ELL + 1):
            for L in range(2 * l + 1):
                for M in range(-L, L + 1):
                    angular.cg_matrix(l, L, M)
    return {k: cg(*k) for k in keys}


class TestAngularConfig:
    def test_triangle_violation(self):
        with pytest.raises(ValueError):
            AngularConfig(1, 1, 3, 0)

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            AngularConfig(2, 2, 1, 2)


class TestCoupledReducedDensity:
    def test_exact_endpoint_values(self):
        # l = 3, L = 2 endpoints: diag(5/42, 5/21, 2/7, 5/21, 5/42, 0, 0)
        expected = [
            Fraction(5, 42), Fraction(5, 21), Fraction(2, 7),
            Fraction(5, 21), Fraction(5, 42), Fraction(0), Fraction(0),
        ]
        rho = coupled_reduced_density_exact(3, 2, 2, 1)
        assert [rho[i][i] for i in range(7)] == expected
        # alpha = 0 selects M' = -2: same pattern mirrored in m
        rho = coupled_reduced_density_exact(3, 2, 2, 0)
        assert [rho[i][i] for i in range(7)] == expected[::-1]

    def test_endpoint_matches_float_assembly(self):
        exact = coupled_reduced_density_exact(3, 2, 2, 1)
        num = angular_pair(3, 2, 2).builder(1.0)
        np.testing.assert_allclose(
            np.real(np.diag(num.entries)),
            [float(exact[i][i]) for i in range(7)],
            atol=1e-14,
        )

    def test_against_brute_force_trace_out(self):
        # full product-space construction and numeric partial trace
        for l in (1, 2):
            for L in range(0, 2 * l + 1):
                for M in range(0, L + 1):
                    for alpha in (0.0, 0.3, 1.0):
                        pair = angular_pair(l, L, M)
                        got = (pair.builder(alpha) if alpha != 0.3 else block_density(pair, alpha)).entries
                        want = _oracle_density(l, L, M, alpha)
                        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_mirror_pair_isospectral(self):
        pair = angular_pair(3, 2, 2)
        a, b = pair.builder(1.0), pair.builder(0.0)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(a.entries), np.linalg.eigvalsh(b.entries), atol=1e-12
        )

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            angular_pair(1, 1, 1).builder(1.5)


def test_energy_check_values():
    assert coupled_energy_check(3, 2, 2) == 2 * 3 - 4
    assert coupled_energy_check(1, 1, 0) == 2
