import math

import numpy as np
import pytest

from entconvex.criterion import (
    ProjectorFamily,
    balanced_eigenbasis,
    criterion_qc,
    evaluate_criterion,
    expectations_under_projectors,
    not_shareable_entropy,
    not_shared_entropy,
    not_shared_entropy_sampled,
    random_projector_probe,
    refine_blocks_by_sector,
    theta,
)
from entconvex.spectra import HermitianMatrix, eigendecompose, von_neumann_entropy


def _density(mat):
    return HermitianMatrix(np.asarray(mat, dtype=complex), is_density=True)


def _random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return _density(rho / np.real(np.trace(rho)))


def test_theta_ramp():
    assert theta(0.3) == 0.3
    assert theta(0.0) == 0.0
    assert theta(-0.2) == 0.0


class TestProjectorFamily:
    def test_rejects_incomplete(self):
        v = np.array([[1.0, 0.0], [0.0, 0.5]])
        with pytest.raises(ValueError):
            ProjectorFamily(v)

    def test_expectations_sum_to_trace(self):
        rng = np.random.default_rng(1)
        rho = _random_density(rng, 4)
        fam = ProjectorFamily(np.eye(4, dtype=complex))
        vals = expectations_under_projectors(rho, fam)
        assert vals.sum() == pytest.approx(1.0, abs=1e-10)


class TestNotShareableEntropy:
    def test_identical_states_give_zero(self):
        rho = _density(np.diag([0.5, 0.3, 0.2]))
        spec = eigendecompose(rho)
        fam = ProjectorFamily(spec.eigenvectors)
        assert not_shareable_entropy(spec, rho, fam) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value_two_levels(self):
        # lambda = (0.7, 0.3) against partner diag (0.4, 0.6):
        # only the first level exceeds, contributing -0.3 log 0.7
        spec = eigendecompose(_density(np.diag([0.7, 0.3])))
        fam = ProjectorFamily(spec.eigenvectors)
        got = not_shareable_entropy(spec, _density(np.diag([0.4, 0.6])), fam, math.e)
        assert got == pytest.approx(-0.3 * math.log(0.7), abs=1e-12)

    def test_rejects_non_eigenprojector_family(self):
        spec = eigendecompose(_density(np.diag([0.7, 0.3])))
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        with pytest.raises(ValueError):
            not_shareable_entropy(spec, _density(np.eye(2) / 2.0), ProjectorFamily(h))


class TestNotSharedEntropy:
    def test_matches_family_value_when_nondegenerate(self):
        rng = np.random.default_rng(23)
        rho0 = _density(np.diag([0.5, 0.3, 0.2]))
        rho1 = _random_density(rng, 3)
        spec = eigendecompose(rho0)
        fam = ProjectorFamily(spec.eigenvectors)
        assert not_shared_entropy(spec, rho1) == pytest.approx(
            not_shareable_entropy(spec, rho1, fam), abs=1e-12
        )

    def test_twofold_degenerate_closed_form(self):
        # one degenerate pair at lambda, partner weight tr inside the block:
        # contribution Theta[2 lambda - tr] log(1/lambda)
        lam, mu = 0.4, 0.2
        rho0 = _density(np.diag([lam, lam, mu]))
        rho1 = _density(np.diag([0.1, 0.15, 0.75]))
        spec = eigendecompose(rho0)
        expected = theta(2 * lam - 0.25) * math.log(1 / lam) + theta(mu - 0.75) * math.log(1 / mu)
        got = not_shared_entropy(spec, rho1, math.e)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_closed_form_is_block_minimum(self):
        # the sampled intra-block minimizer never beats the closed form
        rng = np.random.default_rng(29)
        rho0 = _density(np.diag([0.35, 0.35, 0.2, 0.1]))
        spec = eigendecompose(rho0)
        for _ in range(5):
            rho1 = _random_density(rng, 4)
            closed = not_shared_entropy(spec, rho1)
            sampled = not_shared_entropy_sampled(spec, rho1, samples=200, seed=7)
            assert closed <= sampled + 1e-9

    def test_bounded_by_entropy(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            rho0 = _random_density(rng, 5)
            rho1 = _random_density(rng, 5)
            spec = eigendecompose(rho0)
            s = von_neumann_entropy(spec)
            assert -1e-10 <= not_shared_entropy(spec, rho1) <= s + 1e-9


class TestSectorRefinement:
    def test_splits_degenerate_block_by_sector(self):
        rho0 = _density(np.diag([0.4, 0.4, 0.2]))
        op = np.diag([1.0, -1.0, 0.0])
        spec = refine_blocks_by_sector(eigendecompose(rho0), op)
        assert all(len(b) == 1 for b in spec.blocks)

    def test_noop_when_operator_constant_on_block(self):
        rho0 = _density(np.diag([0.4, 0.4, 0.2]))
        spec0 = eigendecompose(rho0)
        spec = refine_blocks_by_sector(spec0, np.eye(3))
        assert spec.blocks == spec0.blocks

    def test_sector_value_at_least_minimized(self):
        # restricting the projector freedom can only raise the minimum
        rng = np.random.default_rng(37)
        rho0 = _density(np.diag([0.3, 0.3, 0.3, 0.1]))
        op = np.diag([2.0, 1.0, -1.0, 0.0])
        spec = eigendecompose(rho0)
        refined = refine_blocks_by_sector(spec, op)
        for _ in range(5):
            rho1 = _random_density(rng, 4)
            assert not_shared_entropy(refined, rho1) >= not_shared_entropy(spec, rho1) - 1e-9

    def test_eigenvectors_still_diagonalize(self):
        rng = np.random.default_rng(41)
        rho0 = _density(np.diag([0.25, 0.25, 0.25, 0.25]))
        op = np.diag([1.0, 1.0, -1.0, -1.0])
        refined = refine_blocks_by_sector(eigendecompose(rho0), op)
        np.testing.assert_allclose(refined.reconstruct(), rho0.entries, atol=1e-12)
        v = refined.eigenvectors
        off = v.conj().T @ op @ v
        np.testing.assert_allclose(off, np.diag(np.diag(off)), atol=1e-10)


class TestEvaluateCriterion:
    def test_report_identities(self):
        rng = np.random.default_rng(43)
        rho0 = _random_density(rng, 4)
        rho1 = _random_density(rng, 4)
        rep = evaluate_criterion(rho0, rho1)
        assert rep.s_r == pytest.approx(rep.s0 - rep.s_ns, abs=1e-12)
        assert rep.qc == criterion_qc(rep.s_ns, rep.s_r, rep.qc_tol)

    def test_identical_pair_is_flagged_convex(self):
        rho = _density(np.diag([0.6, 0.4]))
        rep = evaluate_criterion(rho, rho)
        assert rep.s_ns == pytest.approx(0.0, abs=1e-12)
        assert rep.qc == 1

    def test_qc_zero_band(self):
        assert criterion_qc(0.5, 0.5) == 0
        assert criterion_qc(0.2, 0.5) == 1
        assert criterion_qc(0.5, 0.2) == -1

    def test_reference_swap(self):
        rng = np.random.default_rng(47)
        rho0 = _random_density(rng, 3)
        rho1 = _random_density(rng, 3)
        a = evaluate_criterion(rho0, rho1, reference=1)
        b = evaluate_criterion(rho1, rho0)
        assert a.s_ns == pytest.approx(b.s_ns, abs=1e-12)


class TestProbe:
    def test_equal_states_pin_min_at_entropy(self):
        rho = _density(np.diag([0.5, 0.25, 0.25]))
        rec = random_projector_probe(rho, rho, samples=200, seed=0)
        s = von_neumann_entropy(eigendecompose(rho))
        assert rec.bound == pytest.approx(s, abs=1e-12)
        assert rec.min_value == pytest.approx(s, abs=1e-9)

    def test_min_never_below_bound_on_mirror_pairs(self):
        # the identity is a statement about degenerate mirror pairs, not
        # arbitrary density pairs; exercise it on coupled-momentum pairs
        from entconvex.sweep import angular_pair

        for l, L in [(1, 1), (2, 2), (3, 1)]:
            pair = angular_pair(l, L, L)
            rho0, rho1 = pair.builder(1.0), pair.builder(0.0)
            rec = random_projector_probe(rho0, rho1, samples=500, seed=11)
            assert rec.min_value >= rec.bound - 1e-9

    def test_checkpoints_monotone(self):
        rng = np.random.default_rng(59)
        rec = random_projector_probe(
            _random_density(rng, 3), _random_density(rng, 3), samples=300, seed=2
        )
        vals = [v for _, v in rec.checkpoints]
        assert vals == sorted(vals, reverse=True)
        assert rec.checkpoints[-1][0] == 300

    def test_balanced_family_is_admissible(self):
        rng = np.random.default_rng(61)
        rho0 = _density(np.diag([0.3, 0.3, 0.4]))
        rho1 = _random_density(rng, 3)
        base = balanced_eigenbasis(eigendecompose(rho0), rho1)
        ProjectorFamily(base)  # orthonormality enforced at construction
