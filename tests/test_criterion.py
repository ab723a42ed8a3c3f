import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entconvex import criterion
from entconvex.criterion import (
    balanced_eigenbasis,
    criterion_qc,
    not_shared_entropy,
    orthonormalize,
    random_projector_probe,
    refine_blocks_by_sector,
)
from entconvex.spectra import SUPPORT_FLOOR, HermitianMatrix, eigendecompose, von_neumann_entropy
from entconvex.sweep import angular_pair
from oracles import (
    ProjectorFamily,
    dense_projector_probe,
    dense_refine_blocks_by_sector,
    evaluate_criterion,
    expectations_under_projectors,
    not_shareable_entropy,
    not_shared_entropy_sampled,
    reconstruct,
    theta,
)


def _density(mat):
    return HermitianMatrix(np.asarray(mat, dtype=complex))


def _random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return _density(rho / np.real(np.trace(rho)))


def _blocks(rho):
    """A dense density as the one amplitude block of a dense spectrum."""
    return (rho.entries[None],)


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
        # only the first level exceeds, contributing -0.3 log2 0.7
        spec = eigendecompose(_density(np.diag([0.7, 0.3])))
        fam = ProjectorFamily(spec.eigenvectors)
        got = not_shareable_entropy(spec, _density(np.diag([0.4, 0.6])), fam)
        assert got == pytest.approx(-0.3 * math.log2(0.7), abs=1e-12)

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
        assert not_shared_entropy(spec, _blocks(rho1)) == pytest.approx(
            not_shareable_entropy(spec, rho1, fam), abs=1e-12
        )

    def test_twofold_degenerate_closed_form(self):
        # one degenerate pair at lambda, partner weight tr inside the block:
        # contribution Theta[2 lambda - tr] log(1/lambda)
        lam, mu = 0.4, 0.2
        rho0 = _density(np.diag([lam, lam, mu]))
        rho1 = _density(np.diag([0.1, 0.15, 0.75]))
        spec = eigendecompose(rho0)
        expected = theta(2 * lam - 0.25) * math.log2(1 / lam) + theta(mu - 0.75) * math.log2(1 / mu)
        got = not_shared_entropy(spec, _blocks(rho1))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_closed_form_is_block_minimum(self):
        # the sampled intra-block minimizer never beats the closed form
        rng = np.random.default_rng(29)
        rho0 = _density(np.diag([0.35, 0.35, 0.2, 0.1]))
        spec = eigendecompose(rho0)
        for _ in range(5):
            rho1 = _random_density(rng, 4)
            closed = not_shared_entropy(spec, _blocks(rho1))
            sampled = not_shared_entropy_sampled(spec, rho1, samples=200, seed=7)
            assert closed <= sampled + 1e-9

    def test_bounded_by_entropy(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            rho0 = _random_density(rng, 5)
            rho1 = _random_density(rng, 5)
            spec = eigendecompose(rho0)
            s = von_neumann_entropy(spec)
            assert -1e-10 <= not_shared_entropy(spec, _blocks(rho1)) <= s + 1e-9


class TestSectorRefinement:
    def test_splits_degenerate_block_by_sector(self):
        rho0 = _density(np.diag([0.4, 0.4, 0.2]))
        op = np.diag([1.0, -1.0, 0.0])
        blocks, _ = refine_blocks_by_sector(eigendecompose(rho0), op, _blocks(rho0))
        assert blocks == ((0,), (1,), (2,))

    def test_noop_when_operator_constant_on_block(self):
        rho0 = _density(np.diag([0.4, 0.4, 0.2]))
        spec0 = eigendecompose(rho0)
        blocks, _ = refine_blocks_by_sector(spec0, np.eye(3), _blocks(rho0))
        assert blocks == spec0.blocks

    def test_sector_value_at_least_minimized(self):
        # restricting the projector freedom can only raise the minimum
        rng = np.random.default_rng(37)
        rho0 = _density(np.diag([0.3, 0.3, 0.3, 0.1]))
        op = np.diag([2.0, 1.0, -1.0, 0.0])
        spec = eigendecompose(rho0)
        for _ in range(5):
            rho1 = _random_density(rng, 4)
            restricted = not_shared_entropy(spec, _blocks(rho1), sector_operator=op)
            assert restricted >= not_shared_entropy(spec, _blocks(rho1)) - 1e-9

    def test_eigenvectors_still_diagonalize(self):
        # the oracle's rotated eigenvectors diagonalize the operator, and the
        # block path's weights sum, per sub-block, to the partner's trace
        # over that sector: ascending values -1, then +1
        rng = np.random.default_rng(41)
        rho0 = _density(np.diag([0.25, 0.25, 0.25, 0.25]))
        rho1 = _random_density(rng, 4)
        op = np.diag([1.0, 1.0, -1.0, -1.0])
        refined = dense_refine_blocks_by_sector(eigendecompose(rho0), op)
        np.testing.assert_allclose(reconstruct(refined), rho0.entries, atol=1e-12)
        v = refined.eigenvectors
        off = v.conj().T @ op @ v
        np.testing.assert_allclose(off, np.diag(np.diag(off)), atol=1e-10)
        blocks, weights = refine_blocks_by_sector(eigendecompose(rho0), op, _blocks(rho1))
        assert blocks == refined.blocks == ((0, 1), (2, 3))
        sectors = [np.trace(rho1.entries[2:, 2:]).real, np.trace(rho1.entries[:2, :2]).real]
        np.testing.assert_allclose([weights[list(b)].sum() for b in blocks], sectors, atol=1e-15)


class TestEvaluateCriterion:
    def test_report_identities(self):
        rng = np.random.default_rng(43)
        rho0 = _random_density(rng, 4)
        rho1 = _random_density(rng, 4)
        rep = evaluate_criterion(rho0, rho1)
        assert rep.s_r == pytest.approx(rep.s0 - rep.s_ns, abs=1e-12)
        assert rep.qc == criterion_qc(rep.s_ns, rep.s_r)

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
        for l, L in [(1, 1), (2, 2), (3, 1)]:
            pair = angular_pair(l, L, L)
            rho0, rho1 = pair.builder(1.0), pair.builder(0.0)
            rec = random_projector_probe(rho0, rho1, samples=500, seed=11)
            assert rec.min_value >= rec.bound - 1e-9

    def test_l6_L2_dips_below_bound(self):
        # the one mirror pair (with l = 6, L = 1) whose minimum is not the
        # balanced family: at seed 1, the first of seeds 0-7 at which it
        # dips, a sampled rotation between checkpoints 8192 and 10000
        # lowers it 6.2e-3 below S - 2 S_NS, the benchmark's recorded
        # finding; a probe that stopped sampling rotations stays at the bound
        rho0, rho1 = _angular_states(6, 2)
        rec = random_projector_probe(rho0, rho1, samples=10_000, seed=1)
        assert rec.checkpoints[-2] == (8192, pytest.approx(rec.bound, abs=1e-12))
        assert rec.bound - rec.min_value == pytest.approx(6.2246812e-3, rel=1e-6)

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

    def test_argument_errors(self, monkeypatch):
        rho = _density(np.diag([0.5, 0.5]))
        with pytest.raises(ValueError, match="samples"):
            random_projector_probe(rho, rho, samples=0)
        with pytest.raises(ValueError, match="dimension"):
            random_projector_probe(rho, _density(np.eye(3) / 3.0), samples=1)

        def no_work(*args, **kwargs):
            raise AssertionError("eigendecompose ran before the mode was checked")

        monkeypatch.setattr(criterion, "eigendecompose", no_work)
        with pytest.raises(ValueError, match="mode"):
            random_projector_probe(rho, rho, samples=1, mode="uniform")


def _planted_pair(tiny=None):
    """rho0 with degenerate blocks of sizes 1, 2 and 3 in a random basis.

    The partner is rho0 plus a random Hermitian term that is traceless on
    each block, so each block's partner weight is d lambda: the balanced
    family sits exactly at the threshold of every Theta term, and each
    intra-block rotation moves the sampled value, so the checkpoints
    depend on every draw.  With ``tiny``, rho0 has a fourth block of size 3
    at eigenvalue ``tiny``, last in block order, on which the partner
    equals rho0.
    """
    sizes = [1, 2, 3] if tiny is None else [1, 2, 3, 3]
    dim = sum(sizes)
    rng = np.random.default_rng(67)
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    w = np.array([0.3, 0.15, 0.15, 0.4 / 3, 0.4 / 3, 0.4 / 3])
    if tiny is not None:
        w = np.concatenate([w * (1.0 - 3.0 * tiny), [tiny] * 3])
    rho0 = _density((u * w) @ u.conj().T)
    assert [len(b) for b in eigendecompose(rho0).blocks] == sizes
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = np.zeros((dim, dim), dtype=complex)
    h[:6, :6] = (g + g.conj().T)[:6, :6]
    for block in (slice(0, 1), slice(1, 3), slice(3, 6)):
        h[block, block] -= np.trace(h[block, block]) / (block.stop - block.start) * np.eye(
            block.stop - block.start
        )
    rho1 = _density(rho0.entries + 0.01 * u @ h @ u.conj().T)
    return rho0, rho1


def _angular_states(l, L):
    pair = angular_pair(l, L, L)
    return pair.builder(1.0), pair.builder(0.0)


PROBE_PAIRS = {
    "angular-1-1": lambda: _angular_states(1, 1),
    "angular-3-1": lambda: _angular_states(3, 1),
    "angular-3-3": lambda: _angular_states(3, 3),
    "angular-3-6": lambda: _angular_states(3, 6),
    # a support block of 2, then a null block of 10 the biased probe skips
    "angular-6-10": lambda: _angular_states(6, 10),
    "planted-1-2-3": _planted_pair,
    # a null block of 3 after the planted ones, skipped
    "planted-1-2-3-null": lambda: _planted_pair(tiny=1e-14),
    # a block of 3 below the support floor whose norm exceeds half of it:
    # rotated and scored, its expectations still carry no log weight
    "planted-1-2-3-subfloor": lambda: _planted_pair(tiny=0.8 * SUPPORT_FLOOR),
}


class TestProbeOracle:
    """The block-local probe against the dense-family probe, seed for seed."""

    @pytest.mark.parametrize("mode", ["biased", "haar"])
    @pytest.mark.parametrize("name", sorted(PROBE_PAIRS))
    def test_same_seed_same_checkpoints(self, name, mode):
        rho0, rho1 = PROBE_PAIRS[name]()
        # 1 is the balanced family alone; 511-513 and 1025 straddle batches
        for samples in (1, 3, 511, 512, 513, 1025):
            got = random_projector_probe(rho0, rho1, samples, seed=samples, mode=mode)
            want = dense_projector_probe(rho0, rho1, samples, seed=samples, mode=mode)
            assert [c for c, _ in got.checkpoints] == [c for c, _ in want.checkpoints]
            np.testing.assert_allclose(
                [v for _, v in got.checkpoints], [v for _, v in want.checkpoints],
                rtol=0, atol=1e-12,
            )
            assert got.min_value == pytest.approx(want.min_value, abs=1e-12)
            assert (got.bound, got.entropy, got.samples) == (want.bound, want.entropy, samples)

    def test_minimum_set_after_first_batch(self):
        # at seed 25 the l = 6, L = 2 minimum dips below the bound in the
        # second or third batch only, so an extra or a missing draw, which
        # shifts the rotations of every later batch, moves it
        rho0, rho1 = _angular_states(6, 2)
        got = random_projector_probe(rho0, rho1, 1025, seed=25)
        want = dense_projector_probe(rho0, rho1, 1025, seed=25)
        first = dict(got.checkpoints)[512]
        assert first == pytest.approx(got.bound, abs=1e-12)
        assert got.min_value < got.bound - 1e-3
        assert [c for c, _ in got.checkpoints] == [c for c, _ in want.checkpoints]
        np.testing.assert_allclose(
            [v for _, v in got.checkpoints], [v for _, v in want.checkpoints], rtol=0, atol=1e-12
        )


class TestProbeSkipsNullBlocks:
    """The biased probe draws for, rotates and scores the blocks inside the support only."""

    PAIRS = dict(PROBE_PAIRS, **{"angular-6-12": lambda: _angular_states(6, 12)})
    # (blocks stacked, block size) of every rotated stack
    STACKS = [
        ("angular-6-12", set()),
        ("angular-6-10", {(1, 2)}),
        ("planted-1-2-3-null", {(1, 2), (1, 3)}),
        ("planted-1-2-3-subfloor", {(1, 2), (2, 3)}),
    ]

    @pytest.mark.parametrize("name, stacks", STACKS)
    def test_rotated_stacks(self, monkeypatch, name, stacks):
        rho0, rho1 = self.PAIRS[name]()
        seen = []
        for fname in ("orthonormalize", "_expectations"):
            real = getattr(criterion, fname)

            def spy(a, *rest, _real=real):
                assert a.shape[-2] == a.shape[-1]
                seen.append((a.shape[0], a.shape[-1]))
                return _real(a, *rest)

            monkeypatch.setattr(criterion, fname, spy)
        random_projector_probe(rho0, rho1, samples=600, seed=3)
        assert set(seen) == stacks
        # two batches, each one orthonormalize and one _expectations call per size
        assert len(seen) == 2 * 2 * len(stacks)

    @pytest.mark.parametrize("name, stacks", STACKS)
    def test_draws_only_rotated_blocks(self, monkeypatch, name, stacks):
        # the seed's stream: per batch and per rotated block size d, in
        # ascending order, a real and an imaginary (blocks, n, d, d) normal
        # array; nothing for 1x1 blocks or blocks outside the support
        rho0, rho1 = self.PAIRS[name]()
        made = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(
            criterion.np.random, "default_rng", lambda seed: made.append(default_rng(seed)) or made[-1]
        )
        random_projector_probe(rho0, rho1, samples=1025, seed=5)
        want = default_rng(5)
        for n in (512, 512, 1):
            for k, d in sorted(stacks, key=lambda s: s[1]):
                want.standard_normal((2, k, n, d, d))
        assert made[0].bit_generator.state == want.bit_generator.state


def _qr_positive(a):
    """Householder QR's Q with each column rephased so that diag(R) > 0."""
    q, r = np.linalg.qr(a)
    return q * np.exp(-1j * np.angle(np.einsum("...ii->...i", r)))[..., None, :]


def _gram_error(q):
    """Largest infinity norm of Q^dagger Q - I over a stack."""
    gram = np.swapaxes(q.conj(), -1, -2) @ q - np.eye(q.shape[-1])
    return np.abs(gram).sum(axis=-1).max()


class TestOrthonormalize:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_ginibre_stack(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((500, 3, 3)) + 1j * rng.standard_normal((500, 3, 3))
        q = orthonormalize(g)
        assert _gram_error(q) <= 1e-14
        np.testing.assert_allclose(q, _qr_positive(g), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 12])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_near_identity_stack(self, d, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((500, d, d)) + 1j * rng.standard_normal((500, d, d))
        a = np.eye(d) + 0.01 * g
        q = orthonormalize(a)
        assert _gram_error(q) <= 1e-14
        np.testing.assert_allclose(q, _qr_positive(a), rtol=0, atol=1e-10)
