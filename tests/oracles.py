"""Slow reference implementations that tests compare the package against,
and analytic checks of the model constructions."""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import sph_harm_y

from entconvex.angular import AngularConfig, cg
from entconvex.criterion import (
    BIAS_STRENGTH,
    SECTOR_TOL,
    CriterionReport,
    ProbeRecord,
    balanced_eigenbasis,
    criterion_qc,
)
from entconvex.oscillator import (
    OscBasisSpec,
    OscState,
    _ladder_matrices,
    coefficient_tensor,
    kappa_coefficients,
    omega_relative,
)
from entconvex.spectra import (
    LN2,
    SUPPORT_FLOOR,
    HermitianMatrix,
    Spectrum,
    eigendecompose,
    gap_clusters,
    von_neumann_entropy,
)
from entconvex.spherium import (
    CORRELATION_SCALE,
    COUPLED_L1,
    COUPLED_L2,
    ENERGY,
    SPHERE_RADIUS_SQ,
    TOTAL_L,
    _index,
    basis_size,
    perkins_weight,
    sph_product,
)


def theta(x: float) -> float:
    """Ramp function x * heaviside(x): x for x > 0, else 0."""
    return x if x > 0.0 else 0.0


def reconstruct(spec: Spectrum) -> np.ndarray:
    """The matrix sum_i lambda_i |v_i><v_i| of a spectrum."""
    v = spec.eigenvectors
    return (v * spec.eigenvalues) @ v.conj().T


def dense_entropy_curve(pair, grid_size):
    """Entropies in bits on the uniform alpha grid, one dense density per point.

    Each point builds the full reduced density through ``pair.builder``
    (with its density checks), eigendecomposes it and takes the von
    Neumann entropy; :func:`entconvex.sweep.entropy_curve` must agree.
    """
    return [
        von_neumann_entropy(eigendecompose(pair.builder(float(a))))
        for a in np.linspace(0.0, 1.0, grid_size)
    ]


def dense_refine_blocks_by_sector(spec0: Spectrum, sector_operator: np.ndarray) -> Spectrum:
    """Sector refinement on dense eigenvectors, the oracle of
    :func:`entconvex.criterion.refine_blocks_by_sector`.

    Inside each degeneracy block, the dense eigenvectors are rotated to
    diagonalize the whole restriction of the operator; its ascending
    eigenvalues take the block's positions in order, and a step above
    ``SECTOR_TOL`` starts a sub-block.  The eigenvalues are unchanged, so
    a sub-block's lambda is the mean at its positions.
    """
    op = np.asarray(sector_operator)
    if op.shape != (spec0.dim, spec0.dim):
        raise ValueError("sector operator dimension mismatch")
    v = spec0.eigenvectors
    v = np.array(v, dtype=np.result_type(v, op))
    blocks: list[tuple[int, ...]] = []
    for block in spec0.blocks:
        cols = list(block)
        if len(cols) == 1:
            blocks.append(block)
            continue
        vb = v[:, cols]
        r = vb.conj().T @ op @ vb
        w, u = np.linalg.eigh(0.5 * (r + r.conj().T))  # ascending
        v[:, cols] = vb @ u
        blocks += [tuple(cols[k] for k in run) for run in gap_clusters(-w, SECTOR_TOL)]
    dim = spec0.dim
    return Spectrum(
        np.array(spec0.eigenvalues),
        ((np.arange(dim)[None], v[None]),),  # one block of every row
        np.arange(dim),
        blocks=tuple(blocks),
        support=spec0.support,
    )


def dense_not_shared_entropy(spec0: Spectrum, rho1: np.ndarray) -> float:
    """S_NS from dense eigenvectors and a dense partner, block by block, the
    oracle of :func:`entconvex.criterion.not_shared_entropy`."""
    if spec0.dim != len(rho1):
        raise ValueError("dimension mismatch")
    vectors = spec0.eigenvectors
    total = 0.0
    for block in spec0.blocks:
        lam = float(np.mean(spec0.eigenvalues[list(block)]))
        if lam > SUPPORT_FLOOR:
            v = vectors[:, list(block)]
            tr = float(np.real(np.trace(v.conj().T @ rho1 @ v)))
            total += theta(len(block) * lam - tr) * math.log(1.0 / lam)
    return total / LN2


def evaluate_criterion(
    rho0: HermitianMatrix,
    rho1: HermitianMatrix,
    reference: int = 0,
    sector_operator: np.ndarray | None = None,
) -> CriterionReport:
    """The criterion from two dense reduced densities.

    Each density's eigenpairs come from its own dense solve (the density
    check of ``HermitianMatrix``), and S_NS from the dense oracles above;
    :func:`entconvex.sweep.pair_criterion`, which works on the amplitude
    blocks instead, must agree.  ``reference`` selects which state plays
    the reference in the not-shared entropy.
    """
    if reference == 1:
        rho0, rho1 = rho1, rho0
    elif reference != 0:
        raise ValueError("reference must be 0 or 1")
    spec0 = eigendecompose(rho0)
    if sector_operator is not None:
        spec0 = dense_refine_blocks_by_sector(spec0, sector_operator)
    s0 = von_neumann_entropy(spec0)
    s1 = von_neumann_entropy(eigendecompose(rho1))
    s_ns = min(dense_not_shared_entropy(spec0, rho1.entries), s0)
    return CriterionReport(s0=s0, s1=s1, s_ns=s_ns, s_r=s0 - s_ns, qc=criterion_qc(s_ns, s0 - s_ns))


@dataclass(frozen=True)
class ProjectorFamily:
    """A complete family of orthonormal rank-1 projectors.

    ``vectors[:, i]`` spans the i-th projector.  Completeness and pairwise
    orthogonality are enforced at construction.
    """

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("need a square set of column vectors")
        gram = v.conj().T @ v
        if np.max(np.abs(gram - np.eye(v.shape[0]))) > 1e-9:
            raise ValueError("projector family is not orthonormal/complete")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


def expectations_under_projectors(rho: HermitianMatrix, fam: ProjectorFamily) -> np.ndarray:
    """Tr(P_i rho) for every projector in the family."""
    if rho.dim != fam.dim:
        raise ValueError(f"dimension mismatch {rho.dim} != {fam.dim}")
    vals = np.real(np.einsum("ia,ij,ja->a", fam.vectors.conj(), rho.entries, fam.vectors))
    return np.clip(vals, 0.0, 1.0)


def not_shareable_entropy(
    spec0: Spectrum,
    rho1: HermitianMatrix,
    fam: ProjectorFamily,
) -> float:
    """Projector-family-dependent entropy -sum Theta[lambda_i - <rho_1>_i] log2 lambda_i.

    The family must consist of eigenprojectors of the reference state
    (one admissible choice among many when degenerate).
    """
    if spec0.dim != rho1.dim or fam.dim != spec0.dim:
        raise ValueError("dimension mismatch")
    rho0 = reconstruct(spec0)
    lam = np.real(np.einsum("ia,ij,ja->a", fam.vectors.conj(), rho0, fam.vectors))
    resid = rho0 @ fam.vectors - fam.vectors * lam
    if np.max(np.abs(resid)) > 1e-8:
        raise ValueError("family is not an eigenprojector family of the reference")
    expect1 = expectations_under_projectors(rho1, fam)
    total = 0.0
    for lam_i, q_i in zip(lam, expect1):
        if lam_i > SUPPORT_FLOOR:
            total -= theta(lam_i - q_i) * math.log(lam_i)
    return total / LN2


def not_shared_entropy_sampled(
    spec0: Spectrum,
    rho1: HermitianMatrix,
    samples: int = 400,
    seed: int = 0,
) -> float:
    """Numerical guard for the closed-form block minimum.

    Minimizes the family sum over random unitary rotations inside each
    degeneracy block (the balanced family is included as a candidate).
    """
    rng = np.random.default_rng(seed)
    total = 0.0
    for block in spec0.blocks:
        lam = float(np.mean(spec0.eigenvalues[list(block)]))
        if lam <= SUPPORT_FLOOR:
            continue
        v = spec0.eigenvectors[:, list(block)]
        r = v.conj().T @ rho1.entries @ v
        d = len(block)
        best = _block_sum(np.real(np.diag(r)), lam)
        tr = float(np.real(np.trace(r)))
        best = min(best, theta(d * lam - tr))  # balanced candidate
        for _ in range(samples):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            q, _ = np.linalg.qr(g)
            diag = np.real(np.einsum("ia,ij,ja->a", q.conj(), r, q))
            best = min(best, _block_sum(diag, lam))
        total += best * math.log(1.0 / lam)
    return total / LN2


def _block_sum(diag: np.ndarray, lam: float) -> float:
    return float(sum(theta(lam - a) for a in diag))


def _haar_batch(rng: np.random.Generator, batch: int, dim: int) -> np.ndarray:
    g = rng.standard_normal((batch, dim, dim)) + 1j * rng.standard_normal((batch, dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.exp(-1j * np.angle(np.einsum("bii->bi", r)))
    return q * phases[:, None, :]


def _block_rotation_batch(
    rng: np.random.Generator,
    batch: int,
    dim: int,
    rotated,
    strength: float,
) -> np.ndarray:
    """Batch of block-diagonal unitaries: a small random rotation per rotated block.

    The blocks are taken by ascending size; per size, one real and then one
    imaginary (blocks, batch, d, d) normal array is drawn.  Every other
    column keeps the identity.
    """
    out = np.broadcast_to(np.eye(dim, dtype=complex), (batch, dim, dim)).copy()
    for d in sorted({len(block) for block in rotated}):
        group = [list(block) for block in rotated if len(block) == d]
        shape = (len(group), batch, d, d)
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for cols, gb in zip(group, g):
            q, _ = np.linalg.qr(np.eye(d)[None, :, :] + strength * gb)
            out[:, np.ix_(cols, cols)[0], np.ix_(cols, cols)[1]] = q
    return out


def dense_projector_probe(
    rho0: HermitianMatrix,
    rho1: HermitianMatrix,
    samples: int,
    seed: int = 0,
    mode: str = "biased",
) -> ProbeRecord:
    """The probe with dense families: each sample is a full dim x dim unitary.

    Draws the same random numbers as
    :func:`entconvex.criterion.random_projector_probe`, builds every family
    densely (Householder QR, the balanced basis times a scattered
    block-diagonal rotation) and scores it against the dense states, one
    sample at a time for the checkpoints; the package probe must agree.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if rho0.dim != rho1.dim:
        raise ValueError("dimension mismatch")
    spec0 = eigendecompose(rho0)
    s = von_neumann_entropy(spec0)
    s_ns = dense_not_shared_entropy(spec0, rho1.entries)
    bound = s - 2.0 * s_ns

    rng = np.random.default_rng(seed)
    dim = rho0.dim
    if mode == "biased":
        base = balanced_eigenbasis(spec0, rho1)
        a0 = base.conj().T @ rho0.entries @ base
        # blocks outside the support (||a0_b||_F <= SUPPORT_FLOOR / 2) add 0
        # under any rotation and draw nothing, nor do 1x1 blocks
        rotated = [
            block
            for block in spec0.blocks
            if len(block) > 1 and np.linalg.norm(a0[np.ix_(block, block)]) > 0.5 * SUPPORT_FLOOR
        ]

    best = math.inf
    checkpoints: list[tuple[int, float]] = []
    next_checkpoint = 1
    done = 0
    batch_size = 512
    while done < samples:
        n = min(batch_size, samples - done)
        if mode == "haar":
            fams = _haar_batch(rng, n, dim)
        elif mode == "biased":
            rot = _block_rotation_batch(rng, n, dim, rotated, BIAS_STRENGTH)
            fams = base[None, :, :] @ rot
            if done == 0:
                fams[0] = base
        else:
            raise ValueError("mode must be 'haar' or 'biased'")
        p = np.einsum("bia,ij,bja->ba", fams.conj(), rho0.entries, fams).real
        q1 = np.einsum("bia,ij,bja->ba", fams.conj(), rho1.entries, fams).real
        p = np.clip(p, 0.0, 1.0)
        excess = np.maximum(p - q1, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(p > SUPPORT_FLOOR, np.log(np.maximum(p, 1e-300)), 0.0)
        stilde = -np.sum(excess * logs, axis=1) / LN2
        vals = s - 2.0 * stilde
        for k, val in enumerate(vals):
            best = min(best, float(val))
            count = done + k + 1
            if count >= next_checkpoint:
                checkpoints.append((count, best))
                next_checkpoint = max(next_checkpoint * 2, count + 1)
        done += n
    if not checkpoints or checkpoints[-1][0] != samples:
        checkpoints.append((samples, best))
    return ProbeRecord(
        min_value=best,
        bound=bound,
        entropy=s,
        samples=samples,
        checkpoints=tuple(checkpoints),
    )


# ---------------------------------------------------------------------------
# oscillator: energy and L_z of the expanded state


def _apply_1d(op: np.ndarray, c4: np.ndarray, axis: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(op, c4, axes=([1], [axis])), 0, axis)


def energy_expectation(state: OscState, basis: OscBasisSpec | None = None) -> float:
    """Variational energy of the expanded state.

    The Hamiltonian is written in the separated-argument coordinates (in
    which the expansion is performed); it is unitarily equivalent to the
    particle-coordinate one, so its spectrum is the exact ladder
    2n + |m| + 1 + (2l + |p| + 1) sqrt(4 lambda + 1).
    """
    basis = basis or OscBasisSpec()
    nb = basis.n_per_coordinate
    c4 = coefficient_tensor(state, basis).reshape(nb, nb, nb, nb)
    x, p = _ladder_matrices(nb)
    wr = omega_relative(state.lam)
    x2 = x @ x
    p2 = (p @ p).real
    diag = p2 + ((1.0 + wr**2) / 8.0) * x2
    total = 0.0
    for axis in range(4):
        total += np.real(np.vdot(c4, _apply_1d(diag, c4, axis)))
    # cross terms (x1 x2 and y1 y2) from the frequency mismatch
    xc = _apply_1d(x, c4, 0)
    xc = _apply_1d(x, xc, 2)
    total += ((1.0 - wr**2) / 4.0) * np.real(np.vdot(c4, xc))
    yc = _apply_1d(x, c4, 1)
    yc = _apply_1d(x, yc, 3)
    total += ((1.0 - wr**2) / 4.0) * np.real(np.vdot(c4, yc))
    return float(total)


def lz_residual(state: OscState, basis: OscBasisSpec | None = None) -> float:
    """|| (L_z - (m + p)) |psi> || in the truncated basis."""
    basis = basis or OscBasisSpec()
    nb = basis.n_per_coordinate
    c4 = coefficient_tensor(state, basis).reshape(nb, nb, nb, nb)
    x, p = _ladder_matrices(nb)
    acc = np.zeros_like(c4)
    # L_z = sum_particles x p_y - y p_x;  axes: (x1, y1, x2, y2)
    for ax_x, ax_y in ((0, 1), (2, 3)):
        t = _apply_1d(x, c4, ax_x)
        acc += _apply_1d(p, t, ax_y)
        t = _apply_1d(x, c4, ax_y)
        acc -= _apply_1d(p, t, ax_x)
    acc -= state.lz * c4
    return float(np.linalg.norm(acc))


# ---------------------------------------------------------------------------
# analytic lambda = 0 construction (Gamma-function route)


@lru_cache(maxsize=None)
def _gauss_moment(k: int) -> float:
    """Integral of x^k exp(-x^2/2) over the real line."""
    if k % 2:
        return 0.0
    return math.sqrt(2.0) * 2.0 ** (k / 2) * math.gamma((k + 1) / 2.0)


@lru_cache(maxsize=None)
def _herm_coef(n: int, q: int) -> float:
    return math.factorial(n) * (-1) ** q / (math.factorial(q) * math.factorial(n - 2 * q))


@lru_cache(maxsize=None)
def _binom_moment_sum(a: int, b: int, c1: int, c2: int) -> float:
    total = 0.0
    for s in range(a + 1):
        for t in range(b + 1):
            total += (
                math.comb(a, s)
                * math.comb(b, t)
                * (-1) ** (b - t)
                * _gauss_moment(s + t + c1)
                * _gauss_moment(a - s + b - t + c2)
            )
    return total


@lru_cache(maxsize=None)
def overlap_analytic(a: int, c: int, i1: int, i2: int) -> float:
    """Closed-form lambda = 0 overlap, the Gamma-route twin of the quadrature.

    Expands every Hermite polynomial into monomials and integrates the
    Gaussian moments term by term.  Independent of the quadrature path.
    """
    if (a + c + i1 + i2) % 2:
        return 0.0
    norm = 1.0
    for n in (a, c, i1, i2):
        norm *= (2.0 * math.pi) ** -0.25 / math.sqrt(2.0**n * math.factorial(n))
    total = 0.0
    for qa in range(a // 2 + 1):
        aa = a - 2 * qa
        for qc in range(c // 2 + 1):
            bb = c - 2 * qc
            for q1 in range(i1 // 2 + 1):
                c1 = i1 - 2 * q1
                for q2 in range(i2 // 2 + 1):
                    c2 = i2 - 2 * q2
                    coef = (
                        _herm_coef(a, qa)
                        * _herm_coef(c, qc)
                        * _herm_coef(i1, q1)
                        * _herm_coef(i2, q2)
                        * 2.0 ** ((c1 + c2) / 2.0)
                    )
                    total += coef * _binom_moment_sum(aa, bb, c1, c2)
    return norm * total


def coefficient_tensor_analytic(state: OscState, basis: OscBasisSpec | None = None) -> np.ndarray:
    """lambda = 0 tensor from the analytic overlaps; oracle for the quadrature."""
    if state.lam != 0.0:
        raise ValueError("analytic construction only at lambda = 0")
    basis = basis or OscBasisSpec()
    basis.check_state(state)
    nb = basis.n_per_coordinate
    a_max = 2 * state.n + abs(state.m)
    c_max = 2 * state.l + abs(state.p)
    ox = np.zeros((nb, nb, a_max + 1, c_max + 1))
    for a in range(a_max + 1):
        for c in range(c_max + 1):
            for i1 in range(nb):
                i2 = a + c - i1  # quanta conservation at lambda = 0
                if 0 <= i2 < nb:
                    ox[i1, i2, a, c] = overlap_analytic(a, c, i1, i2)
    kap_r = kappa_coefficients(state.n, state.m)
    kap_rel = kappa_coefficients(state.l, state.p)
    c4 = np.zeros((nb, nb, nb, nb), dtype=complex)
    for (j, k), kr in kap_r.items():
        a = 2 * state.n + abs(state.m) - j - k
        b = j + k
        for (r, s), kv in kap_rel.items():
            cc = 2 * state.l + abs(state.p) - r - s
            d = r + s
            c4 += (kr * kv) * np.einsum("ik,jl->ijkl", ox[:, :, a, cc], ox[:, :, b, d])
    amp = c4.reshape(nb * nb, nb * nb)
    return amp / np.linalg.norm(amp)


# ---------------------------------------------------------------------------
# spherium: the r12 product loop, the radial equation, pointwise values


def sph_product_unmirrored(l1: int, m1: int, l2: int, m2: int) -> tuple[tuple[int, float], ...]:
    """Y_{l1 m1} Y_{l2 m2} coupled on every key, mirrored magnetic numbers
    included: :func:`entconvex.spherium.sph_product` must equal it to the bit."""
    out = []
    for L in range(abs(l1 - l2), l1 + l2 + 1):
        if (l1 + l2 + L) % 2 != 0:
            continue
        c0 = cg(l1, 0, l2, 0, L, 0)
        if c0 == 0.0:
            continue
        c = cg(l1, m1, l2, m2, L, m1 + m2)
        if c == 0.0:
            continue
        pref = math.sqrt((2 * l1 + 1) * (2 * l2 + 1) / (4.0 * math.pi * (2 * L + 1)))
        out.append((L, pref * c * c0))
    return tuple(out)


def multiply_r12_loop(arr: np.ndarray, lcut: int, lmaxes: tuple[int, ...]) -> list[np.ndarray]:
    """r12 products term by term, the loop :func:`entconvex.spherium.multiply_r12`
    must equal to the bit: weights recomputed per entry, numpy scalars."""
    dim = basis_size(lcut)
    if arr.shape != (dim, dim):
        raise ValueError("array does not match the basis cut")
    radius = math.sqrt(SPHERE_RADIUS_SQ)
    outs = [np.zeros_like(arr) for _ in lmaxes]
    rows, cols = np.nonzero(arr)
    for r, c in zip(rows, cols):
        l1 = int(math.isqrt(r))
        m1 = r - l1 * l1 - l1
        l2 = int(math.isqrt(c))
        m2 = c - l2 * l2 - l2
        val = arr[r, c]
        for l in range(max(lmaxes) + 1):
            w = 4.0 * math.pi * radius * float(perkins_weight(1, l))
            if w == 0.0:
                continue
            targets = [out for out, top in zip(outs, lmaxes) if l <= top]
            for m in range(-l, l + 1):
                sign = (-1) ** m
                left = sph_product(l1, m1, l, -m)
                right = sph_product(l2, m2, l, m)
                if not left or not right:
                    continue
                for La, ca in left:
                    if La > lcut:
                        continue
                    ia = _index(La, m1 - m)
                    for Lb, cb in right:
                        if Lb > lcut:
                            continue
                        term = val * w * sign * ca * cb
                        for out in targets:
                            out[ia, _index(Lb, m2 + m)] += term
    return outs


def radial_residual(r12: np.ndarray | float) -> float:
    """Residual of the reduced radial equation on the correlation factor.

    Phi'' + (4/r - 3 r / (2 R^2)) Phi' - Phi/r + E Phi with Phi = 1 + r/4
    must vanish identically at E = 1/4, R^2 = 6.
    """
    r = np.atleast_1d(np.asarray(r12, dtype=float))
    if np.any(r <= 0.0):
        raise ValueError("r12 must be positive")
    phi = 1.0 + r / CORRELATION_SCALE
    dphi = 1.0 / CORRELATION_SCALE
    res = (4.0 / r - 1.5 * r / SPHERE_RADIUS_SQ) * dphi - phi / r + ENERGY * phi
    return float(np.max(np.abs(res)))


def wave_function(M: int, theta1, phi1, theta2, phi2) -> complex:
    """Direct (un-normalized, un-truncated) wave function value."""
    def coupled(ta, pa, tb, pb):
        total = 0.0 + 0.0j
        for m1 in range(-COUPLED_L1, COUPLED_L1 + 1):
            m2 = M - m1
            if abs(m2) > COUPLED_L2:
                continue
            c = cg(COUPLED_L1, m1, COUPLED_L2, m2, TOTAL_L, M)
            if c:
                total += c * sph_harm_y(COUPLED_L1, m1, ta, pa) * sph_harm_y(COUPLED_L2, m2, tb, pb)
        return total

    cosg = math.cos(theta1) * math.cos(theta2) + math.sin(theta1) * math.sin(theta2) * math.cos(phi1 - phi2)
    r12 = math.sqrt(max(2.0 * SPHERE_RADIUS_SQ * (1.0 - cosg), 0.0))
    pair = coupled(theta1, phi1, theta2, phi2) - coupled(theta2, phi2, theta1, phi1)
    return pair * (1.0 + r12 / CORRELATION_SCALE)


def expansion_value(arr: np.ndarray, lcut: int, theta1, phi1, theta2, phi2) -> complex:
    """Evaluate a coefficient array at a pair of directions."""
    vec1 = np.empty(basis_size(lcut), dtype=complex)
    vec2 = np.empty(basis_size(lcut), dtype=complex)
    for l in range(lcut + 1):
        for m in range(-l, l + 1):
            vec1[_index(l, m)] = sph_harm_y(l, m, theta1, phi1)
            vec2[_index(l, m)] = sph_harm_y(l, m, theta2, phi2)
    return complex(vec1 @ arr @ vec2)


# ---------------------------------------------------------------------------
# angular: exact Racah coefficients and endpoint densities


@dataclass(frozen=True)
class ExactCoefficient:
    """sign * sqrt(square) with an exact rational square."""

    sign: int
    square: Fraction

    def __post_init__(self):
        if self.square < 0:
            raise ValueError("square must be non-negative")

    @property
    def value(self) -> float:
        return self.sign * math.sqrt(self.square)


ZERO = ExactCoefficient(0, Fraction(0))


@lru_cache(maxsize=None)
def clebsch_gordan(l1: int, m1: int, l2: int, m2: int, L: int, M: int) -> ExactCoefficient:
    """Exact Clebsch-Gordan coefficient C(l1,m1; l2,m2; L,M).

    Racah's closed form, evaluated over rationals term by term; the oracle
    of the integer form behind :func:`entconvex.angular.cg`.  Returns the
    exact zero coefficient when m1 + m2 != M or a magnetic number is out of
    range; raises on a triangle violation.
    """
    if not abs(l1 - l2) <= L <= l1 + l2:
        raise ValueError(f"triangle violation for ({l1}, {l2}, {L})")
    if m1 + m2 != M or abs(m1) > l1 or abs(m2) > l2 or abs(M) > L:
        return ZERO

    f = math.factorial
    pref = Fraction(
        (2 * L + 1) * f(L + l1 - l2) * f(L - l1 + l2) * f(l1 + l2 - L),
        f(l1 + l2 + L + 1),
    ) * Fraction(
        f(L + M) * f(L - M) * f(l1 - m1) * f(l1 + m1) * f(l2 - m2) * f(l2 + m2), 1
    )

    kmin = max(0, l2 - L - m1, l1 + m2 - L)
    kmax = min(l1 + l2 - L, l1 - m1, l2 + m2)
    total = Fraction(0)
    for k in range(kmin, kmax + 1):
        denom = (
            f(k)
            * f(l1 + l2 - L - k)
            * f(l1 - m1 - k)
            * f(l2 + m2 - k)
            * f(L - l2 + m1 + k)
            * f(L - l1 - m2 + k)
        )
        total += Fraction((-1) ** k, denom)
    if total == 0:
        return ZERO
    sign = 1 if total > 0 else -1
    return ExactCoefficient(sign, pref * total * total)




def coupled_reduced_density_exact(l: int, L: int, M: int, alpha: int) -> list[list[Fraction]]:
    """Exact rational reduced density of the mirror pair M/-M at alpha in {0, 1}.

    At the endpoints only squared coefficients appear, so every entry is
    rational.  Basis order is the canonical m-basis m = l, l-1, ..., -l.
    """
    if alpha not in (0, 1):
        raise ValueError("exact assembly only at alpha in {0, 1}")
    Meff = M if alpha == 1 else -M
    AngularConfig(l, l, L, Meff)
    dim = 2 * l + 1
    rho = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        mi = l - i
        c = clebsch_gordan(l, mi, l, Meff - mi, L, Meff)
        rho[i][i] = c.square
    return rho


def coupled_energy_check(l: int, L: int, M: int) -> int:
    """Eigenvalue of L_total^2 - L_z^2 on the coupled state: L(L+1) - M^2."""
    AngularConfig(l, l, L, M)
    return L * (L + 1) - M * M
