"""Not-shared / remaining entropies, the convexity sign Q_c, and the
randomized projector probe.

The central quantity compares a reference reduced state ``rho_0`` with a
partner ``rho_1`` through the eigenprojectors of the reference.  Within a
degenerate eigenvalue subspace the projector choice is not unique, so the
not-shared entropy minimizes over that freedom; the closed form used here
is the uniform-diagonal (Schur-convexity) minimum, cross-checked by a
numerical intra-block minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectra import (
    DEFAULT_DEGENERACY_TOL,
    DEFAULT_SUPPORT_FLOOR,
    HermitianMatrix,
    Spectrum,
    eigendecompose,
    von_neumann_entropy,
)

DEFAULT_QC_TOL = 1e-9


def theta(x: float) -> float:
    """Ramp function x * heaviside(x): x for x > 0, else 0."""
    return x if x > 0.0 else 0.0


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


@dataclass(frozen=True)
class CriterionReport:
    """Entropy bookkeeping for one superposition pair.

    ``qc = sign(s_r - s_ns)`` with a zero band of width ``qc_tol``; +1
    predicts a convex entropy-vs-alpha curve, -1 a concave one, 0 is
    reported as indeterminate.
    """

    s0: float
    s1: float
    s_ns: float
    s_r: float
    qc: int
    log_base: float
    qc_tol: float = DEFAULT_QC_TOL

    def __post_init__(self):
        if abs(self.s_r - (self.s0 - self.s_ns)) > 1e-10:
            raise ValueError("s_r must equal s0 - s_ns")
        if not (-1e-10 <= self.s_ns <= self.s0 + 1e-10):
            raise ValueError(f"s_ns={self.s_ns!r} outside [0, s0]")


@dataclass(frozen=True)
class ProbeRecord:
    """Result of the randomized projector probe."""

    min_value: float
    bound: float
    entropy: float
    samples: int
    checkpoints: tuple[tuple[int, float], ...]


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
    log_base: float = 2.0,
) -> float:
    """Projector-family-dependent entropy -sum Theta[lambda_i - <rho_1>_i] log lambda_i.

    The family must consist of eigenprojectors of the reference state
    (one admissible choice among many when degenerate).
    """
    if spec0.dim != rho1.dim or fam.dim != spec0.dim:
        raise ValueError("dimension mismatch")
    rho0 = spec0.reconstruct()
    lam = np.real(np.einsum("ia,ij,ja->a", fam.vectors.conj(), rho0, fam.vectors))
    resid = rho0 @ fam.vectors - fam.vectors * lam
    if np.max(np.abs(resid)) > 1e-8:
        raise ValueError("family is not an eigenprojector family of the reference")
    expect1 = expectations_under_projectors(rho1, fam)
    total = 0.0
    for lam_i, q_i in zip(lam, expect1):
        if lam_i > spec0.support_floor:
            total -= theta(lam_i - q_i) * math.log(lam_i)
    return total / math.log(log_base)


def _block_traces(spec0: Spectrum, rho1: HermitianMatrix) -> list[tuple[float, int, float]]:
    """(eigenvalue, block dimension, Tr(Pi rho1 Pi)) for each block of spec0."""
    out = []
    for block in spec0.blocks:
        lam = float(np.mean(spec0.eigenvalues[list(block)]))
        v = spec0.eigenvectors[:, list(block)]
        tr = float(np.real(np.trace(v.conj().T @ rho1.entries @ v)))
        out.append((lam, len(block), tr))
    return out


def refine_blocks_by_sector(
    spec0: Spectrum, sector_operator: np.ndarray, sector_tol: float = 1e-8
) -> Spectrum:
    """Split degeneracy blocks along the eigenspaces of a symmetry operator.

    Rotates the eigenvectors inside each block so they also diagonalize the
    restriction of ``sector_operator`` (which must commute with the
    reconstructed state on each block), then subdivides blocks wherever the
    operator eigenvalues differ.  Restricting the projector freedom to a
    conserved quantity reproduces computations carried out with
    symmetry-adapted basis sets, where exactly degenerate eigenvalues in
    different sectors are never mixed.
    """
    op = np.asarray(sector_operator, dtype=complex)
    if op.shape != (spec0.dim, spec0.dim):
        raise ValueError("sector operator dimension mismatch")
    v = np.array(spec0.eigenvectors, dtype=complex)
    blocks: list[tuple[int, ...]] = []
    for block in spec0.blocks:
        cols = list(block)
        if len(cols) == 1:
            blocks.append(tuple(cols))
            continue
        vb = v[:, cols]
        restriction = vb.conj().T @ op @ vb
        w, u = np.linalg.eigh(0.5 * (restriction + restriction.conj().T))
        v[:, cols] = vb @ u
        spread = float(w[-1] - w[0])
        gap = sector_tol * max(spread, 1.0)
        current = [cols[0]]
        for k in range(1, len(cols)):
            if w[k] - w[k - 1] > gap:
                blocks.append(tuple(current))
                current = []
            current.append(cols[k])
        blocks.append(tuple(current))
    return Spectrum(
        eigenvalues=np.array(spec0.eigenvalues),
        eigenvectors=v,
        blocks=tuple(blocks),
        support=spec0.support,
        support_floor=spec0.support_floor,
    )


def not_shared_entropy(
    spec0: Spectrum, rho1: HermitianMatrix, log_base: float = 2.0
) -> float:
    """Not-shared entropy: the family-dependent sum minimized inside each block.

    A block with eigenvalue lambda and dimension d contributes
    ``Theta[d lambda - Tr(Pi rho1 Pi)] log(1/lambda)``; for d = 1 this is
    the plain projector term and for d = 2 it reproduces the explicit
    twofold-degeneracy case analysis.
    """
    if spec0.dim != rho1.dim:
        raise ValueError("dimension mismatch")
    total = 0.0
    for lam, d, tr in _block_traces(spec0, rho1):
        if lam > spec0.support_floor:
            total += theta(d * lam - tr) * math.log(1.0 / lam)
    return total / math.log(log_base)


def not_shared_entropy_sampled(
    spec0: Spectrum,
    rho1: HermitianMatrix,
    log_base: float = 2.0,
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
        if lam <= spec0.support_floor:
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
    return total / math.log(log_base)


def _block_sum(diag: np.ndarray, lam: float) -> float:
    return float(sum(theta(lam - a) for a in diag))


def remaining_entropy(s0: float, s_ns: float) -> float:
    """S_R = S(rho_0) - S_NS(rho_0)."""
    if s_ns > s0 + 1e-10:
        raise ValueError(f"s_ns={s_ns!r} exceeds s0={s0!r}")
    return max(s0 - s_ns, 0.0)


def criterion_qc(s_ns: float, s_r: float, qc_tol: float = DEFAULT_QC_TOL) -> int:
    """sgn(S_R - S_NS) with a zero band of width qc_tol."""
    diff = s_r - s_ns
    if abs(diff) <= qc_tol:
        return 0
    return 1 if diff > 0 else -1


def evaluate_criterion(
    rho0: HermitianMatrix,
    rho1: HermitianMatrix,
    log_base: float = 2.0,
    qc_tol: float = DEFAULT_QC_TOL,
    degeneracy_tol: float = DEFAULT_DEGENERACY_TOL,
    support_floor: float = DEFAULT_SUPPORT_FLOOR,
    reference: int = 0,
    sector_operator: np.ndarray | None = None,
) -> CriterionReport:
    """Full criterion evaluation for a pair of reduced density matrices.

    ``reference`` selects which state plays the role of the reference in
    the not-shared entropy (the criterion can be stated either way).
    ``sector_operator``, when given, restricts the degenerate-subspace
    minimization to eigenprojectors that respect the sectors of a conserved
    quantity (see :func:`refine_blocks_by_sector`).
    """
    if reference == 1:
        rho0, rho1 = rho1, rho0
    elif reference != 0:
        raise ValueError("reference must be 0 or 1")
    spec0 = eigendecompose(rho0, degeneracy_tol, support_floor)
    spec1 = eigendecompose(rho1, degeneracy_tol, support_floor)
    if sector_operator is not None:
        spec0 = refine_blocks_by_sector(spec0, sector_operator)
    s0 = von_neumann_entropy(spec0, log_base)
    s1 = von_neumann_entropy(spec1, log_base)
    s_ns = min(not_shared_entropy(spec0, rho1, log_base), s0)
    s_r = remaining_entropy(s0, s_ns)
    return CriterionReport(
        s0=s0,
        s1=s1,
        s_ns=s_ns,
        s_r=s_r,
        qc=criterion_qc(s_ns, s_r, qc_tol),
        log_base=log_base,
        qc_tol=qc_tol,
    )


def balanced_eigenbasis(spec0: Spectrum, rho1: HermitianMatrix) -> np.ndarray:
    """Eigenbasis of the reference with uniform partner diagonal per block.

    Inside each degeneracy block the partner restriction is rotated so its
    diagonal is constant (eigenbasis of the restriction followed by a
    discrete Fourier rotation), which attains the block minimum of the
    family sum.
    """
    v = np.array(spec0.eigenvectors, dtype=complex)
    for block in spec0.blocks:
        d = len(block)
        if d == 1:
            continue
        cols = list(block)
        vb = v[:, cols]
        r = vb.conj().T @ rho1.entries @ vb
        _, w = np.linalg.eigh(0.5 * (r + r.conj().T))
        f = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / math.sqrt(d)
        v[:, cols] = vb @ w @ f
    return v


def _haar_batch(rng: np.random.Generator, batch: int, dim: int) -> np.ndarray:
    g = rng.standard_normal((batch, dim, dim)) + 1j * rng.standard_normal((batch, dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.exp(-1j * np.angle(np.einsum("bii->bi", r)))
    return q * phases[:, None, :]


def _block_rotation_batch(
    rng: np.random.Generator,
    batch: int,
    dim: int,
    blocks,
    strength: float,
) -> np.ndarray:
    """Batch of block-diagonal unitaries: a small random rotation per block."""
    out = np.zeros((batch, dim, dim), dtype=complex)
    for block in blocks:
        cols = list(block)
        d = len(cols)
        if d == 1:
            out[:, cols[0], cols[0]] = 1.0
            continue
        g = rng.standard_normal((batch, d, d)) + 1j * rng.standard_normal((batch, d, d))
        q, _ = np.linalg.qr(np.eye(d)[None, :, :] + strength * g)
        out[:, np.ix_(cols, cols)[0], np.ix_(cols, cols)[1]] = q
    return out


def random_projector_probe(
    rho0: HermitianMatrix,
    rho1: HermitianMatrix,
    samples: int,
    seed: int = 0,
    log_base: float = 2.0,
    mode: str = "biased",
    bias_strength: float = 0.01,
    degeneracy_tol: float = DEFAULT_DEGENERACY_TOL,
    support_floor: float = DEFAULT_SUPPORT_FLOOR,
) -> ProbeRecord:
    """Sample complete projector families and minimize S - 2*S_tilde.

    ``S_tilde = -sum max(<rho0>_a - <rho1>_a, 0) log <rho0>_a`` for each
    sampled family.  ``mode='haar'`` draws rotation-invariant random bases;
    ``mode='biased'`` draws random eigenprojector families of the
    reference, obtained from small intra-block rotations around the
    balanced family (included as the first sample).  Only eigenprojector
    families satisfy ``S - 2*S_tilde >= S - 2*S_NS``; leaving that
    manifold lowers the sampled value by about the squared step size, so
    the educated sampler stays on it.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if rho0.dim != rho1.dim:
        raise ValueError("dimension mismatch")
    spec0 = eigendecompose(rho0, degeneracy_tol, support_floor)
    s = von_neumann_entropy(spec0, log_base)
    s_ns = not_shared_entropy(spec0, rho1, log_base)
    bound = s - 2.0 * s_ns

    rng = np.random.default_rng(seed)
    dim = rho0.dim
    base = balanced_eigenbasis(spec0, rho1) if mode == "biased" else None

    log_conv = math.log(log_base)
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
            rot = _block_rotation_batch(rng, n, dim, spec0.blocks, bias_strength)
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
            logs = np.where(p > support_floor, np.log(np.maximum(p, 1e-300)), 0.0)
        stilde = -np.sum(excess * logs, axis=1) / log_conv
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
