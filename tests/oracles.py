"""Slow reference implementations that tests compare the package against."""

import math
from dataclasses import dataclass

import numpy as np

from entconvex.criterion import (
    ProbeRecord,
    balanced_eigenbasis,
    not_shared_entropy,
    theta,
)
from entconvex.spectra import (
    DEFAULT_DEGENERACY_TOL,
    DEFAULT_SUPPORT_FLOOR,
    HermitianMatrix,
    Spectrum,
    eigendecompose,
    von_neumann_entropy,
)


def dense_entropy_curve(pair, grid_size, log_base=2.0):
    """Entropies on the uniform alpha grid, one dense density per point.

    Each point builds the full reduced density through ``pair.builder``
    (with its density checks), eigendecomposes it and takes the von
    Neumann entropy; :func:`entconvex.sweep.entropy_curve` must agree.
    """
    return [
        von_neumann_entropy(eigendecompose(pair.builder(float(a))), log_base)
        for a in np.linspace(0.0, 1.0, grid_size)
    ]


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


def dense_projector_probe(
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
