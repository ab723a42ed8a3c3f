"""Density matrices, spectra with degeneracy blocks, entropies and the trace-out.

Everything downstream (criterion evaluation, model sweeps) consumes the
types defined here.  All values are immutable after construction and the
functions are pure, so they can be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-8
EIGENVALUE_FLOOR = -1e-10

DEFAULT_DEGENERACY_TOL = 1e-8
SUPPORT_FLOOR = 1e-12  # eigenvalues at or below this are outside the support
UNIT_NORM_TOL = 1e-6  # a pure state's amplitude norm may deviate from 1 by this
# an entry of the amplitude support product above this fraction of its
# largest entry links two rows into one block
BLOCK_LINK_TOL = 1e-15


class NonHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class NotDensityMatrixError(ValueError):
    """Matrix violates unit trace or positivity."""


@dataclass(frozen=True)
class HermitianMatrix:
    """A density matrix: Hermitian, unit trace, positive semidefinite.

    The constructor checks all three.  Its positivity check is the one
    eigen-solve of the matrix: the eigenpairs are kept, sorted by
    descending eigenvalue, for :func:`eigendecompose`.

    Parameters
    ----------
    entries : complex ndarray, shape (dim, dim)
    """

    entries: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    eigenvectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        dev = np.max(np.abs(a - a.conj().T))
        if dev > HERMITICITY_TOL * max(1.0, np.max(np.abs(a))):
            raise NonHermitianError(f"hermiticity deviation {dev:.3e}")
        a = 0.5 * (a + a.conj().T)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)
        tr = float(np.real(np.trace(a)))
        if abs(tr - 1.0) > TRACE_TOL:
            raise NotDensityMatrixError(f"trace {tr!r} != 1")
        w, v = np.linalg.eigh(a)
        if w[0] < EIGENVALUE_FLOOR:
            raise NotDensityMatrixError(f"negative eigenvalue {w[0]:.3e}")
        order = np.argsort(w)[::-1]
        w = np.ascontiguousarray(w[order])
        v = np.ascontiguousarray(v[:, order])
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.real(np.trace(self.entries)))


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition with degeneracy blocks and support subspace.

    ``eigenvalues`` are sorted descending; ``eigenvectors[:, i]`` is the
    orthonormal eigenvector of ``eigenvalues[i]``.  ``blocks`` partitions
    the indices into near-degenerate groups, ``support`` lists the indices
    with eigenvalue above ``SUPPORT_FLOOR``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    blocks: tuple[tuple[int, ...], ...]
    support: tuple[int, ...]

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def eigendecompose(m: HermitianMatrix, degeneracy_tol: float = DEFAULT_DEGENERACY_TOL) -> Spectrum:
    """Group the eigenpairs of ``m`` into blocks of nearly equal eigenvalues.

    The eigenpairs are those the density check of ``m`` solved for.
    Blocks are formed by greedy clustering of the descending-sorted
    eigenvalues: a gap larger than ``degeneracy_tol`` (relative to the
    spectral range) starts a new block.
    """
    w = m.eigenvalues
    spread = float(w[0] - w[-1])
    gap = degeneracy_tol * max(spread, 1.0)
    blocks: list[tuple[int, ...]] = []
    current = [0]
    for i in range(1, len(w)):
        if w[i - 1] - w[i] > gap:
            blocks.append(tuple(current))
            current = []
        current.append(i)
    blocks.append(tuple(current))

    support = tuple(i for i in range(len(w)) if w[i] > SUPPORT_FLOOR)
    return Spectrum(eigenvalues=w, eigenvectors=m.eigenvectors, blocks=tuple(blocks), support=support)


def amplitude_blocks(c0: np.ndarray, c1: np.ndarray) -> tuple[tuple[np.ndarray, ...], float]:
    """Row blocks on which every product c_i c_j^dagger (i, j in {0, 1}) is block diagonal.

    ``G = (|c0| + |c1|)(|c0| + |c1|)^T`` bounds the modulus of every entry of
    c0 c0^dagger, c1 c1^dagger and of the cross terms c0 c1^dagger,
    c1 c0^dagger, so rows linked by no entry of G above ``BLOCK_LINK_TOL``
    times its largest entry are uncoupled in the reduced density of any
    superposition of c0 and c1.  The blocks are the connected components of
    that link graph.  Without the cross terms the components can be finer
    than the density's true blocks.

    Returns the blocks as sorted row-index arrays, ordered by their first
    row, and the largest entry of G between two blocks relative to the
    largest entry of G: the most any dropped entry can weigh.
    """
    if c0.ndim != 2 or c0.shape != c1.shape:
        raise ValueError(f"amplitudes must be 2-d arrays of one shape: {c0.shape} != {c1.shape}")
    a = np.abs(c0) + np.abs(c1)
    g = a @ a.T
    top = float(g.max())
    linked = g > BLOCK_LINK_TOL * top
    n = len(g)
    label = np.full(n, -1)
    blocks = []
    for start in range(n):
        if label[start] >= 0:
            continue
        members = np.zeros(n, dtype=bool)
        members[start] = True
        frontier = members.copy()
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~members
            members |= frontier
        label[members] = len(blocks)
        blocks.append(np.flatnonzero(members))
    between = label[:, None] != label[None, :]
    dropped = float(g[between].max()) / top if top > 0.0 and len(blocks) > 1 else 0.0
    return tuple(blocks), dropped


def von_neumann_entropy(s: Spectrum, log_base: float = 2.0) -> float:
    """S = -sum lambda_i log(lambda_i) over the support (0 log 0 := 0)."""
    w = s.eigenvalues
    if w.min() < EIGENVALUE_FLOOR:
        raise ValueError(f"negative eigenvalue {w.min():.3e}")
    lw = w[list(s.support)] if s.support else np.empty(0)
    if lw.size == 0:
        return 0.0
    total = -float(np.sum(lw * np.log(lw))) / math.log(log_base)
    return max(total, 0.0)


def reduce_pure_state(c: np.ndarray) -> HermitianMatrix:
    """Density of side A (the rows) of the unit-norm pure state with amplitudes ``c``.

    The entries are ``rho_{a a'} = sum_b c_{a b} conj(c_{a' b}) / <c|c>``;
    side B's density is ``reduce_pure_state(c.T)``.
    """
    a = np.asarray(c, dtype=complex)
    if a.ndim != 2:
        raise ValueError("amplitudes must be a 2-d array")
    norm = float(np.linalg.norm(a))
    if abs(norm - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"amplitude norm {norm!r} deviates from 1 beyond {UNIT_NORM_TOL}")
    # Divide by <c|c>, then renormalize roundoff so downstream density
    # checks are exact.  This order keeps LG densities bit-identical to
    # the benchmark's recorded outputs: S_NS of some LG pairs, with
    # eigenvalues just outside one degeneracy block, moves by ~1e-10
    # under a one-ulp change of rho.
    rho = a @ a.conj().T / np.sum(np.abs(a) ** 2)
    rho = rho / np.real(np.trace(rho))
    return HermitianMatrix(rho)
