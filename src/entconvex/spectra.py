"""Hermitian matrices, spectra with degeneracy blocks, and entropies.

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
DEFAULT_SUPPORT_FLOOR = 1e-12
UNIT_NORM_TOL = 1e-6  # a pure state's amplitude norm may deviate from 1 by this
# an entry of the amplitude support product above this fraction of its
# largest entry links two rows into one block
BLOCK_LINK_TOL = 1e-15


class NonHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class NotDensityMatrixError(ValueError):
    """Matrix flagged as a density matrix violates trace or positivity."""


@dataclass(frozen=True)
class HermitianMatrix:
    """A finite-dimensional Hermitian operator in a declared orthonormal basis.

    Parameters
    ----------
    entries : complex ndarray, shape (dim, dim)
    is_density : bool
        When True the constructor additionally checks unit trace and
        positivity (eigenvalues >= -1e-10).
    """

    entries: np.ndarray
    is_density: bool = False

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
        if self.is_density:
            tr = float(np.real(np.trace(a)))
            if abs(tr - 1.0) > TRACE_TOL:
                raise NotDensityMatrixError(f"trace {tr!r} != 1")
            w = np.linalg.eigvalsh(a)
            if w.min() < EIGENVALUE_FLOOR:
                raise NotDensityMatrixError(f"negative eigenvalue {w.min():.3e}")

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
    with eigenvalue above the support floor.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    blocks: tuple[tuple[int, ...], ...]
    support: tuple[int, ...]
    support_floor: float = DEFAULT_SUPPORT_FLOOR

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def projector(self, indices) -> np.ndarray:
        v = self.eigenvectors[:, list(indices)]
        return v @ v.conj().T


@dataclass(frozen=True)
class CoefficientTensor:
    """Amplitudes of a bipartite pure state over a product basis.

    ``amplitudes[a, b]`` multiplies ``|a>_A |b>_B``.  The reduced density
    matrix of side A is ``amplitudes @ amplitudes^dagger``; its nonzero
    eigenvalues are the squared singular values of the amplitude matrix.
    """

    amplitudes: np.ndarray
    norm: float = field(init=False)

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex)
        if a.ndim != 2:
            raise ValueError("amplitudes must be a 2-d array")
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "norm", float(np.linalg.norm(a)))

    @property
    def dims(self) -> tuple[int, int]:
        return self.amplitudes.shape

    def normalized(self) -> "CoefficientTensor":
        if self.norm == 0.0:
            raise ValueError("cannot normalize a zero tensor")
        return CoefficientTensor(self.amplitudes / self.norm)


def eigendecompose(
    m: HermitianMatrix,
    degeneracy_tol: float = DEFAULT_DEGENERACY_TOL,
    support_floor: float = DEFAULT_SUPPORT_FLOOR,
) -> Spectrum:
    """Eigendecompose ``m`` and group nearly equal eigenvalues into blocks.

    Blocks are formed by greedy clustering of the descending-sorted
    eigenvalues: a gap larger than ``degeneracy_tol`` (relative to the
    spectral range) starts a new block.
    """
    w, v = np.linalg.eigh(m.entries)
    order = np.argsort(w)[::-1]
    w = np.ascontiguousarray(w[order])
    v = np.ascontiguousarray(v[:, order])

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

    support = tuple(i for i in range(len(w)) if w[i] > support_floor)
    return Spectrum(
        eigenvalues=w,
        eigenvectors=v,
        blocks=tuple(blocks),
        support=support,
        support_floor=support_floor,
    )


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


def relative_entropy(rho: Spectrum, sigma: Spectrum, log_base: float = 2.0) -> float:
    """Quantum relative entropy S(rho || sigma).

    Evaluated from the spectral decompositions as
    ``sum_i p_i (log p_i - sum_j (log q_j) |<v_i|w_j>|^2)``.
    Returns ``math.inf`` when the support of rho overlaps the kernel of
    sigma.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch {rho.dim} != {sigma.dim}")
    p = rho.eigenvalues
    q = sigma.eigenvalues
    overlaps = np.abs(rho.eigenvectors.conj().T @ sigma.eigenvectors) ** 2

    supp = list(rho.support)
    ker = [j for j in range(sigma.dim) if q[j] <= sigma.support_floor]
    if ker:
        leak = overlaps[np.ix_(supp, ker)].sum() if supp else 0.0
        if leak > 1e-12:
            return math.inf

    total = 0.0
    for i in supp:
        cross = 0.0
        for j in sigma.support:
            cross += math.log(q[j]) * overlaps[i, j]
        total += p[i] * (math.log(p[i]) - cross)
    return total / math.log(log_base)


def reduce_pure_state(c: CoefficientTensor, keep: str = "a") -> HermitianMatrix:
    """Partial trace of the pure state |c><c| keeping side ``keep``.

    The entries are ``rho_{a a'} = sum_b c_{a b} conj(c_{a' b}) / <c|c>``
    for ``keep='a'`` and the transpose-side analogue for ``keep='b'``.
    """
    if abs(c.norm - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"tensor norm {c.norm!r} deviates from 1 beyond {UNIT_NORM_TOL}")
    a = c.amplitudes
    if keep == "a":
        rho = a @ a.conj().T
    elif keep == "b":
        rho = a.T @ a.conj()
    else:
        raise ValueError("keep must be 'a' or 'b'")
    # Divide by <c|c>, then renormalize roundoff so downstream density
    # checks are exact.  This order keeps LG densities bit-identical to
    # the benchmark's recorded outputs: S_NS of some LG pairs, with
    # eigenvalues just outside one degeneracy block, moves by ~1e-10
    # under a one-ulp change of rho.
    rho = rho / np.sum(np.abs(a) ** 2)
    rho = rho / np.real(np.trace(rho))
    return HermitianMatrix(rho, is_density=True)
