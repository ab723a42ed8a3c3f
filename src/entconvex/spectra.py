"""Density matrices, spectra with degeneracy blocks, entropies and the trace-out.

Everything downstream (criterion evaluation, model sweeps) consumes the
types defined here.  All values are immutable after construction and the
functions are pure, so they can be shared freely between threads.
Entropies are in bits throughout the package; only the command line and
the benchmark tables convert them to another base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-8
EIGENVALUE_FLOOR = -1e-10

DEGENERACY_TOL = 1e-8  # relative eigenvalue gap that starts a new degeneracy block
SUPPORT_FLOOR = 1e-12  # eigenvalues at or below this are outside the support
UNIT_NORM_TOL = 1e-6  # a pure state's amplitude norm may deviate from 1 by this
# an entry of the amplitude support product above this fraction of its
# largest entry links two rows into one block
BLOCK_LINK_TOL = 1e-15
# an eigenvalue of c0c0^dagger + c1c1^dagger at or below this fraction of
# its block's largest is outside the range the alpha curve is solved on
RANGE_TOL = 1e-16
LN2 = math.log(2.0)  # entropies are in bits: nats / LN2


class NonHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class NotDensityMatrixError(ValueError):
    """Matrix violates unit trace or positivity."""


@dataclass(frozen=True)
class HermitianMatrix:
    """A density matrix: Hermitian, unit trace, positive semidefinite.

    The constructor checks all three.  Its positivity check is the one
    eigen-solve of the matrix, the one-block case of :func:`eigh_blocks`;
    the spectrum is kept for :func:`eigendecompose`.

    Parameters
    ----------
    entries : complex ndarray, shape (dim, dim)
    """

    entries: np.ndarray
    spectrum: Spectrum = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        dev = np.max(np.abs(a - a.conj().T))
        if dev > HERMITICITY_TOL * max(1.0, np.max(np.abs(a))):
            raise NonHermitianError(f"hermiticity deviation {dev:.3e}")
        a = 0.5 * (a + a.conj().T)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)
        tr = float(np.real(np.trace(a)))
        if abs(tr - 1.0) > TRACE_TOL:
            raise NotDensityMatrixError(f"trace {tr!r} != 1")
        spec = eigh_blocks([(np.arange(len(a))[None], a[None])])
        if spec.eigenvalues[-1] < EIGENVALUE_FLOOR:
            raise NotDensityMatrixError(f"negative eigenvalue {spec.eigenvalues[-1]:.3e}")
        object.__setattr__(self, "spectrum", spec)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.real(np.trace(self.entries)))


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a block-diagonal density, with degeneracy blocks and support.

    ``eigenvalues`` are sorted descending.  The eigenvectors stay inside
    their amplitude blocks: ``groups`` holds, per block size, the blocks'
    rows, shape (blocks, size), and their eigenvector matrices ``u``, shape
    (blocks, size, size).  Counting the columns of every ``u`` in (group,
    block, column) order, ``source[i]`` is the column of ``eigenvalues[i]``.
    A dense matrix is the one-block case.  ``blocks`` partitions the
    positions into runs of near-degenerate eigenvalues, in order;
    ``support`` lists the positions with eigenvalue above ``SUPPORT_FLOOR``.
    """

    eigenvalues: np.ndarray
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]
    source: np.ndarray
    blocks: tuple[tuple[int, ...], ...]
    support: tuple[int, ...]

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.source.setflags(write=False)
        for rows, u in self.groups:
            rows.setflags(write=False)
            u.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        """The eigenvectors as dense columns: ``eigenvectors[:, i]`` belongs to
        ``eigenvalues[i]``.  A dim x dim matrix, built on each call."""
        v = np.zeros((self.dim, self.dim), dtype=np.result_type(*(u for _, u in self.groups)))
        col = 0
        for rows, u in self.groups:
            cols = col + np.arange(rows.size).reshape(rows.shape)
            v[rows[:, :, None], cols[:, None, :]] = u
            col += rows.size
        return v[:, self.source]


def eigh_blocks(groups) -> Spectrum:
    """The spectrum of a block-diagonal Hermitian matrix.

    ``groups`` holds, per block size, the blocks' rows, shape (blocks, size),
    and the blocks, shape (blocks, size, size); the rows partition
    ``range(dim)``.  One batched ``eigh`` solves each size; the
    eigenvectors stay in their blocks.  The eigenvalues are sorted
    descending and grouped into degeneracy blocks: a step above
    ``DEGENERACY_TOL`` starts a new one.
    """
    ws, vectors = [], []
    for rows, mats in groups:
        w, u = np.linalg.eigh(mats)
        ws.append(w.ravel())
        vectors.append((rows, u))
    w = np.concatenate(ws)
    order = np.argsort(w)[::-1]
    w = np.ascontiguousarray(w[order])
    return Spectrum(
        w,
        tuple(vectors),
        np.ascontiguousarray(order),
        blocks=tuple(gap_clusters(w, DEGENERACY_TOL)),
        support=tuple(np.flatnonzero(w > SUPPORT_FLOOR).tolist()),
    )


def gap_clusters(w: np.ndarray, tol: float) -> list[tuple[int, ...]]:
    """Index runs of a descending sequence, split where a step exceeds ``tol`` times its range.

    The range counts as at least 1.
    """
    cuts = np.flatnonzero(w[:-1] - w[1:] > tol * max(float(w[0] - w[-1]), 1.0)) + 1
    return [tuple(run.tolist()) for run in np.split(np.arange(len(w)), cuts)]


def eigendecompose(m: HermitianMatrix) -> Spectrum:
    """The spectrum of the density check of ``m``."""
    return m.spectrum


def components(linked: np.ndarray) -> list[np.ndarray]:
    """Connected components of a symmetric boolean link matrix, ordered by first index."""
    n = len(linked)
    seen = np.zeros(n, dtype=bool)
    parts = []
    for start in range(n):
        if seen[start]:
            continue
        members = np.zeros(n, dtype=bool)
        members[start] = True
        frontier = members.copy()
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~members
            members |= frontier
        seen |= members
        parts.append(np.flatnonzero(members))
    return parts


def size_groups(parts) -> list[np.ndarray]:
    """The index arrays of each size, stacked to shape (parts, size), by ascending size."""
    sizes = sorted({len(p) for p in parts})
    return [np.stack([p for p in parts if len(p) == size]) for size in sizes]


@dataclass(frozen=True)
class GramBlocks:
    """The reduced-density terms of an amplitude pair (c0, c1), per amplitude block.

    ``groups`` holds, per block size, the blocks' rows, shape (blocks, size),
    and their terms c0c0^dagger, c1c1^dagger and c0c1^dagger + c1c0^dagger,
    shape (3, blocks, size, size).  ``block_sizes`` lists the blocks in
    order of their first row; ``dropped`` is the largest link between two
    blocks relative to the largest link; ``norms`` holds the traces of the
    three terms: sum |c|^2 of c0 and of c1, and 2 Re <c1|c0> summed over
    the blocks.
    """

    groups: tuple[tuple[np.ndarray, np.ndarray], ...]
    block_sizes: tuple[int, ...]
    dropped: float
    dim: int
    norms: tuple[float, float, float]

    def endpoint(self, state: int) -> tuple[Spectrum, tuple[np.ndarray, ...]]:
        """Spectrum and blocks of ``reduce_pure_state(c)``, ``c`` being c0 or c1.

        The blocks, one stack per size group, are normalized in that
        function's order: divided by sum |c|^2, then by the whole trace,
        then symmetrized.  With one block this is its arithmetic to the bit,
        which S_NS of some LG pairs (one block of 32) needs, and the
        eigen-solve is its density check's.  Each block is solved alone
        (:func:`eigh_blocks`), and no dim x dim matrix is formed.
        """
        n2 = self.norms[state]
        if not n2 > 0.0:
            raise ValueError("state vanishes")
        mats = [terms[state] / n2 for _, terms in self.groups]
        tr = sum(np.real(np.trace(m, axis1=1, axis2=2)).sum() for m in mats)
        for i, m in enumerate(mats):  # one group at a time, in place where it is bitwise
            m /= tr
            mats[i] = m + m.conj().swapaxes(1, 2)
            mats[i] *= 0.5
        return eigh_blocks([(g[0], m) for g, m in zip(self.groups, mats)]), tuple(mats)


def gram_blocks(c0: np.ndarray, c1: np.ndarray) -> GramBlocks:
    """The one trace-out of an amplitude pair: its Gram terms per amplitude block.

    ``G = (|c0| + |c1|)(|c0| + |c1|)^T`` bounds the modulus of every entry of
    c0c0^dagger, c1c1^dagger and the cross terms, so rows linked by no entry
    of G above ``BLOCK_LINK_TOL`` times its largest entry are uncoupled in
    the reduced density of every superposition of c0 and c1.  The blocks
    are the connected components of that link graph; without the cross
    terms they could be finer than the density's true blocks.  Blocks of
    one size are stacked, so each term is one batched product per size.
    """
    if c0.ndim != 2 or c0.shape != c1.shape:
        raise ValueError(f"amplitudes must be 2-d arrays of one shape: {c0.shape} != {c1.shape}")
    if not (np.isfinite(c0).all() and np.isfinite(c1).all()):
        raise ValueError("amplitudes must be finite")
    a = np.abs(c0)
    n0 = np.sum(a ** 2)  # reduce_pure_state's sum |c|^2, read while |c| is at hand
    b = np.abs(c1)
    n1 = np.sum(b ** 2)
    a += b
    g = a @ a.T
    top = float(g.max())
    blocks = components(g > BLOCK_LINK_TOL * top)
    for rows in blocks:
        g[np.ix_(rows, rows)] = 0.0
    dropped = float(g.max()) / top if top > 0.0 else 0.0
    groups = []
    n01 = 0.0
    for rows in size_groups(blocks):
        a0, a1 = c0[rows], c1[rows]  # (blocks, size, columns)
        a0h, a1h = a0.conj().swapaxes(1, 2), a1.conj().swapaxes(1, 2)
        cross = a0 @ a1h
        x = cross + cross.conj().swapaxes(1, 2)
        n01 += float(np.trace(x, axis1=1, axis2=2).real.sum())
        groups.append((rows, np.stack([a0 @ a0h, a1 @ a1h, x])))
    return GramBlocks(tuple(groups), tuple(len(b) for b in blocks), dropped, len(g), (n0, n1, n01))


def von_neumann_entropy(s: Spectrum) -> float:
    """S = -sum lambda_i log2(lambda_i) over the support (0 log 0 := 0), in bits."""
    w = s.eigenvalues
    if w.min() < EIGENVALUE_FLOOR:
        raise ValueError(f"negative eigenvalue {w.min():.3e}")
    lw = w[list(s.support)] if s.support else np.empty(0)
    if lw.size == 0:
        return 0.0
    total = -float(np.sum(lw * np.log(lw))) / LN2
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
    # checks are exact; GramBlocks.endpoint keeps this order to the bit.
    rho = a @ a.conj().T / np.sum(np.abs(a) ** 2)
    rho = rho / np.real(np.trace(rho))
    return HermitianMatrix(rho)
