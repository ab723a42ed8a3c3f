"""Density matrices, spectra with degeneracy blocks, entropies and the trace-out.

Everything downstream (criterion evaluation, model sweeps) consumes the
types defined here.  All values are immutable after construction and the
functions are pure, so they can be shared freely between threads.
:meth:`GramBlocks.spectrum` memoizes its spectra by the exact content of
their input (:class:`_SpectrumMemo`): a scan meets one state in many
pairs, and a repeated endpoint gets back the spectrum solved the first
time, bit for bit, read-only and behind a lock.
Entropies are in bits throughout the package; only the command line and
the benchmark tables convert them to another base.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-8
EIGENVALUE_FLOOR = -1e-10

# an eigenvalue step above this starts a new degeneracy block; gap_clusters scales
# it by max(range, 1), which is 1 for a density, so it is an absolute gap
DEGENERACY_TOL = 1e-8
SUPPORT_FLOOR = 1e-12  # eigenvalues at or below this are outside the support
# an entry of the amplitude support product above this fraction of its
# largest entry links two rows into one block
BLOCK_LINK_TOL = 1e-15
# an eigenvalue of c0c0^dagger + c1c1^dagger at or below this fraction of
# its block's largest is outside the range the alpha curve is solved on
RANGE_TOL = 1e-16
LN2 = math.log(2.0)  # entropies are in bits: nats / LN2
# GramBlocks.spectrum's memo (_SpectrumMemo) stores no input whose blocks
# hold more bytes than the first, and holds at most the second in all; no
# workload repeats an endpoint above the first (dense-tables' are all above)
MEMO_ENTRY_BYTES = 64 * 1024
MEMO_BYTES = 2 * 1024 * 1024


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
    """Eigendecomposition of a block-diagonal density, with degeneracy blocks.

    ``eigenvalues`` are sorted descending.  The eigenvectors stay inside
    their amplitude blocks: ``groups`` holds, per block size, the blocks'
    rows, shape (blocks, size), and their eigenvector matrices ``u``, shape
    (blocks, size, size).  Counting the columns of every ``u`` in (group,
    block, column) order, ``source[i]`` is the column of ``eigenvalues[i]``,
    or, once refined (:func:`~entconvex.criterion.refine_blocks_by_sector`),
    a column of its degeneracy block.  A dense matrix is the one-block case.
    ``blocks`` partitions the positions into runs of near-degenerate
    eigenvalues (refined: their sub-blocks), in order.  The support is the
    positions with eigenvalue above ``SUPPORT_FLOOR``.
    """

    eigenvalues: np.ndarray
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]
    source: np.ndarray
    blocks: tuple[tuple[int, ...], ...]

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
    blocks = tuple(gap_clusters(w, DEGENERACY_TOL))
    return Spectrum(w, tuple(vectors), np.ascontiguousarray(order), blocks)


def gap_clusters(w: np.ndarray, tol: float) -> list[tuple[int, ...]]:
    """Index runs of a descending sequence, split where a step exceeds ``tol`` times its range.

    The range counts as at least 1.
    """
    cuts = (np.flatnonzero(w[:-1] - w[1:] > tol * max(float(w[0] - w[-1]), 1.0)) + 1).tolist()
    bounds = [0, *cuts, len(w)]
    return [tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])]


class _SpectrumMemo:
    """:func:`eigh_blocks` of small inputs, keyed by their exact content.

    The key holds, per size group, the shape, dtype and bytes of the rows
    and of the blocks, so a hit is an input equal to a stored one bit for
    bit, and it gets back the stored :class:`Spectrum` object, whose
    arrays are read-only.  An input whose blocks hold more than
    ``MEMO_ENTRY_BYTES`` is solved and not stored.  Past ``MEMO_BYTES``,
    counting keys and spectra, the least recently used entries go.  A lock
    guards the entries; the solve runs outside it.
    """

    def __init__(self):
        self.nbytes = 0
        self._entries: OrderedDict[tuple, tuple[Spectrum, int]] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __call__(self, groups) -> Spectrum:
        if sum(m.nbytes for _, m in groups) > MEMO_ENTRY_BYTES:
            return eigh_blocks(groups)
        key = tuple((a.shape, a.dtype.str, a.tobytes()) for group in groups for a in group)
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self._entries.move_to_end(key)
                return hit[0]
        spec = eigh_blocks(groups)
        size = sum(len(data) for *_, data in key) + sum(
            a.nbytes for a in (spec.eigenvalues, spec.source, *(a for g in spec.groups for a in g)))
        with self._lock:
            if key in self._entries:  # solved meanwhile by another thread
                return self._entries[key][0]
            self._entries[key] = (spec, size)
            self.nbytes += size
            while self.nbytes > MEMO_BYTES:
                self.nbytes -= self._entries.popitem(last=False)[1][1]
        return spec

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0


_spectrum_memo = _SpectrumMemo()


def eigendecompose(m: HermitianMatrix) -> Spectrum:
    """The spectrum of the density check of ``m``."""
    return m.spectrum


def components(linked: np.ndarray) -> list[np.ndarray]:
    """Connected components of a symmetric boolean link matrix, ordered by first index.

    The rows linked to no other row are singletons, taken in one step; a
    frontier search runs from the first row left of each other component.
    """
    other = linked.copy()
    np.fill_diagonal(other, False)
    single = ~other.any(axis=1)
    parts = list(np.flatnonzero(single)[:, None])
    todo = ~single
    while todo.any():
        start = todo.argmax()
        members = linked[start].copy()
        frontier = members
        while (frontier := linked[frontier].any(axis=0) & ~members).any():
            members |= frontier
        todo &= ~members
        parts.append(np.flatnonzero(members))
    parts.sort(key=lambda p: p[0])
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
    blocks relative to the largest link; ``traced`` is the number of
    columns summed in each product; ``norms`` holds the traces of the
    three terms: sum |c|^2 of c0 and of c1, and 2 Re <c1|c0> summed over
    the blocks.  ``sector`` holds, per group, the sector operator's blocks,
    shape (blocks, size, size), or is None when no operator was given.
    """

    groups: tuple[tuple[np.ndarray, np.ndarray], ...]
    block_sizes: tuple[int, ...]
    dropped: float
    dim: int
    traced: int
    norms: tuple[float, float, float]
    sector: tuple[np.ndarray, ...] | None

    def endpoint(self, state: int) -> tuple[np.ndarray, ...]:
        """The reduced density of c0 or c1, one stack of blocks per size group.

        Normalized as ``PairSpec.builder`` and its reference
        ``tests/oracles.py::reduce_pure_state`` do: divided by sum |c|^2,
        then by the whole trace, then symmetrized.  With one block this is
        their arithmetic to the bit, which S_NS of some LG pairs (one block
        of 32) needs.  No dim x dim matrix is formed.
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
        return tuple(mats)

    def spectrum(self, blocks: tuple[np.ndarray, ...]) -> Spectrum:
        """The spectrum of :meth:`endpoint` blocks, each block solved alone (:func:`eigh_blocks`).

        With one block the eigen-solve is the density check's of ``PairSpec.builder``.
        Blocks of at most ``MEMO_ENTRY_BYTES`` are memoized by content, so a
        repeated endpoint returns the same read-only spectrum (:class:`_SpectrumMemo`).
        """
        return _spectrum_memo([(g[0], m) for g, m in zip(self.groups, blocks)])


def gram_blocks(c0: np.ndarray, c1: np.ndarray, sector: np.ndarray | None = None) -> GramBlocks:
    """The one trace-out of an amplitude pair: its Gram terms per amplitude block.

    ``G = (|c0| + |c1|)(|c0| + |c1|)^T`` bounds the modulus of every entry of
    c0c0^dagger, c1c1^dagger and the cross terms, so rows linked by no entry
    of G above ``BLOCK_LINK_TOL`` times its largest entry are uncoupled in
    the reduced density of every superposition of c0 and c1.  A nonzero
    entry of ``sector``, an operator on the rows, links its two rows too,
    so the operator couples no two blocks; its blocks must be finite and
    Hermitian within ``HERMITICITY_TOL``.  The blocks are the connected
    components of that link graph; without the cross terms they could be
    finer than the density's true blocks.  Blocks of one size are stacked,
    so each term, and the operator's blocks, is one batched product per size.
    """
    if c0.ndim != 2 or c0.shape != c1.shape:
        raise ValueError(f"amplitudes must be 2-d arrays of one shape: {c0.shape} != {c1.shape}")
    if not (np.isfinite(c0).all() and np.isfinite(c1).all()):
        raise ValueError("amplitudes must be finite")
    if sector is not None and np.shape(sector) != (len(c0), len(c0)):
        raise ValueError(f"sector operator shape {np.shape(sector)} does not match {len(c0)} rows")
    a = np.abs(c0)
    n0 = np.sum(a ** 2)  # the builder's sum |c|^2, read while |c| is at hand
    b = np.abs(c1)
    n1 = np.sum(b ** 2)
    a += b
    g = a @ a.T
    top = float(g.max())
    linked = g > BLOCK_LINK_TOL * top
    blocks = components(linked if sector is None else linked | (sector != 0))
    sizes = [len(b) for b in blocks]
    label = np.empty(len(g), dtype=np.intp)
    label[np.concatenate(blocks)] = np.repeat(np.arange(len(blocks)), sizes)
    np.putmask(g, label[:, None] == label, 0.0)  # the links within a block
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
    op = None
    if sector is not None:  # every nonzero entry, NaN included, lies in one of these blocks
        op = tuple(sector[rows[:, :, None], rows[:, None, :]] for rows, _ in groups)
        if not all(np.isfinite(o).all() for o in op):
            raise ValueError("sector operator entries must be finite")
        dev = max(np.max(np.abs(o - o.conj().swapaxes(1, 2))) for o in op)
        if dev > HERMITICITY_TOL * max(1.0, *(np.max(np.abs(o)) for o in op)):
            raise NonHermitianError(f"sector operator hermiticity deviation {dev:.3e}")
    return GramBlocks(tuple(groups), tuple(sizes), dropped, len(g), c0.shape[1], (n0, n1, n01), op)


def entropy_bits(w: np.ndarray) -> np.ndarray:
    """The entropy in bits of each set of density eigenvalues along the last axis.

    -sum w ln(w) over the eigenvalues above ``SUPPORT_FLOOR`` (0 log 0 :=
    0; the others add w ln(1) = 0), divided by ``LN2``; a negative sum is
    taken as 0, and -0.0 is kept.  An eigenvalue below ``EIGENVALUE_FLOOR``
    raises :class:`NotDensityMatrixError`.

    The floor drops up to -p log2 p, about 4e-11 bits, per eigenvalue p just
    below it, so an entropy can be that far from the exact Schmidt entropy.
    The 1e-12 agreement the tests ask of the block paths is measured against
    the dense oracles, which share the floor.
    """
    if w.min() < EIGENVALUE_FLOOR:
        raise NotDensityMatrixError(f"negative eigenvalue {w.min():.3e}")
    bits = -np.sum(w * np.log(np.where(w > SUPPORT_FLOOR, w, 1.0)), axis=-1) / LN2
    return np.where(bits < 0.0, 0.0, bits)


def von_neumann_entropy(s: Spectrum) -> float:
    """S = -sum lambda_i log2(lambda_i) of a spectrum, in bits (:func:`entropy_bits`)."""
    return float(entropy_bits(s.eigenvalues))
