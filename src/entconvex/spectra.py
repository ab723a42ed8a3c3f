"""Density matrices, spectra with degeneracy blocks, entropies and the trace-out.

Everything downstream (criterion evaluation, model sweeps) consumes the
types defined here.  All values are immutable after construction and the
functions are pure, so they can be shared freely between threads.

A scan meets one state in many pairs, so everything one amplitude matrix
determines on its own goes into one record per array (:class:`_State`):
its finiteness and density and sum |c|^2 and, where the memo keeps the
record (:class:`_StateMemo`), |c|, the floor of |c||c|^T, which proves a
pair of two dense states one block without a link graph, and, once a
pair finds its rows one block, its whole own term c c^dagger, its
endpoint density and, for pairs without a sector operator, that
density's spectrum.  The memo keeps the records of read-only arrays that
own their data, have more than ``SMALL_ROWS`` rows and hold at most
``MEMO_ENTRY_BYTES``, from their first sighting; one is found by its
array's identity, which assumes the array is not written again, and
goes when the array is freed.  No own term above ``MEMO_ENTRY_BYTES`` is
kept, and a lock guards the memo.  Every kept value is the output of
the same call, on the same inputs, as without the memo, so no result
changes by a bit.
Every endpoint is solved on its own exact blocks
(:meth:`GramBlocks.spectrum`).  Where the rows carry an m1 label
(angular, spherium), each state's density is exactly zero between rows
of different m1, so the amplitude blocks, which the pair links, split
into the connected components of that nonzero pattern
(:func:`own_blocks`).  Blocks with no zero entry (LG, the coupled
oscillator) are solved whole.

The trace-out (:func:`gram_blocks`) finds a pair's amplitude blocks in
two levels: the connected components of the exact nonzero pattern of
both states, on boolean arrays, then the threshold of their Gram bound
inside each component only, over its rows and touched columns.  One
routine (:func:`components`, rows joined through shared columns) finds
every block structure: both trace-out levels and, per size group on its
stack of blocks, the own-block split of endpoints and range steps.
Spherium's states are 0.6% nonzero, so no product spans all 529 columns.

Small pairs are solved whole (the small-pair rule, ``SMALL_ROWS``): a
pair of at most ``SMALL_ROWS`` rows, as every angular one, is one block,
found without a link graph, and a block of at most ``SMALL_ROWS`` rows,
as table 1's, is neither split on its own exact blocks nor, in the alpha
curve, compressed onto its range.  Below that size, finding the
structure costs more than solving the whole.

Entropies are in bits throughout the package; only the command line and
the benchmark tables convert them to another base.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass, field
from functools import cached_property

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
# the small-pair rule: a pair of at most this many rows is one block, a
# block of at most this many rows is solved whole, with no own-block split
# or range step, and the memo keeps no record of an array of at most this many rows.
# Measured crossover (warm, one BLAS thread, 15 interleaved rounds,
# against the paths without the rule): angular verdicts of 3 to 25 rows
# (l = 1 to 12) gain x1.39 to x1.08, and table 1 row 0's curve, blocks of
# 2 to 16 rows, x1.77; LG's low-rank pairs would run at 0.37x at 32 rows
# with the rule (no range step, no memo), and already at 0.61x at 16, so
# the rule stops below 32
SMALL_ROWS = 25
# the per-state memo (_StateMemo) keeps no record of an amplitude matrix,
# and no own term, above this (dense-tables' are all above)
MEMO_ENTRY_BYTES = 64 * 1024
# sum |c|^2 of an array that no product needs whole is summed in runs of at
# most this many entries (_sum_squares), which numpy's pairwise tree holds
SUM_CHUNK = 2**14


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

    What the eigenvalues and blocks fix alone is formed on first use and
    kept: :attr:`entropy` and :attr:`block_stats`.  A stored endpoint
    spectrum (:class:`_StateMemo`) so forms them once per process.  A
    ``dataclasses.replace``, as the sector refinement makes, is a new
    spectrum and forms them again, from its own blocks.
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

    @cached_property
    def entropy(self) -> float:
        """The entropy in bits (:func:`entropy_bits`)."""
        return float(entropy_bits(self.eigenvalues))

    @cached_property
    def block_stats(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each degeneracy block's first position, size and mean eigenvalue, read-only."""
        starts = np.array([b[0] for b in self.blocks])
        sizes = np.diff(starts, append=self.dim)
        lam = np.add.reduceat(self.eigenvalues, starts) / sizes
        for a in (starts, sizes, lam):
            a.setflags(write=False)
        return starts, sizes, lam

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


def _endpoint_blocks(own, n2) -> tuple[np.ndarray, ...]:
    """The reduced density of one state from its own terms, one stack of blocks per size group.

    Divided by sum |c|^2 ``n2``, then by the whole trace, then symmetrized:
    the one normalization of every endpoint, :meth:`GramBlocks.endpoint`'s
    and ``PairSpec.builder``'s, whose reference is
    ``tests/oracles.py::reduce_pure_state``.
    """
    mats = [t / n2 for t in own]
    tr = sum(np.real(np.trace(m, axis1=1, axis2=2)).sum() for m in mats)
    for i, m in enumerate(mats):  # one group at a time, in place where it is bitwise
        m /= tr
        mats[i] = m + m.conj().swapaxes(1, 2)
        mats[i] *= 0.5
    return tuple(mats)


class _State:
    """What one amplitude array determines on its own: its record, made by :meth:`_StateMemo.state`.

    Making a record checks that the array is finite.  Every record holds
    ``dense``, whether the array has no zero entry, and ``norm2``, its sum
    |c|^2 (:func:`_sum_squares`), so neither is read from the array again.
    A record the memo keeps also holds ``ref``, a weak reference to the
    array, ``magnitude``, its |c|, and ``floor``: for a dense array, the
    smallest entry of |c||c|^T and the largest on its diagonal, from which
    :func:`gram_blocks` proves a pair of two such records one block.  Once
    a pair has found the array's rows to be one block, a kept record holds
    the whole array's own term ``own``, c c^dagger as a stack of one
    block, its ``endpoint`` blocks (:func:`_endpoint_blocks`, read-only)
    and, once solved, their ``spectrum``.  Each of these is None until it
    is formed, and stays None in a record the memo does not keep.
    """

    __slots__ = ("dense", "norm2", "ref", "magnitude", "floor", "own", "endpoint", "spectrum")

    def __init__(self, c: np.ndarray):
        if not np.isfinite(c).all():
            raise ValueError("amplitudes must be finite")
        self.dense, self.norm2 = bool(c.all()), _sum_squares(c)
        self.ref = self.magnitude = self.floor = self.own = self.endpoint = self.spectrum = None


def _storable(c: np.ndarray) -> bool:
    """Whether :class:`_StateMemo` keeps the record of ``c``: read-only, owning
    its data, of more than ``SMALL_ROWS`` rows and at most ``MEMO_ENTRY_BYTES``."""
    flags = c.flags
    return not flags.writeable and flags.owndata and len(c) > SMALL_ROWS and c.nbytes <= MEMO_ENTRY_BYTES


class _StateMemo:
    """One record per amplitude array (:class:`_State`), kept for the arrays a scan meets again.

    The record of a read-only array that owns its data, has more than
    ``SMALL_ROWS`` rows and holds at most ``MEMO_ENTRY_BYTES`` (the models'
    cached arrays) is kept on its first sighting and found by the array's
    id, checked against a weak reference, so the memo keeps no array
    alive; the reference's callback drops the record when the array is
    freed.  Any other array gets a fresh record on each call, which the
    memo does not keep, so it holds one record per such live array.  A
    small pair's arrays, as angular's, are built afresh for each pair and
    never met again, so keeping them would only cost.  A hit assumes the
    array was not written after its record was kept, which only
    ``setflags(write=True)``, or a writeable view taken before it was made
    read-only, could do.  A record's own term and endpoint are kept only
    when they hold at most ``MEMO_ENTRY_BYTES`` and the state does not
    vanish.  ``len()`` is the number of kept spectra.  Lookups read the
    table without the lock and every store holds it; the arithmetic runs
    outside it, and the first value stored wins, so every caller gets the
    same arrays.  The callback only pops the record's entry and never
    takes the lock, since it can run inside a locked step.
    """

    def __init__(self):
        self._states: dict[int, _State] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return sum(st.spectrum is not None for st in list(self._states.values()))

    def find(self, c: np.ndarray) -> _State | None:
        """The kept record of ``c``, or None."""
        st = self._states.get(id(c))
        return st if st is not None and st.ref() is c else None

    def state(self, c: np.ndarray) -> _State:
        """The record of ``c``: the kept one, or a new one, kept when :func:`_storable` accepts ``c``."""
        st = self.find(c)
        if st is not None:
            return st
        st = _State(c)
        if not _storable(c):
            return st
        st.magnitude = np.abs(c)
        if st.dense:
            p = st.magnitude @ st.magnitude.T
            st.floor = float(p.min()), float(p.diagonal().max())
        with self._lock:
            kept = self.find(c)  # another thread may have kept one meanwhile
            if kept is not None:
                return kept
            st.ref = weakref.ref(c, lambda _, key=id(c), table=self._states: table.pop(key, None))
            self._states[id(c)] = st
        return st

    def keep_own(self, st: _State, own: np.ndarray) -> None:
        """Keep ``own``, the whole-array own term of a kept record ``st``, and its
        endpoint, unless ``st`` holds one."""
        if st.ref is None or st.own is not None or own.nbytes > MEMO_ENTRY_BYTES or not st.norm2 > 0.0:
            return
        endpoint = _endpoint_blocks([own], st.norm2)
        for m in endpoint:
            m.setflags(write=False)
        with self._lock:
            if st.own is None:  # the endpoint first: a record with an own term has its endpoint
                st.endpoint, st.own = endpoint, own

    def spectrum(self, st: _State, solve) -> Spectrum:
        """The spectrum of ``st``'s kept endpoint: the kept one, or ``solve()``, kept."""
        spec = st.spectrum
        if spec is None:
            solved = solve()
            with self._lock:  # another thread may have kept one
                if st.spectrum is None:
                    st.spectrum = solved
                spec = st.spectrum
        return spec

    def clear(self) -> None:
        with self._lock:
            self._states.clear()


_state_memo = _StateMemo()


def eigendecompose(m: HermitianMatrix) -> Spectrum:
    """The spectrum of the density check of ``m``."""
    return m.spectrum


def components(pattern: np.ndarray) -> list[np.ndarray]:
    """Connected components of the rows of a boolean pattern, joined through any shared column.

    Rows i and k are joined when some column holds True in both; a row
    with no True is a component of its own.  A symmetric link matrix is
    the pattern with its diagonal set.  ``pattern`` may be a stack, shape
    (..., n, width): each member's rows join only through that member's
    own columns, and a row is numbered by its flat position b * n + r.
    The components are ordered by first row, each ascending, so those of
    one member come in member order.

    Every row starts as its own label; each step gives each column the
    least label of its rows and each row the least label of its columns,
    then follows every label to its own until none moves (a label is
    always a row of the same component).  The search stops when a step
    changes no label, each then the first row of its component.  A step
    costs the pattern's True entries, so a long chain of rows, as
    spherium's, takes a few steps, not one per link; a dense block takes
    two.
    """
    n, width = pattern.shape[-2:]
    rows = math.prod(pattern.shape[:-1])
    if rows == 0:
        return []
    label = np.arange(rows)
    flat = np.flatnonzero(pattern)
    if flat.size:
        i = flat // width  # row-major: ascending
        j = flat - i * width
        j += (label // n * width)[i]  # each member's own columns
        starts = np.flatnonzero(np.concatenate([[True], i[1:] != i[:-1]]))  # each touching row's first entry
        touching = i[starts]
        least = np.empty(rows // n * width, dtype=np.intp)
        while True:
            least.fill(rows)
            np.minimum.at(least, j, label[i])
            step = label.copy()
            step[touching] = np.minimum(label[touching], np.minimum.reduceat(least[j], starts))
            while not np.array_equal(root := step[step], step):
                step = root
            if np.array_equal(step, label):
                break
            label = step
    order = np.argsort(label, kind="stable")
    # slices at the cuts: np.split costs about four times as much per part
    cuts = [0, *(np.flatnonzero(np.diff(label[order])) + 1).tolist(), rows]
    return [order[a:b] for a, b in zip(cuts, cuts[1:])]


def size_groups(parts) -> list[np.ndarray]:
    """The index arrays of each size, stacked to shape (parts, size), by ascending size."""
    sizes = sorted({len(p) for p in parts})
    return [np.stack([p for p in parts if len(p) == size]) for size in sizes]


def own_blocks(layout, mats, sector=None) -> list[np.ndarray] | None:
    """The rows of block-diagonal ``mats`` split into the blocks of their exact nonzero pattern.

    ``layout`` holds, per size group, the blocks' rows, shape (blocks,
    size), and ``mats`` the blocks, shape (blocks, size, size).  Each
    block splits into the connected components of its entries that are
    not exactly zero, and of the nonzero entries of ``sector``, operator
    blocks in the same layout, so that it couples no two parts: one
    :func:`components` call per group, on its stack of link matrices with
    each diagonal set, so that a row with a zero diagonal keeps its links.
    Returns the parts' rows per size, shape (parts, size), by ascending
    size (:func:`size_groups`), the parts of one size in group, block and
    first-row order; or None when no block splits.  A group with no zero
    entry is one zero test, and a group of blocks of at most
    ``SMALL_ROWS`` rows is kept whole untested.
    """
    parts, split = [], False
    for i, (rows, m) in enumerate(zip(layout, mats)):
        if rows.shape[1] > SMALL_ROWS:
            linked = m != 0 if sector is None else (m != 0) | (sector[i] != 0)
            if np.count_nonzero(linked) < linked.size:
                diag = np.arange(rows.shape[1])
                linked[:, diag, diag] = True
                found = components(linked)
                split = split or len(found) > len(rows)
                parts += [rows.reshape(-1)[p] for p in found]
                continue
        parts += list(rows)  # solved whole: small, or no zero entry
    return size_groups(parts) if split else None


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
    ``states`` holds the records of c0 and c1 (:class:`_State`).
    ``repeats`` holds, per group, how many times each block's eigenvalues
    count in the alpha curve, shape (blocks,): 2 for the solved side of an
    exchange pair, 0 for the side it stands in for, 1 otherwise; None when
    no block pairs (:func:`exchange_repeats`).  ``exchange_dropped`` is the
    largest accepted exchange defect relative to its rounding bound.
    """

    groups: tuple[tuple[np.ndarray, np.ndarray], ...]
    block_sizes: tuple[int, ...]
    dropped: float
    dim: int
    traced: int
    norms: tuple[float, float, float]
    sector: tuple[np.ndarray, ...] | None
    states: tuple[_State, _State] = field(repr=False, compare=False)
    repeats: tuple[np.ndarray, ...] | None = field(default=None, repr=False, compare=False)
    exchange_dropped: float = 0.0

    def endpoint(self, state: int) -> tuple[np.ndarray, ...]:
        """The reduced density of c0 or c1, one stack of blocks per size group.

        Normalized by :func:`_endpoint_blocks`, which ``PairSpec.builder``
        calls too; with one block this is the builder's density to the bit,
        which S_NS of some LG pairs (one block of 32) needs.  No dim x dim
        matrix is formed.  With one block, a kept record gives back its
        kept, read-only blocks (:class:`_StateMemo`).
        """
        n2 = self.norms[state]
        if not n2 > 0.0:
            raise ValueError("state vanishes")
        st = self.states[state]
        if st.endpoint is not None and len(self.block_sizes) == 1:
            return st.endpoint
        return _endpoint_blocks([terms[state] for _, terms in self.groups], n2)

    def spectrum(self, blocks: tuple[np.ndarray, ...]) -> Spectrum:
        """The spectrum of :meth:`endpoint` blocks, each solved on its own exact blocks.

        A J_z eigenstate in an m-labelled basis couples a row m1 only to
        the columns with m2 = M - m1, so its density is zero between rows
        of different m1 however the pair links them.  Each block is
        therefore split into the connected components of its exact
        nonzero pattern and of the sector operator's links
        (:func:`own_blocks`), and the parts are solved alone
        (:func:`eigh_blocks`).  Blocks with no zero entry, as all of LG's
        and the coupled oscillator's, and blocks of at most ``SMALL_ROWS``
        rows, as angular's and table 1's, are solved as they are; one
        block is then the density check's eigen-solve of
        ``PairSpec.builder``.  :meth:`restrict` cuts the
        partner's blocks to the parts.

        Without a sector operator, a kept endpoint, the very tuple
        :meth:`endpoint` returned, is split and solved once per process:
        every later call gets the same read-only spectrum
        (:class:`_StateMemo`).  Other blocks, and every endpoint of a pair
        with a sector operator, whose links depend on the pair, are solved
        on each call.
        """
        rows = [g[0] for g in self.groups]
        if self.sector is None:
            for st in self.states:
                if st.endpoint is blocks:
                    return _state_memo.spectrum(st, lambda: _own_spectrum(rows, blocks))
        return _own_spectrum(rows, blocks, self.sector)

    def restrict(self, stacks: tuple[np.ndarray, ...], spec: Spectrum) -> tuple[np.ndarray, ...]:
        """``stacks``, blocks in the layout of ``groups``, cut to the blocks of
        ``spec``'s groups, which split them (:meth:`spectrum`).

        Gives ``stacks`` itself when ``spec`` has the layout of ``groups``.
        """
        parts = [rows for rows, _ in spec.groups]
        return stacks if self._is_layout(parts) else cut_blocks([g[0] for g in self.groups], stacks, parts)

    def _is_layout(self, parts) -> bool:
        if len(parts) != len(self.groups):
            return False
        return all(p is rows or (p.shape == rows.shape and np.array_equal(p, rows))
                   for p, (rows, _) in zip(parts, self.groups))


def _own_spectrum(layout, blocks, sector=None) -> Spectrum:
    """The spectrum of ``blocks``, in ``layout``, solved on their own exact blocks (:func:`own_blocks`)."""
    parts = own_blocks(layout, blocks, sector)
    if parts is None:
        return eigh_blocks(list(zip(layout, blocks)))
    return eigh_blocks(list(zip(parts, cut_blocks(layout, blocks, parts))))


def cut_blocks(layout, stacks, parts) -> tuple[np.ndarray, ...]:
    """``stacks``, blocks in ``layout``, cut to the diagonal blocks on the rows of ``parts``.

    ``layout`` holds the blocks' rows per size group, ``stacks`` the
    blocks, and ``parts`` the rows of finer blocks per size, shape (parts,
    size), each inside one block of ``layout``.  One gather per size.
    """
    dim = sum(rows.size for rows in layout)
    base = np.empty(dim, dtype=np.intp)  # a row's first entry in the flat stacks
    local = np.empty(dim, dtype=np.intp)  # its column in its block
    offset = 0
    for rows, m in zip(layout, stacks):
        local[rows] = np.arange(rows.shape[1])
        base[rows] = offset + np.arange(rows.size).reshape(rows.shape) * rows.shape[1]
        offset += m.size
    flat = np.concatenate([m.reshape(-1) for m in stacks])
    return tuple(flat[base[p][:, :, None] + local[p][:, None, :]] for p in parts)


def _sum_squares(c: np.ndarray) -> float:
    """sum |c|^2 as ``np.sum(np.abs(c) ** 2)`` forms it, to the bit, with no full-size |c|.

    numpy sums a C-contiguous array pairwise over its flat entries: the
    first half, cut to a multiple of 8, plus the rest, down to runs of at
    most 128.  The halves are taken here down to ``SUM_CHUNK`` entries,
    each summed by numpy as an array of its own, which is the same tree.
    A real array's |c|^2 is c * c to the bit.  Arrays of at most
    ``SUM_CHUNK`` entries and other layouts are summed whole, as before.
    """
    if c.size <= SUM_CHUNK or not c.flags.c_contiguous:
        return np.sum(np.abs(c) ** 2)
    return _pairwise_squares(c.reshape(-1), 0, c.size)


def _pairwise_squares(flat: np.ndarray, lo: int, hi: int):
    """sum |flat[lo:hi]|^2 in numpy's pairwise tree, down to runs of ``SUM_CHUNK`` entries (:func:`_sum_squares`).

    A function of the module, not a closure that calls itself, which would
    hold the array in a reference cycle until the garbage collector runs.
    """
    if hi - lo <= SUM_CHUNK:
        x = flat[lo:hi]
        return np.sum(np.abs(x) ** 2 if np.iscomplexobj(x) else np.square(x))
    half = (hi - lo) // 2
    half -= half % 8
    return _pairwise_squares(flat, lo, lo + half) + _pairwise_squares(flat, lo + half, hi)


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
    A pair of at most ``SMALL_ROWS`` rows, as every angular one, is one
    block: it forms no G, runs no component or exchange search, and its
    ``dropped`` is 0.0.  So is a pair of two kept records of arrays with
    no zero entry and no sector operator whose floors prove G's threshold
    passed by every entry (:func:`_proved_one_block`): the search would
    exit on one block with the same fields, as on every LG pair, met
    first or again.

    The blocks are found in two levels (:func:`_link_blocks`).  Level 1
    takes the connected components of the exact nonzero pattern of c0 and
    c1, rows joined by a shared column or a nonzero operator entry, on
    boolean arrays (:func:`components`).  Rows of different components
    share no column, so their entry of G is exactly 0.0.  Level 2 forms G
    inside each component only, over its rows and touched columns, and
    applies the threshold there, against the largest entry over all
    components.  Spherium's states hold 1,703 nonzeros of 529 x 529; the
    M = +-1 pair has four components of 121-144 rows, and the threshold
    splits 143 + 1 off the largest.  Amplitudes with no zero entry (LG,
    the coupled oscillator) are the one-component case: G over every
    column, as before, unless the memo proves them one block first.  An
    entry of G over fewer columns can round differently in its last bit,
    since BLAS blocks a sum by its length; on every model pair tested the
    blocks and ``dropped`` equal those of G over every column bit for bit,
    and on arbitrary input ``dropped`` is equal to rounding.

    What each state determines alone comes from its record
    (:class:`_State`): its finiteness and density and sum |c|^2 and, for
    an array the memo keeps, |c|, the floor of |c||c|^T and, once a pair
    finds its rows one block, its whole own term c c^dagger and endpoint,
    each formed on first sight only.  Only the link graph, unless the
    floors prove one block, and the cross term are formed for every pair.
    No |c| of a whole array is formed unless the memo keeps it or one
    component spans the array, and sum |c|^2 is numpy's sum to the bit
    (:func:`_sum_squares`).  Each own term is a product over the columns
    its state touches on the group's rows, and the cross term over those
    both states touch, so the terms do not depend on the partner and a
    kept own term is the one a fresh trace-out forms.

    Identical particles pair blocks.  When rows and columns run over one
    basis (square amplitudes) and both states are exchange-symmetric or
    -antisymmetric with one sign, c = +-c^T, a block b whose columns are
    the rows of blocks P, which touch only b's rows, has the nonzero
    spectrum of P in every superposition, so the alpha curve solves only
    the cheaper side and counts it twice (:func:`exchange_repeats`;
    ``GramBlocks.repeats``).  Spherium M = +-1 pairs 121 <-> 132 and
    132 <-> 1 + 143, M = +-2 pairs 60 <-> 1 + 71, 61 <-> 72 and two
    66 <-> 66.  A pair is accepted only while the exchange defect, by
    Weyl, moves no eigenvalue by more than the rounding of solving the
    stood-in side directly.  Amplitudes with no zero entry (LG, the coupled
    oscillator) skip the search, which takes the exact nonzero pattern as
    its support: LG is not square, and every oscillator block touches
    every column.  Every block's terms are still formed, so ``norms``, the
    endpoints and the criterion do not move.
    """
    if c0.ndim != 2 or c0.shape != c1.shape:
        raise ValueError(f"amplitudes must be 2-d arrays of one shape: {c0.shape} != {c1.shape}")
    st0, st1 = _state_memo.state(c0), _state_memo.state(c1)  # each checks its array is finite
    if sector is not None and np.shape(sector) != (len(c0), len(c0)):
        raise ValueError(f"sector operator shape {np.shape(sector)} does not match {len(c0)} rows")
    dim = len(c0)
    dense = st0.dense and st1.dense  # no zero entry, as LG's: one component over every column
    if dim <= SMALL_ROWS or sector is None and _proved_one_block(st0, st1):  # no link graph, no search
        touched = None if dense else (c0.any(axis=0), c1.any(axis=0))
        layout, touched, sizes, dropped, counts, exchange = [np.arange(dim)[None]], [touched], (dim,), 0.0, None, 0.0
    else:
        layout, touched, sizes, dropped, counts, exchange = _link_blocks(
            c0, c1, st0.magnitude, st1.magnitude, sector, dense)
    whole = len(sizes) == 1  # one block, one group: a record's own term is the whole array's
    own0, own1 = (st0.own, st1.own) if whole else (None, None)
    groups = []
    n01 = 0.0
    for rows, cols in zip(layout, touched):
        t, u, x = _group_terms(c0, c1, rows, cols, own0 is None, own1 is None)
        t = own0 if t is None else t
        u = own1 if u is None else u
        n01 += float(np.trace(x, axis1=1, axis2=2).real.sum())
        groups.append((rows, np.stack([t, u, x])))
    if whole:
        _state_memo.keep_own(st0, t)
        _state_memo.keep_own(st1, u)
    op = None
    if sector is not None:  # every nonzero entry, NaN included, lies in one of these blocks
        op = tuple(sector[rows[:, :, None], rows[:, None, :]] for rows, _ in groups)
        if not all(np.isfinite(o).all() for o in op):
            raise ValueError("sector operator entries must be finite")
        dev = max(np.max(np.abs(o - o.conj().swapaxes(1, 2))) for o in op)
        if dev > HERMITICITY_TOL * max(1.0, *(np.max(np.abs(o)) for o in op)):
            raise NonHermitianError(f"sector operator hermiticity deviation {dev:.3e}")
    repeats = None if counts is None else tuple(counts[rows[:, 0]] for rows in layout)
    return GramBlocks(tuple(groups), sizes, dropped, dim, c0.shape[1],
                      (st0.norm2, st1.norm2, n01), op, (st0, st1), repeats, exchange)


def _proved_one_block(st0: _State, st1: _State) -> bool:
    """Whether two kept records of dense arrays are one block by their floors alone (:func:`gram_blocks`).

    Every entry of G = (|c0| + |c1|)(|c0| + |c1|)^T is at least the sum of
    the states' smallest entries of |c||c|^T, and its largest at most its
    largest diagonal entry, at most twice the sum of their largest
    diagonal entries (:attr:`_State.floor`).  When the first sum exceeds
    4 ``BLOCK_LINK_TOL`` times the second, every entry of G is more than
    twice the threshold, so rounding cannot drop a link.
    """
    if st0.floor is None or st1.floor is None:
        return False
    (low0, diag0), (low1, diag1) = st0.floor, st1.floor
    return low0 + low1 > 4.0 * BLOCK_LINK_TOL * (diag0 + diag1)


def _link_blocks(c0, c1, a, b, sector, dense):
    """The amplitude blocks of a pair of more than ``SMALL_ROWS`` rows, in two levels (:func:`gram_blocks`).

    ``a`` and ``b`` are |c0| and |c1|, each None where the memo keeps no record.
    Returns the layout, the rows of each size group; per group the
    columns c0 and c1 touch on its rows, a pair of boolean masks, or None
    for every column; the blocks' sizes in order of first row; the
    largest dropped link, relative; the exchange counts of each
    row's block (None when no pair is accepted) and the largest accepted
    exchange defect (:func:`exchange_repeats`).  Every full-size mask
    and product it forms is gone when it returns.
    """
    dim = len(c0)
    links = None
    if sector is not None:  # the operator's links, each row linked to itself
        links = sector != 0
        np.fill_diagonal(links, False)
        joins = links.any(axis=0)  # the columns that link two rows
        np.fill_diagonal(links, True)
    # level 1: the exact pattern's components, each with G over its rows and touched columns
    if dense:
        s = (np.abs(c0) if a is None else a) + (np.abs(c1) if b is None else b)
        spans = [(np.arange(dim), s @ s.T)]
        del s
    else:
        nz0, nz1 = c0 != 0, c1 != 0
        pattern = nz0 | nz1
        # an operator column that links two rows joins them as an amplitude column does
        joined = pattern if links is None or not joins.any() else np.hstack([pattern, links[:, joins]])
        spans = []
        for rows in components(joined):
            ix = np.ix_(rows, np.flatnonzero(pattern[rows].any(axis=0)))
            s = (np.abs(c0[ix]) if a is None else a[ix]) + (np.abs(c1[ix]) if b is None else b[ix])
            spans.append((rows, s @ s.T))
        del joined
    # level 2: G's links above the threshold, inside each component
    top = max(float(g.max()) for _, g in spans)
    if len(spans) == 1:
        linked = spans[0][1] > BLOCK_LINK_TOL * top
    else:
        linked = np.zeros((dim, dim), dtype=bool)
        for rows, g in spans:
            linked[np.ix_(rows, rows)] = g > BLOCK_LINK_TOL * top
    if np.count_nonzero(linked) == linked.size:  # one block: no search, no link between blocks
        parts, dropped = [np.arange(dim)], 0.0
    else:
        if links is not None:
            linked |= links
        np.fill_diagonal(linked, True)
        parts = components(linked)
        label = np.empty(dim, dtype=np.intp)
        label[np.concatenate(parts)] = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
        dropped = 0.0
        for rows, g in spans:  # the largest link between blocks; components share none
            within = label[rows]
            np.putmask(g, within[:, None] == within, 0.0)
            dropped = max(dropped, float(g.max()))
        dropped = dropped / top if top > 0.0 else 0.0
    del spans, linked
    layout = size_groups(parts)
    touched = [None] * len(layout)
    if not dense:
        touched = [(nz0[rows].any(axis=(0, 1)), nz1[rows].any(axis=(0, 1))) for rows in layout]
    counts, exchange = None, 0.0
    # exchange pairs, where rows and columns run over one basis
    if not dense and len(parts) > 1 and dim == c0.shape[1]:
        counts, exchange = exchange_repeats(c0, c1, pattern, label, len(parts))
        if counts is not None:
            counts = counts[label]
    return layout, touched, tuple(len(p) for p in parts), dropped, counts, exchange


def _group_terms(c0, c1, rows, touched, own0=True, own1=True):
    """c0c0^dagger, c1c1^dagger and c0c1^dagger + c1c0^dagger on one size group, each (blocks, size, size).

    ``touched`` holds the columns c0 and c1 touch on the rows, or is None
    for every column.  Each own term is a product over the columns its
    state touches, and the cross term over those both touch, so the terms
    do not depend on the partner.  An own term not asked for (``own0``,
    ``own1`` false: the memo holds it) is None.
    """
    # one gather at a time, each dropped once its product is formed
    if touched is None:
        t0 = t1 = None
        b0, b1 = c0[rows], c1[rows]  # (blocks, size, columns)
    else:
        t0, t1 = touched
        both = t0 & t1
        b0, b1 = _columns(c0, rows, both), _columns(c1, rows, both)
    b1h = b1.conj().swapaxes(1, 2)
    cross = b0 @ b1h
    x = cross + cross.conj().swapaxes(1, 2)
    del cross
    t = u = None
    if own0:
        a0 = b0 if t0 is None or np.array_equal(t0, both) else _columns(c0, rows, t0)
        t = a0 @ a0.conj().swapaxes(1, 2)
        del a0
    del b0
    if own1:
        a1 = b1 if t1 is None or np.array_equal(t1, both) else _columns(c1, rows, t1)
        a1h = b1h if a1 is b1 else a1.conj().swapaxes(1, 2)
        u = a1 @ a1h
    return t, u, x


def _columns(c: np.ndarray, rows: np.ndarray, touched: np.ndarray) -> np.ndarray:
    """``c`` on the rows of a size group, shape (blocks, size, columns), over the ``touched`` columns."""
    return c[rows] if touched.all() else c[rows[:, :, None], np.flatnonzero(touched)]


def exchange_repeats(c0: np.ndarray, c1: np.ndarray, support: np.ndarray, label: np.ndarray, n: int):
    """How many times each block's eigenvalues count in the alpha curve, and the largest accepted defect.

    ``c0`` and ``c1`` are square, rows and columns over one basis;
    ``support`` is nonzero exactly where c0 or c1 is (the trace-out
    passes the boolean pattern), and ``label`` gives each row's block of
    ``n``.  A
    block b pairs with the set P of blocks holding its columns when b is
    not in P and every block of P touches only b's rows.  If then both
    states satisfy c = sign c^T with one sign on the coupling, so does
    every superposition C, and C[P, b] = sign C[b, P]^T: P's density
    C[P, b] C[P, b]^dagger and b's C[b, P] C[b, P]^dagger share their
    nonzero spectrum, and one side's eigenvalues, counted twice, stand in
    for both.  The side solved is the cheaper by the sum of its blocks'
    size**3, b on a tie; its blocks count 2, the other side's 0.

    The exchange holds only to rounding (spherium's electrons to 1.1e-16).
    With D_k = c_k[b, P] - sign c_k[P, b]^T, by Weyl every squared
    singular value of C[P, b] lies within delta (2 N + delta) of its
    counterpart in C[b, P], at every alpha, for delta^2 = |D_0|_F^2 +
    |D_1|_F^2 and N^2 the mean of the two sides' |c_0|_F^2 + |c_1|_F^2 on
    the coupling, at least the smaller.  A pair is accepted when that bound
    is at most m eps N^2, the rounding of solving the stood-in side of m
    rows directly, eps the machine epsilon.  Each sum runs over the
    coupling's nonzero entries, once from each side, halved; an entry
    nonzero on one side only is a defect of its own size.  States of
    opposite signs leave a defect of their own size too, so such a pair
    is solved as before.  States exchange-symmetric to the bit, as
    angular's, skip the sums: their defect is 0.

    Returns the counts per block, 0, 1 or 2, or None when no pair is
    accepted, and the largest accepted ratio of bound to rounding, 0.0
    when none.
    """
    i, j = np.divmod(np.flatnonzero(support), len(support))  # the nonzero entries of c0 or c1
    bi, bj = label[i], label[j]
    touch = np.zeros((n, n), dtype=bool)
    touch[bi, bj] = True  # touch[b, q]: block b's columns meet block q's rows
    hits = touch.sum(axis=1)
    # b pairs when every block it touches touches b alone, and b is not one of them
    hub = ((touch & touch.T & (hits == 1)).sum(axis=1) == hits) & (hits > touch.diagonal())
    # two single blocks pair from both ends: the first is the hub
    hub &= (hits > 1) | (touch.argmax(axis=1) > np.arange(n))
    if not hub.any():
        return None, 0.0
    size = np.bincount(label, minlength=n)
    solve_hub = size ** 3 <= touch @ size ** 3
    v, w = np.stack([c0[i, j], c1[i, j]]), np.stack([c0[j, i], c1[j, i]])
    plus, minus = v - w, v + w  # the defects with sign +1 and -1
    ok, ratio = hub, 0.0
    if plus.any() and minus.any():  # no exact exchange of the whole states, as angular's
        # each coupling entry, from a hub's rows or turned over from its partners', once per side
        coupling = hub[bi] | hub[bj] & touch[bj, bi]
        x = np.stack([plus, minus, v])[:, :, coupling]
        of = np.where(hub[bi], bi, bj)[coupling]
        plus, minus, norm2 = (np.bincount(of, y, minlength=n) for y in (x * x.conj()).real.sum(axis=1) / 2.0)
        delta = np.sqrt(np.minimum(plus, minus))
        bound = delta * (2.0 * np.sqrt(norm2) + delta)
        rounding = np.where(solve_hub, touch @ size, size) * np.finfo(float).eps * norm2
        ok = hub & (bound <= rounding)
        if not ok.any():
            return None, 0.0
        ratio = float(np.divide(bound, rounding, out=np.zeros(n), where=ok).max())
    side = np.where(ok, np.where(solve_hub, 1, -1), 0)  # +1: the hub solved, -1: its partners
    return 1 + side - side @ touch, ratio


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
    """S = -sum lambda_i log2(lambda_i) of a spectrum, in bits (:func:`entropy_bits`).

    Formed once per spectrum and kept (:attr:`Spectrum.entropy`).
    """
    return s.entropy
