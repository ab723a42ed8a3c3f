"""Density matrices, spectra with degeneracy blocks, entropies and the trace-out.

Everything downstream (criterion evaluation, model sweeps) consumes the
types defined here.  All values are immutable after construction and the
functions are pure, so they can be shared freely between threads.

A scan meets one state in many pairs, so everything one amplitude matrix
determines on its own is formed once per process and reused bit for bit
(:class:`_StateMemo`): |c|, sum |c|^2, and, per block layout, its own
term c c^dagger, its endpoint density and, for pairs without a sector
operator, that density's spectrum.  Only read-only arrays that own their
data, have more than ``SMALL_ROWS`` rows and hold at most
``MEMO_ENTRY_BYTES`` are stored, on their first sighting; one is found
by its identity, which assumes it is not written again, and its state
goes when the array is freed.  No layout whose own terms hold more than
``MEMO_ENTRY_BYTES`` is stored, and a lock guards the memo.  Every stored
value is the output of the same call, on the same inputs, as without the
memo, so no result changes by a bit.
Every endpoint is solved on its own exact blocks
(:meth:`GramBlocks.spectrum`).  Where the rows carry an m1 label
(angular, spherium), each state's density is exactly zero between rows
of different m1, so the amplitude blocks, which the pair links, split
into the connected components of that nonzero pattern
(:func:`own_blocks`).  Blocks with no zero entry (LG, the coupled
oscillator) are solved whole.

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
# exchange pairs of blocks are sought only where a block has at least this
# many rows: below it the search (about 50 us) costs more than the solves
# it saves, on planted pairs of 41 grid points the crossover lay at blocks
# of 4 to 6 rows (one BLAS thread)
EXCHANGE_MIN_ROWS = 5
# the small-pair rule: a pair of at most this many rows is one block, a
# block of at most this many rows is solved whole, with no own-block split
# or range step, and the memo stores no array of at most this many rows.
# Measured crossover (warm, one BLAS thread, 15 interleaved rounds,
# against the paths without the rule): angular verdicts of 3 to 25 rows
# (l = 1 to 12) gain x1.39 to x1.08, and table 1 row 0's curve, blocks of
# 2 to 16 rows, x1.77; LG's low-rank pairs would run at 0.37x at 32 rows
# with the rule (no range step, no memo), and already at 0.61x at 16, so
# the rule stops below 32
SMALL_ROWS = 25
# the per-state memo (_StateMemo) stores no amplitude matrix, and no
# layout's own terms, above this (dense-tables' are all above)
MEMO_ENTRY_BYTES = 64 * 1024


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


def _endpoint_blocks(own, n2) -> tuple[np.ndarray, ...]:
    """The reduced density of one state from its own terms, one stack of blocks per size group.

    Divided by sum |c|^2, then by the whole trace, then symmetrized, the
    order of ``PairSpec.builder`` and its reference
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
    """What one amplitude matrix determines on its own, as :class:`_StateMemo` holds it.

    ``ref`` is a weak reference to the array, ``magnitude`` its |c| and
    ``norm2`` its sum |c|^2.  ``layouts`` maps a block layout, the rows of
    the size groups, to a dict of the state's own terms ``"own"`` (c
    c^dagger, one stack per size group), its ``"endpoint"`` blocks
    (:func:`_endpoint_blocks`, read-only) and, once solved, their
    ``"spectrum"``.
    """

    __slots__ = ("ref", "magnitude", "norm2", "layouts")

    def __init__(self, c, magnitude, norm2, table):
        self.ref = weakref.ref(c, lambda _, key=id(c): table.pop(key, None))
        self.magnitude, self.norm2 = magnitude, norm2
        self.layouts: dict[tuple, dict] = {}


def _storable(c: np.ndarray) -> bool:
    """Whether :class:`_StateMemo` stores ``c``: read-only, owning its data, of
    more than ``SMALL_ROWS`` rows and at most ``MEMO_ENTRY_BYTES``."""
    flags = c.flags
    return not flags.writeable and flags.owndata and len(c) > SMALL_ROWS and c.nbytes <= MEMO_ENTRY_BYTES


class _StateMemo:
    """Everything one amplitude matrix determines on its own, formed once per process.

    A read-only array that owns its data, has more than ``SMALL_ROWS`` rows
    and holds at most ``MEMO_ENTRY_BYTES`` (the models' cached arrays) is
    stored on its first sighting and found by its id, checked against a
    weak reference, so the memo keeps no array alive; the reference's
    callback drops the state when the array is freed.  Any other array
    bypasses the memo, so it holds one state per such live array.  A small
    pair's arrays, as angular's, are built afresh for each pair and never
    met again, so storing them would only cost.  A hit
    assumes the array was not written after it was stored, which only
    ``setflags(write=True)``, or a writeable view taken before it was made
    read-only, could do.  A layout is stored only when its own terms hold
    at most ``MEMO_ENTRY_BYTES`` and the state does not vanish.
    ``len()`` is the number of stored spectra.  Lookups read the table
    without the lock and every store holds it; the arithmetic runs outside
    it, and the first value stored wins, so every caller gets the same
    arrays.  The callback only pops the state's entry and never takes the
    lock, since it can run inside a locked step.
    """

    def __init__(self):
        self._states: dict[int, _State] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return sum("spectrum" in entry for st in list(self._states.values()) for entry in st.layouts.values())

    def find(self, c: np.ndarray) -> _State | None:
        """The stored state of ``c``, or None."""
        st = self._states.get(id(c))
        return st if st is not None and st.ref() is c else None

    @staticmethod
    def layout(st: _State | None, layout: tuple) -> dict | None:
        """The stored entry of ``layout`` in ``st``, or None."""
        return None if st is None else st.layouts.get(layout)

    def store(self, st, c, magnitude, norm2, layout, own) -> _State | None:
        """Store what the trace-out formed of ``c``: a state when ``st``, its
        ``find``, is None, and its own terms and endpoint for ``layout``.

        Returns the state, or None when ``c`` bypasses the memo.
        """
        if st is None and not _storable(c):
            return None
        entry = None
        if sum(m.nbytes for m in own) <= MEMO_ENTRY_BYTES and norm2 > 0.0:
            entry = {"own": own, "endpoint": _endpoint_blocks(own, norm2)}
            for m in entry["endpoint"]:
                m.setflags(write=False)
        with self._lock:
            if st is None:  # another thread may have stored it meanwhile
                st = self.find(c)
            if st is None:
                st = self._states[id(c)] = _State(c, magnitude, norm2, self._states)
            if entry is not None:
                st.layouts.setdefault(layout, entry)
        return st

    def spectrum(self, entry: dict, solve) -> Spectrum:
        """The spectrum of ``entry``, a stored layout: the stored one, or
        ``solve()``, the spectrum of its endpoint blocks, stored."""
        spec = entry.get("spectrum")
        if spec is None:
            solved = solve()
            with self._lock:  # another thread may have stored one
                spec = entry.setdefault("spectrum", solved)
        return spec

    def clear(self) -> None:
        with self._lock:
            self._states.clear()


_state_memo = _StateMemo()


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


def component_labels(linked: np.ndarray) -> np.ndarray:
    """The first row of each row's connected component, per block of a stack.

    ``linked`` holds symmetric boolean link matrices, shape (blocks, size,
    size).  Each step gives a row the smallest label among its own and its
    links', then the label of that label, until no label changes; a label
    is always a row of the same component, so the fixed point is its
    first row.
    """
    size = linked.shape[-1]
    label = np.arange(size)
    while True:
        least = np.where(linked, label[..., None, :], size).min(axis=2)
        np.minimum(least, label, out=least)
        if (least == label).all():
            return least
        label = np.take_along_axis(least, least, axis=1)


def own_blocks(layout, mats, sector=None) -> list[np.ndarray] | None:
    """The rows of block-diagonal ``mats`` split into the blocks of their exact nonzero pattern.

    ``layout`` holds, per size group, the blocks' rows, shape (blocks,
    size), and ``mats`` the blocks, shape (blocks, size, size).  Each
    block splits into the connected components of its entries that are
    not exactly zero, and of the nonzero entries of ``sector``, operator
    blocks in the same layout, so that it couples no two parts.  Returns
    the parts' rows per size, shape (parts, size), by ascending size, the
    parts of one size in group, block and first-row order; or None when
    no block splits.  A group with no zero entry is one zero test, and a
    group of blocks of at most ``SMALL_ROWS`` rows is kept whole untested.
    """
    labels, split = [], False  # per group the first row of each row's part, 0 for whole blocks
    for i, (rows, m) in enumerate(zip(layout, mats)):
        label = 0  # solved whole: small, or no zero entry
        if rows.shape[1] > SMALL_ROWS:
            linked = m != 0 if sector is None else (m != 0) | (sector[i] != 0)
            if np.count_nonzero(linked) < linked.size:
                label = component_labels(linked)
                split = split or bool(label.any())  # a label past 0: a second part in its block
        labels.append(label)
    if not split:
        return None
    flat = np.concatenate([rows.reshape(-1) for rows in layout])
    keys, base = [], 0
    for rows, label in zip(layout, labels):  # a part's key: its group, block and first row
        keys.append(np.broadcast_to(base + np.arange(len(rows))[:, None] * rows.shape[1] + label, rows.shape))
        base += rows.size
    key = np.concatenate([k.reshape(-1) for k in keys])
    order = np.argsort(key, kind="stable")
    key, flat = key[order], flat[order]
    starts = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    counts = np.diff(starts, append=len(key))
    return [flat[starts[counts == size][:, None] + np.arange(size)] for size in sorted(set(counts.tolist()))]


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
    ``states`` holds the memo states of c0 and c1 (:class:`_StateMemo`),
    None where the array bypasses the memo, and ``layout`` the key of the
    groups' rows in them.
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
    states: tuple[_State | None, _State | None] = field(default=(None, None), repr=False, compare=False)
    layout: tuple = field(default=(), repr=False, compare=False)
    repeats: tuple[np.ndarray, ...] | None = field(default=None, repr=False, compare=False)
    exchange_dropped: float = 0.0

    def endpoint(self, state: int) -> tuple[np.ndarray, ...]:
        """The reduced density of c0 or c1, one stack of blocks per size group.

        Normalized as ``PairSpec.builder`` and its reference
        ``tests/oracles.py::reduce_pure_state`` do (:func:`_endpoint_blocks`).
        With one block this is their arithmetic to the bit, which S_NS of
        some LG pairs (one block of 32) needs.  No dim x dim matrix is
        formed.  A stored state gives back its stored, read-only blocks
        (:class:`_StateMemo`).
        """
        n2 = self.norms[state]
        if not n2 > 0.0:
            raise ValueError("state vanishes")
        entry = _state_memo.layout(self.states[state], self.layout)
        if entry is not None:
            return entry["endpoint"]
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

        Without a sector operator, a stored endpoint, the very tuple
        :meth:`endpoint` returned, is split and solved once per process:
        every later call gets the same read-only spectrum
        (:class:`_StateMemo`).  Other blocks, and every endpoint of a pair
        with a sector operator, whose links depend on the pair, are solved
        on each call.
        """
        rows = [g[0] for g in self.groups]
        if self.sector is None:
            for st in self.states:
                entry = _state_memo.layout(st, self.layout)
                if entry is not None and entry["endpoint"] is blocks:
                    return _state_memo.spectrum(entry, lambda: _own_spectrum(rows, blocks))
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


def _magnitude(c: np.ndarray, st: _State | None) -> tuple[np.ndarray, float]:
    """|c| and sum |c|^2: the stored ones, or formed here."""
    if st is not None:
        return st.magnitude, st.norm2
    a = np.abs(c)
    return a, np.sum(a ** 2)


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
    ``dropped`` is 0.0.

    What each state determines alone, |c|, sum |c|^2 and, per block
    layout, its own term c c^dagger and endpoint, comes from the per-state
    memo (:class:`_StateMemo`) and, for an array the memo stores, is formed
    only on its first sight; only the link graph and the cross term are
    formed for every pair.  Each own term is a product over the columns
    its state touches on the group's rows, and the cross term over those
    both states touch, so the terms do not depend on the partner and a
    stored own term is the one a fresh trace-out forms.

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
    oscillator) and layouts whose blocks all have fewer than
    ``EXCHANGE_MIN_ROWS`` rows skip the search: LG is not square, every
    oscillator block touches every column, and small blocks cost less to
    solve than to pair.  Every block's terms are still formed, so
    ``norms``, the endpoints and the criterion do not move.
    """
    if c0.ndim != 2 or c0.shape != c1.shape:
        raise ValueError(f"amplitudes must be 2-d arrays of one shape: {c0.shape} != {c1.shape}")
    if not (np.isfinite(c0).all() and np.isfinite(c1).all()):
        raise ValueError("amplitudes must be finite")
    if sector is not None and np.shape(sector) != (len(c0), len(c0)):
        raise ValueError(f"sector operator shape {np.shape(sector)} does not match {len(c0)} rows")
    st0, st1 = _state_memo.find(c0), _state_memo.find(c1)
    a, n0 = _magnitude(c0, st0)  # n0: the builder's sum |c|^2
    b, n1 = _magnitude(c1, st1)
    dim = len(c0)
    if dim <= SMALL_ROWS:  # a small pair is one block: no link graph, no search
        blocks, dropped = [np.arange(dim)], 0.0
    else:
        kept = st0 is not None or _storable(c0)  # |c0| is or will be stored
        s = a + b if kept else np.add(a, b, out=a)
        g = s @ s.T
        top = float(g.max())
        linked = g > BLOCK_LINK_TOL * top
        if np.count_nonzero(linked) == linked.size:  # one block: no search, no link between blocks
            blocks, dropped = [np.arange(dim)], 0.0
        else:
            blocks = components(linked if sector is None else linked | (sector != 0))
            label = np.empty(dim, dtype=np.intp)
            label[np.concatenate(blocks)] = np.repeat(np.arange(len(blocks)), [len(p) for p in blocks])
            np.putmask(g, label[:, None] == label, 0.0)  # the links within a block
            dropped = float(g.max()) / top if top > 0.0 else 0.0
    layout = size_groups(blocks)
    key = tuple(tuple(map(tuple, rows.tolist())) for rows in layout)
    own0, own1 = _state_memo.layout(st0, key), _state_memo.layout(st1, key)
    groups, terms0, terms1 = [], [], []
    n01 = 0.0
    dense = c0.all() and c1.all()  # no zero entry, as LG's: every product over all columns
    for i, rows in enumerate(layout):
        a0, a1 = c0[rows], c1[rows]  # (blocks, size, columns)
        if not dense:  # the columns each state touches on these rows
            t0, t1 = a0.any(axis=(0, 1)), a1.any(axis=(0, 1))
            both = t0 & t1
        if dense or both.all():  # every product as it always was
            b0, b1 = a0, a1
        else:
            b0, b1 = a0.compress(both, axis=2), a1.compress(both, axis=2)
            a0 = a0 if t0.all() else a0.compress(t0, axis=2)
            a1 = a1 if t1.all() else a1.compress(t1, axis=2)
        b1h = b1.conj().swapaxes(1, 2)
        cross = b0 @ b1h
        x = cross + cross.conj().swapaxes(1, 2)
        n01 += float(np.trace(x, axis1=1, axis2=2).real.sum())
        terms0.append(a0 @ a0.conj().swapaxes(1, 2) if own0 is None else own0["own"][i])
        a1h = b1h if a1 is b1 else a1.conj().swapaxes(1, 2)
        terms1.append(a1 @ a1h if own1 is None else own1["own"][i])
        groups.append((rows, np.stack([terms0[-1], terms1[-1], x])))
    if own0 is None:
        st0 = _state_memo.store(st0, c0, a, n0, key, tuple(terms0))
    if own1 is None:
        st1 = _state_memo.store(st1, c1, b, n1, key, tuple(terms1))
    op = None
    if sector is not None:  # every nonzero entry, NaN included, lies in one of these blocks
        op = tuple(sector[rows[:, :, None], rows[:, None, :]] for rows, _ in groups)
        if not all(np.isfinite(o).all() for o in op):
            raise ValueError("sector operator entries must be finite")
        dev = max(np.max(np.abs(o - o.conj().swapaxes(1, 2))) for o in op)
        if dev > HERMITICITY_TOL * max(1.0, *(np.max(np.abs(o)) for o in op)):
            raise NonHermitianError(f"sector operator hermiticity deviation {dev:.3e}")
    # exchange pairs, where rows and columns run over one basis and some
    # block is large enough to be worth the search
    repeats, exchange = None, 0.0
    if not dense and len(blocks) > 1 and layout[-1].shape[1] >= EXCHANGE_MIN_ROWS and len(c0) == c0.shape[1]:
        counts, exchange = exchange_repeats(c0, c1, s, label, len(blocks))
        if counts is not None:
            repeats = tuple(counts[label[rows[:, 0]]] for rows in layout)
    return GramBlocks(tuple(groups), tuple(len(p) for p in blocks), dropped, dim, c0.shape[1],
                      (n0, n1, n01), op, (st0, st1), key, repeats, exchange)


def exchange_repeats(c0: np.ndarray, c1: np.ndarray, support: np.ndarray, label: np.ndarray, n: int):
    """How many times each block's eigenvalues count in the alpha curve, and the largest accepted defect.

    ``c0`` and ``c1`` are square, rows and columns over one basis;
    ``support`` is |c0| + |c1|, whose nonzero entries are the exact
    pattern of both, and ``label`` gives each row's block of ``n``.  A
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
    i, j = np.divmod(np.flatnonzero(support.ravel() > 0.0), len(support))  # the nonzero entries of c0 or c1
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
    """S = -sum lambda_i log2(lambda_i) of a spectrum, in bits (:func:`entropy_bits`)."""
    return float(entropy_bits(s.eigenvalues))
