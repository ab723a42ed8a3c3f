"""Entropy-vs-alpha curves, chord convexity labels, criterion agreement.

The superposition convention throughout is sqrt(alpha)|psi0> +
sqrt(1-alpha)|psi1>, so alpha = 1 selects the first state of a pair and
alpha = 0 the second.  Convexity is decided literally against the chord
between the endpoint entropies, not via second differences.
"""

from __future__ import annotations

import functools
import math
import os
import threading
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .criterion import CriterionReport, criterion_report, refine_blocks_by_sector
from .spectra import (
    RANGE_TOL,
    SMALL_ROWS,
    GramBlocks,
    HermitianMatrix,
    _endpoint_blocks,
    cut_blocks,
    entropy_bits,
    gram_blocks,
    own_blocks,
    von_neumann_entropy,
)

DEFAULT_GRID_SIZE = 41
EXACT_CHORD_TOL = 1e-7  # closed-form models (angular)
QUADRATURE_CHORD_TOL = 1e-5  # quadrature / truncated-expansion models
# A curve point whose squared norm is this small a fraction of
# (sqrt(alpha)|c0| + sqrt(1-alpha)|c1|)^2 has cancelled: the rounding of
# the summed density terms grows, relative to the density, as the inverse
# of that fraction.  Over 20,000 random unit pairs each of 2 x 2, 3 x 3
# and 4 x 4 cancelling to this fraction at alpha = 1/2, that point stayed
# within 1.9e-13 bits of the Schmidt entropy; at 1e-3 it reached 2.0e-12.
CANCELLED_NORM2 = 1e-2


@dataclass(frozen=True)
class Mirror:
    """A local symmetry T that maps the first state of a pair onto the second.

    c1 = T(c0) = sign * P K(c0) P^T.  K is complex conjugation when
    ``conj`` is set and the identity otherwise.  P is a real
    signed-permutation involution that acts alike on both parties:
    ``flip(n)`` gives the image of each of n basis indices (None: no
    permutation), and ``parity(n)`` the sign, +1 or -1, that each image
    carries (None: all +1).  T maps M to -M, and it maps c1 back onto c0,
    since P^2 = K^2 = 1 and sign^2 = 1.  Being local, it keeps every
    entanglement spectrum, so a mirror pair has S(alpha) = S(1 - alpha)
    and S1 = S0.  Every sign is applied exactly, with no negative zeros.
    The oscillator's P is diag((-1)^ky), with no conjugation, exact in its
    phase gauge (:mod:`entconvex.oscillator`); only LG conjugates.
    """

    sign: int
    conj: bool
    flip: Callable[[int], np.ndarray] | None
    parity: Callable[[int], np.ndarray] | None = None

    def __call__(self, c0: np.ndarray) -> np.ndarray:
        c = c0.conj() if self.conj else c0
        if self.flip is not None:
            c = c[np.ix_(self.flip(c.shape[0]), self.flip(c.shape[1]))]
        # every sign in place on the one image array; 0.0 - c, not -c: a
        # directly built state holds no negative zeros
        if self.parity is not None:
            negate = np.outer(self.parity(c.shape[0]), self.parity(c.shape[1])) != self.sign
            c = c.copy() if np.may_share_memory(c, c0) else c
            np.subtract(0.0, c, out=c, where=negate)
        elif self.sign < 0:
            c = np.subtract(0.0, c, out=None if np.may_share_memory(c, c0) else c)
        c.setflags(write=False)
        return c


@dataclass(frozen=True)
class PairSpec:
    """A degenerate pair given by the amplitude matrices (c0, c1) of its states.

    ``amplitudes()`` returns the two matrices over a common product basis
    (rows: the kept particle or coordinate, columns: the traced one).  It
    is called on demand, so building a pair does no model work, and the
    models memoize the arrays.  ``sector_operator`` is the kept particle's
    L_z on the rows, dense, or None; its sectors restrict S_NS.  Each
    state's reduced density commutes with it, a superposition of two M's
    not: spherium's l_z exactly, the oscillator's truncated L_z up to
    entries of 3.6e-6 to 8.3e-5 in table 2, each touching a shell kx + ky > 13.

    ``mirror`` declares a mirror pair, c1 = mirror(c0) (:class:`Mirror`).
    Only the pair factories set it, and they then build c1 from c0 through
    it, so the declaration cannot disagree with the amplitudes.  The curve
    then solves only the grid points with alpha <= 1/2, and the criterion
    takes S1 = S0.
    """

    amplitudes: Callable[[], tuple[np.ndarray, np.ndarray]]
    label: str
    exact: bool = False
    sector_operator: np.ndarray | None = field(default=None, compare=False)
    mirror: Mirror | None = field(default=None, compare=False)

    @property
    def chord_tol(self) -> float:
        return EXACT_CHORD_TOL if self.exact else QUADRATURE_CHORD_TOL

    def builder(self, alpha: float) -> HermitianMatrix:
        """Dense reduced density of one state: c0 at alpha = 1, c1 at alpha = 0.

        Only the projector probe reads a dense density, and only at an
        endpoint; any other alpha raises ``ValueError``.  c c^dagger, one
        block, is normalized by :func:`entconvex.spectra._endpoint_blocks`,
        as :meth:`entconvex.spectra.GramBlocks.endpoint` normalizes its
        blocks, so the result does not depend on the scale of c.  The
        density at an interior alpha comes from
        :func:`entconvex.spectra.gram_blocks`, as the curve forms it.
        """
        if alpha not in (0.0, 1.0):
            raise ValueError(f"the dense density exists only for an endpoint, alpha 1 or 0: {alpha!r}")
        c = np.asarray(self.amplitudes()[0 if alpha == 1.0 else 1], dtype=complex)
        (rho,) = _endpoint_blocks([(c @ c.conj().T)[None]], np.sum(np.abs(c) ** 2))
        return HermitianMatrix(rho[0])


@dataclass(frozen=True)
class EntropyCurve:
    """Entropies in bits on an alpha grid, and how the grid was solved."""

    alphas: tuple[float, ...]
    entropies: tuple[float, ...]
    s0: float  # entropy at alpha = 1 (first state)
    s1: float  # entropy at alpha = 0 (second state)
    block_sizes: tuple[int, ...] = ()  # rows per density block (gram_blocks)
    offblock_dropped: float = 0.0  # largest dropped inter-block link, relative
    solved_sizes: tuple[int, ...] = ()  # matrix size solved per block-size group
    solved_points: int = 0  # grid points eigen-solved; a mirror pair's others are mirrored
    range_dropped: float = 0.0  # largest left-out eigenvalue of c0c0^dagger + c1c1^dagger, relative
    imag_dropped: float = 0.0  # largest dropped imaginary term entry, relative to its rounding bound
    exchange_dropped: float = 0.0  # largest accepted exchange defect, relative to its rounding bound

    def __post_init__(self):
        if len(self.alphas) != len(self.entropies):
            raise ValueError("grid/entropy length mismatch")
        e = np.asarray(self.entropies, dtype=float)
        if not np.all(np.isfinite(e) & (e >= -1e-12)):
            raise ValueError("entropies must be finite and non-negative")
        if abs(self.entropies[0] - self.s1) > 1e-8 or abs(self.entropies[-1] - self.s0) > 1e-8:
            raise ValueError("endpoint entropies inconsistent with curve")

    def chord(self) -> np.ndarray:
        a = np.asarray(self.alphas)
        return a * self.s0 + (1.0 - a) * self.s1


@dataclass(frozen=True)
class ConvexityLabel:
    label: str  # convex | concave | linear | indefinite
    max_deviation: float  # largest |S - chord| over the grid

    def __post_init__(self):
        if self.label not in {"convex", "concave", "linear", "indefinite"}:
            raise ValueError(f"unknown label {self.label!r}")


def entropy_curve(
    pair: PairSpec,
    grid_size: int = DEFAULT_GRID_SIZE,
    *,
    gram: GramBlocks | None = None,
) -> EntropyCurve:
    """Uniform alpha grid of von Neumann entropies for a pair, in bits.

    The reduced density of sqrt(alpha) c0 + sqrt(1-alpha) c1 is
    alpha c0c0^dagger + (1-alpha) c1c1^dagger + sqrt(alpha(1-alpha)) X with
    X = c0c1^dagger + c1c0^dagger, divided by its trace, the squared norm
    of the superposition.  The three terms per amplitude block come from
    :func:`entconvex.spectra.gram_blocks`; ``gram`` passes them in, as
    :func:`criterion_vs_observation` does with its criterion's trace-out.
    A sector operator only coarsens the blocks: with or without it, the
    entropies agree up to rounding.

    Every such density is C C^dagger with C = sqrt(alpha) c0 +
    sqrt(1-alpha) c1, so its range lies in that of S = c0c0^dagger +
    c1c1^dagger.  Each size group of blocks larger than ``SMALL_ROWS``
    rows (spherium's, LG's 32) is therefore solved on Q^dagger T Q, Q the
    top r eigenvectors of S per block: r is the largest count, over the
    group, of eigenvalues above ``RANGE_TOL`` times the block's largest,
    and a group with r equal to its size is solved as it is.  Smaller
    blocks (every angular pair, table 1's) are solved as they are: for
    them the step costs more than it saves (the small-pair rule,
    ``entconvex.spectra.SMALL_ROWS``).  S is eigen-solved on its own exact
    blocks (:func:`_eigh_own`).  This loses at most the projection onto
    the dropped directions P: by Cauchy interlacing the kept eigenvalues
    only rise from the compressed to the full density, and both their
    total rise and the dropped eigenvalues are bounded by
    tr(P^dagger rho P) <= 2 tr(P^dagger S P) / |psi(alpha)|^2, since
    C C^dagger <= 2 (alpha c0c0^dagger + (1-alpha) c1c1^dagger).  Each
    dropped eigenvalue of S is at most ``range_dropped`` times its block's
    largest, so the bound is at most 2 (size - r) ``RANGE_TOL`` |S| /
    |psi(alpha)|^2: about 1e-14 for a block of 128, far below
    ``SUPPORT_FLOOR``.

    A size group of complex terms whose imaginary entries all lie within
    the rounding of their products, |Im T_ij| <= gamma_(K+1) d_i d_j for K
    the traced dimension (:func:`_imag_ratio`), is solved on the real parts
    of its terms, range step included.  By Weyl each eigenvalue then moves
    by at most |Im T(alpha)|_2, no more than the rounding the complex
    products already carry, so no tolerance is added; ``imag_dropped`` is
    the largest such ratio, 0 when no group was solved real.  Every LG
    group is real this way, since the profile's imaginary part is odd in
    y: its ratios stay below 0.006.  Real terms skip the check.

    Identical particles halve the solve where they can.  When both states
    are exchange-symmetric or -antisymmetric with one sign, c = +-c^T,
    and the columns of block b are the rows of blocks P that touch only
    b's rows, then C[P, b] = +-C[b, P]^T for every superposition C, so
    P's density and b's share their nonzero spectrum.  ``gram.repeats``
    (:func:`entconvex.spectra.exchange_repeats`) counts each block's
    eigenvalues 2, 0 or 1 times; only the blocks counted at least once
    are gathered, checked for imaginary parts, compressed onto their
    range and solved, and each solved block's eigenvalues are repeated as
    often as they count before the entropy is taken.  Spherium M = +-1
    solves blocks 121 and 132 for 121 <-> 132 and 132 <-> 1 + 143.  The
    exchange holds to rounding only: a pair is taken only while its
    defect, by Weyl, moves no eigenvalue by more than the rounding of
    solving the stood-in side directly, and ``exchange_dropped`` is the
    largest such bound over that rounding (0 when no pair or an exact
    exchange).

    The whole grid's eigenvalues then come from batched ``eigvalsh`` calls
    over equal-size blocks.  A call holds at most max(dim**2, 2**16)
    entries, so a small density takes several grid points per call.  Only
    eigenvalues are computed.  When some size group needs more than one
    call, the calls run on every usable CPU (:func:`_solve_on_all_cpus`),
    at most one in flight per thread; each is the same ``eigvalsh`` of the
    same input as in the serial loop, so every entropy is bitwise the
    serial loop's.  Otherwise the calling thread solves the grid alone.
    The helpers assume a single-threaded BLAS: at OpenBLAS's default
    count they compete with its own threads (see the README).

    Summing the terms after the products costs relative accuracy of order
    (norm of the parts / norm of the superposition)^2 where the two states
    nearly cancel; a point that cancels below ``CANCELLED_NORM2`` raises.

    A mirror pair (``pair.mirror``) has S(alpha) = S(1 - alpha), so only
    the first ceil(grid_size / 2) points, those with alpha <= 1/2, are
    solved, and the point at 1 - alpha takes the entropy of the one at
    alpha.  The cancellation check still covers the whole grid.

    The grid, its coefficients per point and the ``alphas`` tuple are
    formed once per grid size and shared, read-only (:func:`_grid`).
    """
    if grid_size < 5:
        raise ValueError("grid size must be at least 5")
    gram = gram_blocks(*pair.amplitudes(), pair.sector_operator) if gram is None else gram
    alphas, coef, grid = _grid(grid_size)
    n00, n11, _ = gram.norms  # traces of the three terms
    norm2 = coef @ np.array(gram.norms)
    parts2 = (np.sqrt(alphas * n00) + np.sqrt((1.0 - alphas) * n11)) ** 2
    if np.any(norm2 <= CANCELLED_NORM2 * parts2):
        raise ValueError("superposition vanishes")
    points = grid_size if pair.mirror is None else (grid_size + 1) // 2
    coef = coef[:points]
    weights, repeats, chunks, solved, range_dropped, imag_dropped = [], [], [], [], 0.0, 0.0
    for rows, terms, repeat in _counted_groups(gram):
        if np.iscomplexobj(terms):
            ratio = _imag_ratio(terms, gram.traced)
            if ratio <= 1.0:
                terms = np.ascontiguousarray(terms.real)
                imag_dropped = max(imag_dropped, ratio)
        if rows.shape[1] > SMALL_ROWS:
            terms, dropped = _on_range(terms)
            range_dropped = max(range_dropped, dropped)
        size = terms.shape[-1]
        solved.append(size)
        # grid points per call: up to max(dim**2, 2**16) entries
        step = max(1, (gram.dim // size) ** 2 // len(rows), 2**16 // (len(rows) * size * size))
        weights.append(np.empty((points, len(rows) * size)))
        repeats.append(repeat)
        chunks += [(coef[i:i + step], terms, weights[-1][i:i + step]) for i in range(0, points, step)]
    if len(chunks) > len(weights):  # some group needs more than one call
        _solve_on_all_cpus(chunks)
    else:
        for chunk in chunks:
            _solve_chunk(*chunk)
    weights = [_repeated(w, repeat) for w, repeat in zip(weights, repeats)]
    ents = entropy_bits(np.concatenate(weights, axis=1) / norm2[:points, None]).tolist()
    if points < grid_size:  # a mirror pair: the point at 1 - alpha takes the entropy at alpha
        ents += ents[grid_size - points - 1::-1]
    return EntropyCurve(
        alphas=grid,
        entropies=tuple(ents),
        s0=ents[-1],
        s1=ents[0],
        block_sizes=gram.block_sizes,
        offblock_dropped=gram.dropped,
        solved_sizes=tuple(solved),
        solved_points=points,
        range_dropped=range_dropped,
        imag_dropped=imag_dropped,
        exchange_dropped=gram.exchange_dropped,
    )


@functools.cache
def _grid(grid_size: int) -> tuple[np.ndarray, np.ndarray, tuple[float, ...]]:
    """The uniform alpha grid, its coefficients (alpha, 1 - alpha, sqrt(alpha (1 - alpha))) per
    point, shape (grid_size, 3), both read-only, and the grid as a tuple.

    Formed once per grid size and kept for the life of the process: a
    run uses one or two sizes, each O(grid_size).
    """
    alphas = np.linspace(0.0, 1.0, grid_size)
    coef = np.stack([alphas, 1.0 - alphas, np.sqrt(alphas * (1.0 - alphas))], axis=1)
    alphas.setflags(write=False)
    coef.setflags(write=False)
    return alphas, coef, tuple(alphas.tolist())


def _counted_groups(gram: GramBlocks):
    """Each size group's rows and terms cut to the blocks whose eigenvalues count, and their repeats.

    Repeats are None where no block pairs; a group whose blocks all stand
    in for their exchange partners is left out (``GramBlocks.repeats``).
    """
    for (rows, terms), repeat in zip(gram.groups, gram.repeats or (None,) * len(gram.groups)):
        if repeat is not None:
            kept = repeat > 0
            if not kept.any():
                continue
            if not kept.all():
                rows, terms, repeat = rows[kept], terms[:, kept], repeat[kept]
        yield rows, terms, repeat


def _repeated(w: np.ndarray, repeat: np.ndarray | None) -> np.ndarray:
    """A group's eigenvalues per grid point, shape (points, blocks * size), each block's ``repeat`` times."""
    if repeat is None:
        return w
    return np.repeat(w.reshape(len(w), len(repeat), -1), repeat, axis=1).reshape(len(w), -1)


def _solve_chunk(coef: np.ndarray, terms: np.ndarray, out: np.ndarray) -> None:
    """One ``eigvalsh`` call: a size group's eigenvalues at the grid points ``coef``, into ``out``."""
    mats = (coef @ terms.reshape(3, -1)).reshape(len(coef), *terms.shape[1:])
    out[...] = np.linalg.eigvalsh(mats).reshape(len(coef), -1)


def _drain(queue: deque) -> None:
    """Solve chunks from ``queue`` (:func:`_solve_chunk`) until it is empty."""
    while True:
        try:
            chunk = queue.popleft()
        except IndexError:
            return
        _solve_chunk(*chunk)


def _solve_on_all_cpus(chunks: list) -> None:
    """Solve a grid's chunks in the calling thread and its grid helpers, largest first.

    One queue holds the chunks, ordered by points x size**3; the caller
    and one helper thread per further usable CPU (:func:`_usable_cpus`),
    started here and joined before this returns, take chunks from it until
    it is empty, each chunk's product and ``eigvalsh`` in the thread
    that took it.  numpy releases the GIL in both.  A failed chunk empties
    the queue, so every thread stops after its current chunk, and the
    first error is raised once all have stopped.  With one usable CPU no
    thread is started.
    """
    queue = deque(sorted(chunks, key=lambda c: len(c[0]) * c[1].shape[-1] ** 3, reverse=True))
    errors = []

    def helper():
        try:
            _drain(queue)
        except Exception as error:  # raised by the caller once every thread has stopped
            queue.clear()
            errors.append(error)

    threads = [
        threading.Thread(target=helper, name="entconvex-grid", daemon=True)
        for _ in range(min(_usable_cpus() - 1, len(queue) - 1))
    ]
    for thread in threads:
        thread.start()
    try:
        _drain(queue)
    finally:
        queue.clear()  # after a failure the helpers stop at their current chunk
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, or ``os.cpu_count()`` where there is none."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _imag_ratio(terms: np.ndarray, traced: int) -> float:
    """The largest |Im T_ij| of a complex size group's three terms over its rounding bound.

    Each entry of the three terms sums ``traced`` complex products of row
    entries, so its computed value is off by at most gamma_(traced+1) d_i d_j,
    with gamma_n = n eps / (1 - n eps), eps the machine epsilon (twice the
    unit roundoff, which also covers the complex products' own rounding),
    and d_i = sqrt(T0_ii) + sqrt(T1_ii) the sum of row i's norms in c0 and
    c1: by Cauchy-Schwarz, d_i d_j bounds the sum of the moduli of the
    products behind entry ij of each term.  A ratio of at most 1 is an imaginary part that the
    products' rounding can hold; a nonzero entry whose bound is 0 gives
    inf.  See :func:`entropy_curve`.
    """
    n = (traced + 1) * np.finfo(float).eps
    diag = np.sqrt(np.diagonal(terms[:2], axis1=2, axis2=3).real).sum(axis=0)
    bound = n / (1.0 - n) * (diag[:, :, None] * diag[:, None, :])
    excess = np.abs(terms.imag)
    if bound.all():
        return float((excess / bound).max())
    past = np.where(excess > 0.0, math.inf, 0.0)  # where the bound is 0
    return float(np.divide(excess, bound, out=past, where=bound > 0.0).max())


def _on_range(terms: np.ndarray) -> tuple[np.ndarray, float]:
    """A size group's terms compressed onto the range of S = terms[0] + terms[1].

    Returns Q^dagger T Q for each term, shape (3, blocks, r, r), and the
    largest dropped eigenvalue of S relative to its block's largest (0
    when nothing is dropped); see :func:`entropy_curve`.  S is solved on
    its own exact blocks (:func:`_eigh_own`).
    """
    s, u = _eigh_own(terms[0] + terms[1])  # ascending per block
    top = s[:, -1:]
    size = s.shape[1]
    r = int(np.sum(s > RANGE_TOL * top, axis=1).max())
    if r == size:
        return terms, 0.0
    q = u[:, :, size - r:]
    dropped = max(float(np.max(s[:, size - r - 1] / top[:, 0])), 0.0)
    return q.conj().swapaxes(1, 2) @ terms @ q, dropped


def _eigh_own(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of a stack of Hermitian blocks, each solved on its own exact blocks.

    Where the rows carry an m1 label, c0c0^dagger and c1c1^dagger of two
    J_z eigenstates couple a row m1 only to rows of the same m1, and so
    does their sum: it is exactly zero between rows of different m1
    however the pair links them.  Each block is split into the connected
    components of its exact nonzero pattern
    (:func:`entconvex.spectra.own_blocks`), spherium's into parts of at
    most 11 rows, the oscillator's mirror blocks of 128 into the two of 64
    that its P's sectors give.  A stack with no zero entry, as LG's, is
    one ``eigh``, the same arithmetic as without the split.  The
    eigenvalues come ascending per block, as ``np.linalg.eigh`` gives them.
    """
    blocks, size = sym.shape[:2]
    layout = np.arange(blocks * size).reshape(blocks, size)  # a row of the stack as block * size + row
    parts = None if sym.all() else own_blocks([layout], [sym])
    if parts is None:
        return np.linalg.eigh(sym)
    w = np.empty((blocks, size))
    u = np.zeros_like(sym)
    for p, m in zip(parts, cut_blocks([layout], [sym], parts)):
        b, rows = p[:, :1] // size, p % size
        w[b, rows], u[b[:, :, None], rows[:, :, None], rows[:, None, :]] = np.linalg.eigh(m)
    order = np.argsort(w, axis=1)
    return np.take_along_axis(w, order, 1), np.take_along_axis(u, order[:, None, :], 2)


def classify_convexity(curve: EntropyCurve, tol: float) -> ConvexityLabel:
    """Chord comparison over the grid, ``tol`` in bits like the curve.

    convex: at least one point below the chord by more than tol, none
    above; concave symmetric; linear: neither side exceeds tol;
    indefinite: both sides do.
    """
    dev = np.asarray(curve.entropies) - curve.chord()
    below = bool(np.min(dev) < -tol)
    above = bool(np.max(dev) > tol)
    peak = float(np.max(np.abs(dev)))
    if below and above:
        return ConvexityLabel("indefinite", peak)
    if below:
        return ConvexityLabel("convex", peak)
    if above:
        return ConvexityLabel("concave", peak)
    return ConvexityLabel("linear", peak)


@dataclass(frozen=True)
class AgreementRecord:
    pair_label: str
    report: CriterionReport
    observed: ConvexityLabel
    agree: bool | None  # None when Q_c = 0 asserts nothing

    @property
    def asserted(self) -> bool:
        return self.agree is not None


def pair_criterion(pair: PairSpec) -> CriterionReport:
    """Criterion report with the first state (alpha = 1) as the reference.

    The endpoint densities come from the pair's own trace-out,
    :func:`entconvex.spectra.gram_blocks` of its amplitudes and sector
    operator, formed here.  The reference is eigen-solved block by block
    and, when the pair has a sector operator, refined by its sectors
    (:func:`entconvex.criterion.refine_blocks_by_sector`); only then are
    the partner's blocks formed.  The partner is solved for its entropy
    unless the pair is a mirror pair, whose S1 is S0.
    """
    return _criterion(pair, gram_blocks(*pair.amplitudes(), pair.sector_operator))


def _criterion(pair: PairSpec, gram: GramBlocks) -> CriterionReport:
    """:func:`pair_criterion` on ``gram``, the pair's own trace-out."""
    spec0 = gram.spectrum(gram.endpoint(0))
    if gram.sector is not None:
        spec0 = refine_blocks_by_sector(spec0, gram.restrict(gram.sector, spec0))
    rho1 = gram.endpoint(1)
    s1 = None if pair.mirror is not None else von_neumann_entropy(gram.spectrum(rho1))
    return criterion_report(spec0, gram.restrict(rho1, spec0), s1)


def criterion_vs_observation(pair: PairSpec, grid_size: int = DEFAULT_GRID_SIZE) -> AgreementRecord:
    """Evaluate the criterion on a pair and check it against the curve.

    Both read one trace-out of the pair, formed here.
    """
    gram = gram_blocks(*pair.amplitudes(), pair.sector_operator)
    report = _criterion(pair, gram)
    curve = entropy_curve(pair, grid_size, gram=gram)
    observed = classify_convexity(curve, pair.chord_tol)
    if report.qc == 0:
        agree = None
    else:
        agree = observed.label == ("convex" if report.qc > 0 else "concave")
    return AgreementRecord(pair.label, report, observed, agree)


# ---------------------------------------------------------------------------
# pair factories, one per model; each supplies only the two amplitude matrices
# and, for a mirror pair, the symmetry that maps the first onto the second


def _amplitudes(first, second, mirror):
    """A pair's ``amplitudes``: c0 = first(), and c1 = mirror(c0), or second() without a mirror."""
    if mirror is None:
        return lambda: (first(), second())

    def amplitudes():
        c0 = first()
        return c0, mirror(c0)

    return amplitudes


def angular_pair(l: int, L: int, M: int, Mprime: int | None = None) -> PairSpec:
    """|L, M> against |L, Mprime> (default -M) of two angular momenta l.

    With Mprime = -M != 0 it is a mirror pair: C(l,-m1; l,-m2; L,-M) =
    (-1)^(2l-L) C(l,m1; l,m2; L,M), so c1 is c0 with the rows and columns
    reversed (m -> -m), times (-1)^(2l-L).
    """
    from . import angular

    Mp = -M if Mprime is None else Mprime
    mirror = Mirror((-1) ** (2 * l - L), False, angular.mirror_rows) if Mp == -M != 0 else None
    return PairSpec(
        amplitudes=_amplitudes(
            lambda: angular.cg_matrix(l, L, M), lambda: angular.cg_matrix(l, L, Mp), mirror
        ),
        label=f"angular l={l} L={L} M={M}/{Mp}",
        exact=True,
        mirror=mirror,
    )


def oscillator_pair(state0, state1, basis=None) -> PairSpec:
    """Two degenerate oscillator eigenstates over one gauged Hermite basis.

    When state1 is state0 with m -> -m and p -> -p, and another state, it
    is a mirror pair.  The cylindrical modes of -m are the complex
    conjugates of those of m over the real Hermite basis; in the
    oscillator's phase gauge D = diag(i^(-ky)) (see
    :mod:`entconvex.oscillator`), where both states are real, that
    conjugation is D^2 = diag((-1)^ky), the reflection y -> -y.  So c1 =
    P c0 P^T with P = diag((-1)^ky) on both parties and no conjugation,
    which holds bitwise.

    The sector operator is particle 1's L_z; ``dataclasses.replace(pair,
    sector_operator=None)`` gives the unrestricted S_NS.
    """
    from . import oscillator

    if state0.lam != state1.lam:
        raise ValueError("states must share the coupling strength")
    if abs(state0.energy - state1.energy) > 1e-9:
        warnings.warn(
            f"superposed states are not degenerate: E0={state0.energy}, E1={state1.energy}",
            stacklevel=2,
        )
    image = oscillator.OscState(state0.n, -state0.m, state0.l, -state0.p, state0.lam)
    mirror = Mirror(1, False, None, oscillator.mirror_parity) if state1 == image != state0 else None
    return PairSpec(
        amplitudes=_amplitudes(
            lambda: oscillator.coefficient_tensor(state0, basis),
            lambda: oscillator.coefficient_tensor(state1, basis),
            mirror,
        ),
        label=f"oscillator {state0.label()}/{state1.label()}",
        sector_operator=oscillator.angular_momentum_matrix(basis),
        mirror=mirror,
    )


def spherium_pair(M: int, Mprime: int | None = None, lmax: int | None = None) -> PairSpec:
    """Two members M and Mprime (default -M) of the spherium L = 2 multiplet.

    The sector operator is electron 1's l_z; ``dataclasses.replace(pair,
    sector_operator=None)`` gives the unrestricted S_NS.

    With Mprime = -M != 0 it is a mirror pair: c1 is -P c0 P^T, with P
    sending the harmonic (l, m) to (l, -m).  The sign is (-1)^(l1+l2-L)
    of the coupled pair (1, 2; 2); the r12 factor keeps it, since each of
    its harmonic products has even l1 + l2 + L.
    """
    from . import spherium

    lm = spherium.DEFAULT_LMAX if lmax is None else lmax
    s0 = spherium.SpheriumState(M, lm)
    s1 = spherium.SpheriumState(-M if Mprime is None else Mprime, lm)
    sign = (-1) ** (spherium.COUPLED_L1 + spherium.COUPLED_L2 - spherium.TOTAL_L)
    mirror = Mirror(sign, False, spherium.mirror_rows) if s1.M == -M != 0 else None
    return PairSpec(
        amplitudes=_amplitudes(lambda: s0.coefficients(), lambda: s1.coefficients(), mirror),
        label=f"spherium M={s0.M}/{s1.M}",
        sector_operator=spherium.angular_momentum_diagonal(s0.lcut),
        mirror=mirror,
    )


def lg_pair(mode0, mode1, n_basis: int | None = None) -> PairSpec:
    """Two Laguerre-Gaussian modes over one x-basis and y-quadrature.

    When mode1 is mode0 with m -> -m, and another mode, it is a mirror
    pair: the profile's (x + i sgn(m) y)^|m| conjugates and the rest is
    real, so c1 = conj(c0).
    """
    from . import lgmodes

    nb = lgmodes.DEFAULT_BASIS_SIZE if n_basis is None else n_basis
    od = lgmodes.DEFAULT_QUADRATURE_ORDER
    image = lgmodes.LGMode(mode0.l, -mode0.m)
    mirror = Mirror(1, True, None) if mode1 == image != mode0 else None
    return PairSpec(
        amplitudes=_amplitudes(
            lambda: lgmodes.mode_columns(mode0.l, mode0.m, nb, od),
            lambda: lgmodes.mode_columns(mode1.l, mode1.m, nb, od),
            mirror,
        ),
        label=f"lg {mode0.label()}/{mode1.label()}",
        mirror=mirror,
    )
