"""Entropy-vs-alpha curves, chord convexity labels, criterion agreement.

The superposition convention throughout is sqrt(alpha)|psi0> +
sqrt(1-alpha)|psi1>, so alpha = 1 selects the first state of a pair and
alpha = 0 the second.  Convexity is decided literally against the chord
between the endpoint entropies, not via second differences.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .criterion import CriterionReport, criterion_report
from .spectra import (
    EIGENVALUE_FLOOR,
    LN2,
    RANGE_TOL,
    SUPPORT_FLOOR,
    UNIT_NORM_TOL,
    GramBlocks,
    HermitianMatrix,
    NotDensityMatrixError,
    gram_blocks,
    reduce_pure_state,
    von_neumann_entropy,
)

DEFAULT_GRID_SIZE = 41
EXACT_CHORD_TOL = 1e-7  # closed-form models (angular)
QUADRATURE_CHORD_TOL = 1e-5  # quadrature / truncated-expansion models
VANISHING_NORM = 1e-12  # superposition norm below which there is no state
# A curve point whose squared norm is this small a fraction of
# (sqrt(alpha)|c0| + sqrt(1-alpha)|c1|)^2 has cancelled: the rounding of
# the summed density terms grows, relative to the density, as the inverse
# of that fraction.
CANCELLED_NORM2 = 1e-12


@dataclass(frozen=True)
class PairSpec:
    """A degenerate pair given by the amplitude matrices (c0, c1) of its states.

    ``amplitudes()`` returns the two matrices over a common product basis
    (rows: the kept particle or coordinate, columns: the traced one).  It
    is called on demand, so building a pair does no model work, and the
    models memoize the arrays.
    """

    amplitudes: Callable[[], tuple[np.ndarray, np.ndarray]]
    label: str
    exact: bool = False
    sector_operator: np.ndarray | None = field(default=None, compare=False)

    @property
    def chord_tol(self) -> float:
        return EXACT_CHORD_TOL if self.exact else QUADRATURE_CHORD_TOL

    def builder(self, alpha: float) -> HermitianMatrix:
        """Reduced density of the normalized sqrt(alpha) c0 + sqrt(1-alpha) c1."""
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        c0, c1 = self.amplitudes()
        if c0.shape != c1.shape:
            raise ValueError(f"amplitude shapes differ: {c0.shape} != {c1.shape}")
        c = np.asarray(math.sqrt(alpha) * c0 + math.sqrt(1.0 - alpha) * c1, dtype=complex)
        norm = float(np.linalg.norm(c))
        if norm < VANISHING_NORM:
            raise ValueError("superposition vanishes")
        # overlapping or unnormalized states; a unit-norm superposition is
        # passed as is, because dividing it by its norm moves rho by an ulp
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            c = c / norm
        return reduce_pure_state(c)


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
    range_dropped: float = 0.0  # largest left-out eigenvalue of c0c0^dagger + c1c1^dagger, relative

    def __post_init__(self):
        if len(self.alphas) != len(self.entropies):
            raise ValueError("grid/entropy length mismatch")
        if any(not np.isfinite(s) or s < -1e-12 for s in self.entropies):
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
    :func:`entconvex.spectra.gram_blocks`, the trace-out that
    :func:`pair_criterion` reads too; ``gram`` passes them in when the
    caller already has them.

    Every such density is C C^dagger with C = sqrt(alpha) c0 +
    sqrt(1-alpha) c1, so its range lies in that of S = c0c0^dagger +
    c1c1^dagger.  Each size group of blocks larger than one row is
    therefore solved on Q^dagger T Q, Q the top r eigenvectors of S per
    block: r is the largest count, over the group, of eigenvalues above
    ``RANGE_TOL`` times the block's largest, and a group with r equal to
    its size is solved as it is.  This loses at most the projection onto
    the dropped directions P: by Cauchy interlacing the kept eigenvalues
    only rise from the compressed to the full density, and both their
    total rise and the dropped eigenvalues are bounded by
    tr(P^dagger rho P) <= 2 tr(P^dagger S P) / |psi(alpha)|^2, since
    C C^dagger <= 2 (alpha c0c0^dagger + (1-alpha) c1c1^dagger).  Each
    dropped eigenvalue of S is at most ``range_dropped`` times its block's
    largest, so the bound is at most 2 (size - r) ``RANGE_TOL`` |S| /
    |psi(alpha)|^2: about 1e-14 for a block of 128, far below
    ``SUPPORT_FLOOR``.

    The whole grid's eigenvalues then come from batched ``eigvalsh`` calls
    over equal-size blocks.  A call holds at most max(dim**2, 2**16)
    entries, so a small density takes several grid points per call.  Only
    eigenvalues are computed.

    Summing the terms after the products costs relative accuracy of order
    (norm of the parts / norm of the superposition)^2 where the two states
    nearly cancel; a point that cancels below ``CANCELLED_NORM2`` raises.
    """
    if grid_size < 5:
        raise ValueError("grid size must be at least 5")
    gram = gram_blocks(*pair.amplitudes()) if gram is None else gram
    alphas = np.linspace(0.0, 1.0, grid_size)
    coef = np.stack([alphas, 1.0 - alphas, np.sqrt(alphas * (1.0 - alphas))], axis=1)
    n00, n11, _ = gram.norms  # traces of the three terms
    norm2 = coef @ np.array(gram.norms)
    parts2 = (np.sqrt(alphas * n00) + np.sqrt((1.0 - alphas) * n11)) ** 2
    if np.any(norm2 <= CANCELLED_NORM2 * parts2):
        raise ValueError("superposition vanishes")
    weights, solved, range_dropped = [], [], 0.0
    for rows, terms in gram.groups:
        if rows.shape[1] > 1:
            terms, dropped = _on_range(terms)
            range_dropped = max(range_dropped, dropped)
        size = terms.shape[-1]
        solved.append(size)
        # grid points per call: up to max(dim**2, 2**16) entries
        step = max(1, (gram.dim // size) ** 2 // len(rows), 2**16 // (len(rows) * size * size))
        w = [
            np.linalg.eigvalsh(np.tensordot(coef[i:i + step], terms, axes=1))
            for i in range(0, grid_size, step)
        ]
        weights.append(np.concatenate(w).reshape(grid_size, -1))
    w = np.concatenate(weights, axis=1) / norm2[:, None]
    if w.min() < EIGENVALUE_FLOOR:
        raise NotDensityMatrixError(f"negative eigenvalue {w.min():.3e}")
    support = w > SUPPORT_FLOOR
    nats = -np.sum(w * np.log(np.where(support, w, 1.0)), axis=1)
    ents = [max(float(s) / LN2, 0.0) for s in nats]
    return EntropyCurve(
        alphas=tuple(float(a) for a in alphas),
        entropies=tuple(ents),
        s0=ents[-1],
        s1=ents[0],
        block_sizes=gram.block_sizes,
        offblock_dropped=gram.dropped,
        solved_sizes=tuple(solved),
        range_dropped=range_dropped,
    )


def _on_range(terms: np.ndarray) -> tuple[np.ndarray, float]:
    """A size group's terms compressed onto the range of terms[0] + terms[1].

    Returns Q^dagger T Q for each term, shape (3, blocks, r, r), and the
    largest dropped eigenvalue of terms[0] + terms[1] relative to its
    block's largest (0 when nothing is dropped); see :func:`entropy_curve`.
    """
    s, u = np.linalg.eigh(terms[0] + terms[1])  # ascending per block
    top = s[:, -1:]
    size = s.shape[1]
    r = int(np.sum(s > RANGE_TOL * top, axis=1).max())
    if r == size:
        return terms, 0.0
    q = u[:, :, size - r:]
    dropped = max(float(np.max(s[:, size - r - 1] / top[:, 0])), 0.0)
    return q.conj().swapaxes(1, 2) @ terms @ q, dropped


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


def pair_criterion(pair: PairSpec, *, gram: GramBlocks | None = None) -> CriterionReport:
    """Criterion report with the first state (alpha = 1) as the reference.

    The endpoint densities come from the pair's amplitude blocks
    (:func:`entconvex.spectra.gram_blocks`; ``gram`` passes them in when
    the caller already has them) and are eigen-solved block by block.  The
    pair's sector operator, if any, restricts the not-shared-entropy
    minimization (see :func:`entconvex.criterion.criterion_report`).
    """
    gram = gram_blocks(*pair.amplitudes()) if gram is None else gram
    spec1, rho1 = gram.endpoint(1)
    s1 = von_neumann_entropy(spec1)
    del spec1  # only its entropy is read: drop its eigenvectors before the reference's
    spec0 = gram.endpoint(0)[0]
    return criterion_report(spec0, rho1, s1, pair.sector_operator)


def criterion_vs_observation(pair: PairSpec, grid_size: int = DEFAULT_GRID_SIZE) -> AgreementRecord:
    """Evaluate the criterion on a pair and check it against the curve.

    Both read one trace-out of the pair.
    """
    gram = gram_blocks(*pair.amplitudes())
    report = pair_criterion(pair, gram=gram)
    curve = entropy_curve(pair, grid_size, gram=gram)
    observed = classify_convexity(curve, pair.chord_tol)
    if report.qc == 0:
        agree = None
    else:
        agree = observed.label == ("convex" if report.qc > 0 else "concave")
    return AgreementRecord(pair.label, report, observed, agree)


# ---------------------------------------------------------------------------
# pair factories, one per model; each supplies only the two amplitude matrices


def angular_pair(l: int, L: int, M: int, Mprime: int | None = None) -> PairSpec:
    from . import angular

    Mp = -M if Mprime is None else Mprime
    return PairSpec(
        amplitudes=lambda: (angular.cg_matrix(l, L, M), angular.cg_matrix(l, L, Mp)),
        label=f"angular l={l} L={L} M={M}/{Mp}",
        exact=True,
    )


def oscillator_pair(state0, state1, basis=None, use_sectors: bool = True) -> PairSpec:
    from . import oscillator

    if state0.lam != state1.lam:
        raise ValueError("states must share the coupling strength")
    if abs(state0.energy - state1.energy) > 1e-9:
        warnings.warn(
            f"superposed states are not degenerate: E0={state0.energy}, E1={state1.energy}",
            stacklevel=2,
        )
    sector = oscillator.angular_momentum_matrix(basis) if use_sectors else None
    return PairSpec(
        amplitudes=lambda: (
            oscillator.coefficient_tensor(state0, basis),
            oscillator.coefficient_tensor(state1, basis),
        ),
        label=f"oscillator {state0.label()}/{state1.label()}",
        sector_operator=sector,
    )


def spherium_pair(
    M: int,
    Mprime: int | None = None,
    lmax: int | None = None,
    use_sectors: bool = True,
) -> PairSpec:
    from .spherium import DEFAULT_LMAX, SpheriumState, angular_momentum_diagonal

    lm = DEFAULT_LMAX if lmax is None else lmax
    s0 = SpheriumState(M, lm)
    s1 = SpheriumState(-M if Mprime is None else Mprime, lm)
    sector = angular_momentum_diagonal(s0.lcut) if use_sectors else None
    return PairSpec(
        amplitudes=lambda: (s0.coefficients(), s1.coefficients()),
        label=f"spherium M={s0.M}/{s1.M}",
        sector_operator=sector,
    )


def lg_pair(mode0, mode1, n_basis: int | None = None) -> PairSpec:
    from . import lgmodes

    nb = lgmodes.DEFAULT_BASIS_SIZE if n_basis is None else n_basis
    od = lgmodes.DEFAULT_QUADRATURE_ORDER
    return PairSpec(
        amplitudes=lambda: (
            lgmodes.mode_columns(mode0.l, mode0.m, nb, od),
            lgmodes.mode_columns(mode1.l, mode1.m, nb, od),
        ),
        label=f"lg {mode0.label()}/{mode1.label()}",
    )
