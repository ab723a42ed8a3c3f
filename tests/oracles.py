"""Slow reference implementations that tests compare the package against,
analytic checks of the model constructions, and the zero padding that
lifts a small test input past the small-pair rule (:func:`above_small_rows`)."""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import sph_harm_y

from entconvex.angular import AngularConfig, cg
from entconvex.criterion import (
    BIAS_STRENGTH,
    SECTOR_TOL,
    CriterionReport,
    ProbeRecord,
    balanced_eigenbasis,
    criterion_qc,
    criterion_report,
    refine_blocks_by_sector,
)
from entconvex.lgmodes import (
    DEFAULT_BASIS_SIZE,
    DEFAULT_QUADRATURE_ORDER,
    LGMode,
    _mode_profile,
    lg_evaluate,
)
from entconvex.oscillator import (
    OscBasisSpec,
    OscState,
    _ladder_matrices,
    coefficient_tensor,
    gauge_phases,
    gauss_hermite,
    hermite_functions,
    kappa_coefficients,
    omega_relative,
)
from entconvex.spectra import (
    BLOCK_LINK_TOL,
    EXCHANGE_MIN_ROWS,
    LN2,
    RANGE_TOL,
    SMALL_ROWS,
    SUPPORT_FLOOR,
    GramBlocks,
    HermitianMatrix,
    Spectrum,
    eigendecompose,
    eigh_blocks,
    entropy_bits,
    exchange_repeats,
    gap_clusters,
    gram_blocks,
    size_groups,
    von_neumann_entropy,
)
from entconvex.spherium import (
    CORRELATION_SCALE,
    COUPLED_L1,
    COUPLED_L2,
    ENERGY,
    SPHERE_RADIUS_SQ,
    TOTAL_L,
    _index,
    basis_size,
)
from entconvex.sweep import (
    CANCELLED_NORM2,
    DEFAULT_GRID_SIZE,
    EntropyCurve,
    _counted_groups,
    _imag_ratio,
    _on_range,
    _repeated,
)


UNIT_NORM_TOL = 1e-6  # an amplitude norm within this of 1 counts as unit norm
VANISHING_NORM = 1e-12  # superposition norm below which there is no state


def theta(x: float) -> float:
    """Ramp function x * heaviside(x): x for x > 0, else 0."""
    return x if x > 0.0 else 0.0


def reconstruct(spec: Spectrum) -> np.ndarray:
    """The matrix sum_i lambda_i |v_i><v_i| of a spectrum."""
    v = spec.eigenvectors
    return (v * spec.eigenvalues) @ v.conj().T


def reduce_pure_state(c: np.ndarray) -> HermitianMatrix:
    """Density of side A (the rows) of the unit-norm pure state with amplitudes ``c``.

    The entries are ``rho_{a a'} = sum_b c_{a b} conj(c_{a' b}) / <c|c>``;
    side B's density is ``reduce_pure_state(c.T)``.  Divided by <c|c>, then
    by the trace, so the density check sees unit trace to rounding: the
    order that :func:`superposition_density`, ``PairSpec.builder`` and
    ``GramBlocks.endpoint`` keep to the bit.
    """
    a = np.asarray(c, dtype=complex)
    if a.ndim != 2:
        raise ValueError("amplitudes must be a 2-d array")
    norm = float(np.linalg.norm(a))
    if abs(norm - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"amplitude norm {norm!r} deviates from 1 beyond {UNIT_NORM_TOL}")
    rho = a @ a.conj().T / np.sum(np.abs(a) ** 2)
    rho = rho / np.real(np.trace(rho))
    return HermitianMatrix(rho)


def superposition_density(pair, alpha: float) -> HermitianMatrix:
    """Dense reduced density of the normalized sqrt(alpha) c0 + sqrt(1-alpha) c1.

    The dense trace-out oracle of every alpha.  c c^dagger is divided by
    sum |c|^2, then by its trace; at alpha 1 and 0 this is
    ``PairSpec.builder``'s arithmetic to the bit.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    c0, c1 = pair.amplitudes()
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
    rho = c @ c.conj().T / np.sum(np.abs(c) ** 2)
    return HermitianMatrix(rho / np.real(np.trace(rho)))


def above_small_rows(*cs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Amplitudes ``cs`` padded with rows of zeros to ``SMALL_ROWS`` + 1 rows.

    Square ones get as many columns of zeros, so they stay square, rows
    and columns over one basis.  Each zero row is a block of one row
    with no eigenvalue, so the pair keeps its blocks beside these, its
    exchange pairs and every entropy, but takes the path of pairs above
    ``SMALL_ROWS`` rows: the link graph and the exchange search.
    Read-only inputs give read-only copies, which the memo stores.
    """
    out = []
    for c in cs:
        pad = max(SMALL_ROWS + 1 - c.shape[0], 0)
        wide = np.pad(c, ((0, pad), (0, pad if c.shape[0] == c.shape[1] else 0)))
        wide.setflags(write=c.flags.writeable)
        out.append(wide)
    return tuple(out)


def components_by_search(linked: np.ndarray) -> list[np.ndarray]:
    """Connected components of a symmetric boolean link matrix, ordered by first index.

    A frontier search from every row not yet seen, singletons included: the
    oracle of :func:`entconvex.spectra.components`, whose pattern P links
    the rows of P P^T > 0.
    """
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


def gram_blocks_unmemoized(c0: np.ndarray, c1: np.ndarray, sector: np.ndarray | None = None) -> GramBlocks:
    """The trace-out as :func:`entconvex.spectra.gram_blocks` formed it for
    every pair before the per-state memo and before its search by the exact
    pattern's components: |c|, sum |c|^2 and both own terms formed here, G
    = (|c0| + |c1|)(|c0| + |c1|)^T over every row and column, and the
    blocks always found by :func:`components_by_search`, one block
    included.  Each own term runs over the columns its state touches on
    the group's rows, and the cross term over those both touch, when that
    is fewer than all.  Exchange pairs are sought as the trace-out seeks
    them, with |c0| + |c1| as the support.  The oracle of the memo, of the
    one-block exit and of the two-level search."""
    a = np.abs(c0)
    n0 = np.sum(a ** 2)
    b = np.abs(c1)
    n1 = np.sum(b ** 2)
    a += b
    g = a @ a.T
    top = float(g.max())
    linked = g > BLOCK_LINK_TOL * top
    blocks = components_by_search(linked if sector is None else linked | (sector != 0))
    sizes = [len(b) for b in blocks]
    label = np.empty(len(g), dtype=np.intp)
    label[np.concatenate(blocks)] = np.repeat(np.arange(len(blocks)), sizes)
    np.putmask(g, label[:, None] == label, 0.0)
    dropped = float(g.max()) / top if top > 0.0 else 0.0
    groups = []
    n01 = 0.0
    layout = size_groups(blocks)
    for rows in layout:
        a0, a1 = c0[rows], c1[rows]
        t0, t1 = a0.any(axis=(0, 1)), a1.any(axis=(0, 1))
        pairs = ((a0, t0), (a1, t1), (a0, t0 & t1), (a1, t0 & t1))
        x0, x1, y0, y1 = (a if t.all() else np.compress(t, a, axis=2) for a, t in pairs)
        cross = y0 @ y1.conj().swapaxes(1, 2)
        x = cross + cross.conj().swapaxes(1, 2)
        n01 += float(np.trace(x, axis1=1, axis2=2).real.sum())
        groups.append((rows, np.stack([x0 @ x0.conj().swapaxes(1, 2), x1 @ x1.conj().swapaxes(1, 2), x])))
    op = None if sector is None else tuple(sector[rows[:, :, None], rows[:, None, :]] for rows, _ in groups)
    repeats, exchange = None, 0.0
    square = len(c0) == c0.shape[1]
    if not (c0.all() and c1.all()) and len(blocks) > 1 and max(sizes) >= EXCHANGE_MIN_ROWS and square:
        counts, exchange = exchange_repeats(c0, c1, a, label, len(blocks))
        if counts is not None:
            repeats = tuple(counts[label[rows[:, 0]]] for rows in layout)
    return GramBlocks(tuple(groups), tuple(sizes), dropped, len(g), c0.shape[1], (n0, n1, n01), op,
                      repeats=repeats, exchange_dropped=exchange)


def pair_block_criterion(pair, gram: GramBlocks) -> CriterionReport:
    """The criterion on the pair's own amplitude blocks, as
    :func:`entconvex.sweep.pair_criterion` formed it before the reference
    was split on its own exact blocks: each pair block of rho0 solved whole
    (:func:`eigh_blocks`), refined by the sector operator's pair blocks,
    and the partner weights read off rho1's whole pair blocks.  The oracle
    of :meth:`entconvex.spectra.GramBlocks.spectrum`'s split."""
    layout = [rows for rows, _ in gram.groups]
    rho0, rho1 = gram.endpoint(0), gram.endpoint(1)
    spec0 = eigh_blocks(list(zip(layout, rho0)))
    if gram.sector is not None:
        spec0 = refine_blocks_by_sector(spec0, gram.sector)
    s1 = None if pair.mirror is not None else von_neumann_entropy(eigh_blocks(list(zip(layout, rho1))))
    return criterion_report(spec0, rho1, s1)


def plain_on_range(terms: np.ndarray) -> tuple[np.ndarray, float]:
    """The curve's range step with one ``eigh`` of c0c0^dagger + c1c1^dagger
    per amplitude block, as :func:`entconvex.sweep.entropy_curve` took it
    before that sum was split on its own exact blocks: the oracle of
    :func:`entconvex.sweep._on_range`."""
    s, u = np.linalg.eigh(terms[0] + terms[1])
    top = s[:, -1:]
    size = s.shape[1]
    r = int(np.sum(s > RANGE_TOL * top, axis=1).max())
    if r == size:
        return terms, 0.0
    q = u[:, :, size - r:]
    dropped = max(float(np.max(s[:, size - r - 1] / top[:, 0])), 0.0)
    return q.conj().swapaxes(1, 2) @ terms @ q, dropped


def serial_entropy_curve(pair, grid_size=DEFAULT_GRID_SIZE, *, gram=None) -> EntropyCurve:
    """:func:`entconvex.sweep.entropy_curve` with its grid solved in the
    calling thread, one size group after another and each group's calls in
    grid order, the group's eigenvalues joined by concatenation: the loop
    as it was before the calls ran on every usable CPU, over the same
    blocks (only those whose eigenvalues count, repeated as they count).
    Each call is the same ``eigvalsh`` of the same input, so the curve
    must equal this one bit for bit."""
    gram = gram_blocks(*pair.amplitudes(), pair.sector_operator) if gram is None else gram
    alphas = np.linspace(0.0, 1.0, grid_size)
    coef = np.stack([alphas, 1.0 - alphas, np.sqrt(alphas * (1.0 - alphas))], axis=1)
    n00, n11, _ = gram.norms
    norm2 = coef @ np.array(gram.norms)
    parts2 = (np.sqrt(alphas * n00) + np.sqrt((1.0 - alphas) * n11)) ** 2
    if np.any(norm2 <= CANCELLED_NORM2 * parts2):
        raise ValueError("superposition vanishes")
    points = grid_size if pair.mirror is None else (grid_size + 1) // 2
    coef = coef[:points]
    weights, solved, range_dropped, imag_dropped = [], [], 0.0, 0.0
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
        step = max(1, (gram.dim // size) ** 2 // len(rows), 2**16 // (len(rows) * size * size))
        w = [
            np.linalg.eigvalsh(np.tensordot(coef[i:i + step], terms, axes=1))
            for i in range(0, points, step)
        ]
        weights.append(_repeated(np.concatenate(w).reshape(points, -1), repeat))
    ents = entropy_bits(np.concatenate(weights, axis=1) / norm2[:points, None]).tolist()
    if points < grid_size:
        ents += ents[grid_size - points - 1::-1]
    return EntropyCurve(
        alphas=tuple(alphas.tolist()),
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


def mode_columns_per_mode(l: int, m: int, n_basis: int, order: int) -> np.ndarray:
    """:func:`entconvex.lgmodes.mode_columns` with the x-basis and the y
    factors rebuilt for the mode, as it was formed before they were
    cached per basis: the oracle of that cache, to the bit."""
    t, wt = gauss_hermite(order)
    xs = math.sqrt(2.0 / 3.0) * t
    u, wu = t, wt
    ys = u / math.sqrt(2.0)
    f = hermite_functions(n_basis - 1, xs) * np.exp(0.5 * t * t)[None, :]
    prof = lg_evaluate(LGMode(l, m), xs[:, None], ys[None, :])
    prof = prof * np.exp(0.5 * t * t)[:, None]
    v = math.sqrt(2.0 / 3.0) * np.einsum("ai,i,iq->aq", f, wt, prof)
    v = v * np.exp(0.5 * u * u)[None, :] * np.sqrt(wu)[None, :] / 2.0 ** 0.25
    return v.conj() / math.sqrt(np.sum(np.abs(v) ** 2).real)


def mode_norm_capture(mode: LGMode, n_basis: int = DEFAULT_BASIS_SIZE,
                      order: int = DEFAULT_QUADRATURE_ORDER) -> float:
    """Share of the mode norm the Hermite basis captures, against 16 more functions.

    A diagnostic: it reads the squared norms of the profiles before
    :func:`entconvex.lgmodes.mode_columns` normalizes them.
    """
    v = _mode_profile(mode.l, mode.m, n_basis, order)
    big = _mode_profile(mode.l, mode.m, n_basis + 16, order)
    return float(np.sum(np.abs(v) ** 2) / np.sum(np.abs(big) ** 2))


def block_density(pair, alpha: float) -> HermitianMatrix:
    """The package's own reduced density at ``alpha``, embedded densely.

    Not an oracle: a view of package code.  The Gram terms of
    :func:`entconvex.spectra.gram_blocks` are combined as
    :func:`entconvex.sweep.entropy_curve` combines them, (alpha T0 +
    (1-alpha) T1 + sqrt(alpha(1-alpha)) X) over the same combination of
    their traces, and each block is placed at its rows.  The result goes
    through the density checks of ``HermitianMatrix``.
    """
    gram = gram_blocks(*pair.amplitudes())
    coef = np.array([alpha, 1.0 - alpha, math.sqrt(alpha * (1.0 - alpha))])
    rho = np.zeros((gram.dim, gram.dim), dtype=complex)
    for rows, terms in gram.groups:
        rho[rows[:, :, None], rows[:, None, :]] = np.tensordot(coef, terms, axes=1)
    rho = np.tril(rho) + np.tril(rho, -1).conj().T  # the lower triangle, which eigvalsh reads
    return HermitianMatrix(rho / (coef @ np.array(gram.norms)))


def dense_entropy_curve(pair, grid_size):
    """Entropies in bits on the uniform alpha grid, one dense density per point.

    Each point builds the full reduced density (:func:`superposition_density`,
    with its density checks), takes all its eigenvalues with
    ``np.linalg.eigvalsh`` and sums -lambda log2(lambda) over those above
    ``SUPPORT_FLOOR``; it shares no code with
    :func:`entconvex.sweep.entropy_curve`, which must agree.
    """
    out = []
    for a in np.linspace(0.0, 1.0, grid_size):
        w = np.linalg.eigvalsh(superposition_density(pair, float(a)).entries)
        w = w[w > SUPPORT_FLOOR]
        out.append(-float(np.sum(w * np.log2(w))))
    return out


def dense_refine_blocks_by_sector(spec0: Spectrum, sector_operator: np.ndarray) -> Spectrum:
    """Sector refinement on dense eigenvectors, the oracle of
    :func:`entconvex.criterion.refine_blocks_by_sector`.

    Inside each degeneracy block, the dense eigenvectors are rotated to
    diagonalize the whole restriction of the operator; its ascending
    eigenvalues take the block's positions in order, and a step above
    ``SECTOR_TOL`` starts a sub-block.  The eigenvalues are unchanged, so
    a sub-block's lambda is the mean at its positions.
    """
    op = np.asarray(sector_operator)
    if op.shape != (spec0.dim, spec0.dim):
        raise ValueError("sector operator dimension mismatch")
    v = spec0.eigenvectors
    v = np.array(v, dtype=np.result_type(v, op))
    blocks: list[tuple[int, ...]] = []
    for block in spec0.blocks:
        cols = list(block)
        if len(cols) == 1:
            blocks.append(block)
            continue
        vb = v[:, cols]
        r = vb.conj().T @ op @ vb
        w, u = np.linalg.eigh(0.5 * (r + r.conj().T))  # ascending
        v[:, cols] = vb @ u
        blocks += [tuple(cols[k] for k in run) for run in gap_clusters(-w, SECTOR_TOL)]
    dim = spec0.dim
    return Spectrum(
        np.array(spec0.eigenvalues),
        ((np.arange(dim)[None], v[None]),),  # one block of every row
        np.arange(dim),
        blocks=tuple(blocks),
    )


def dense_not_shared_entropy(spec0: Spectrum, rho1: np.ndarray) -> float:
    """S_NS from dense eigenvectors and a dense partner, block by block, the
    oracle of :func:`entconvex.criterion.not_shared_entropy`."""
    if spec0.dim != len(rho1):
        raise ValueError("dimension mismatch")
    vectors = spec0.eigenvectors
    total = 0.0
    for block in spec0.blocks:
        lam = float(np.mean(spec0.eigenvalues[list(block)]))
        if lam > SUPPORT_FLOOR:
            v = vectors[:, list(block)]
            tr = float(np.real(np.trace(v.conj().T @ rho1 @ v)))
            total += theta(len(block) * lam - tr) * math.log(1.0 / lam)
    return total / LN2


def evaluate_criterion(
    rho0: HermitianMatrix,
    rho1: HermitianMatrix,
    reference: int = 0,
    sector_operator: np.ndarray | None = None,
) -> CriterionReport:
    """The criterion from two dense reduced densities.

    Each density's eigenpairs come from its own dense solve (the density
    check of ``HermitianMatrix``), and S_NS from the dense oracles above;
    :func:`entconvex.sweep.pair_criterion`, which works on the amplitude
    blocks instead, must agree.  ``reference`` selects which state plays
    the reference in the not-shared entropy.
    """
    if reference == 1:
        rho0, rho1 = rho1, rho0
    elif reference != 0:
        raise ValueError("reference must be 0 or 1")
    spec0 = eigendecompose(rho0)
    if sector_operator is not None:
        spec0 = dense_refine_blocks_by_sector(spec0, sector_operator)
    s0 = von_neumann_entropy(spec0)
    s1 = von_neumann_entropy(eigendecompose(rho1))
    s_ns = min(dense_not_shared_entropy(spec0, rho1.entries), s0)
    return CriterionReport(s0=s0, s1=s1, s_ns=s_ns, s_r=s0 - s_ns, qc=criterion_qc(s_ns, s0 - s_ns))


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
) -> float:
    """Projector-family-dependent entropy -sum Theta[lambda_i - <rho_1>_i] log2 lambda_i.

    The family must consist of eigenprojectors of the reference state
    (one admissible choice among many when degenerate).
    """
    if spec0.dim != rho1.dim or fam.dim != spec0.dim:
        raise ValueError("dimension mismatch")
    rho0 = reconstruct(spec0)
    lam = np.real(np.einsum("ia,ij,ja->a", fam.vectors.conj(), rho0, fam.vectors))
    resid = rho0 @ fam.vectors - fam.vectors * lam
    if np.max(np.abs(resid)) > 1e-8:
        raise ValueError("family is not an eigenprojector family of the reference")
    expect1 = expectations_under_projectors(rho1, fam)
    total = 0.0
    for lam_i, q_i in zip(lam, expect1):
        if lam_i > SUPPORT_FLOOR:
            total -= theta(lam_i - q_i) * math.log(lam_i)
    return total / LN2


def not_shared_entropy_sampled(
    spec0: Spectrum,
    rho1: HermitianMatrix,
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
        if lam <= SUPPORT_FLOOR:
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
    return total / LN2


def _block_sum(diag: np.ndarray, lam: float) -> float:
    return float(sum(theta(lam - a) for a in diag))


def _haar_batch(rng: np.random.Generator, batch: int, dim: int) -> np.ndarray:
    """Batch of Haar-random unitaries completed from dim - 1 Ginibre columns.

    One real and then one imaginary (batch, dim, dim - 1) normal array is
    drawn; Householder QR in complete mode gives a unitary whose first
    dim - 1 columns span the same nested subspaces as the draw.
    """
    shape = (batch, dim, dim - 1)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.linalg.qr(g, mode="complete")[0]


def _block_rotation_batch(
    rng: np.random.Generator,
    batch: int,
    dim: int,
    rotated,
    strength: float,
) -> np.ndarray:
    """Batch of block-diagonal unitaries: a small random rotation per rotated block.

    The blocks are taken by ascending size; per size, one real and then one
    imaginary (blocks, batch, d, d - 1) normal array G is drawn, and each
    block's rotation is the complete Householder Q of I[:, :d - 1] +
    strength G.  Every other column keeps the identity.
    """
    out = np.broadcast_to(np.eye(dim, dtype=complex), (batch, dim, dim)).copy()
    for d in sorted({len(block) for block in rotated}):
        group = [list(block) for block in rotated if len(block) == d]
        shape = (len(group), batch, d, d - 1)
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for cols, gb in zip(group, g):
            q, _ = np.linalg.qr(np.eye(d)[:, :-1] + strength * gb, mode="complete")
            out[:, np.ix_(cols, cols)[0], np.ix_(cols, cols)[1]] = q
    return out


def dense_projector_probe(
    rho0: HermitianMatrix,
    rho1: HermitianMatrix,
    samples: int,
    seed: int = 0,
    mode: str = "biased",
) -> ProbeRecord:
    """The probe with dense families: each sample is a full dim x dim unitary.

    Draws the same random numbers as
    :func:`entconvex.criterion.random_projector_probe`, the first d - 1
    columns of each drawn block or basis, completes every family densely
    (complete Householder QR, the balanced basis times a scattered
    block-diagonal rotation) and scores every column of it against the
    dense states, one sample at a time for the checkpoints; the package
    probe, which scores the rotated columns only and completes the last
    from the trace, must agree.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if rho0.dim != rho1.dim:
        raise ValueError("dimension mismatch")
    spec0 = eigendecompose(rho0)
    s = von_neumann_entropy(spec0)
    s_ns = dense_not_shared_entropy(spec0, rho1.entries)
    bound = s - 2.0 * s_ns

    rng = np.random.default_rng(seed)
    dim = rho0.dim
    if mode == "biased":
        base = balanced_eigenbasis(spec0, rho1)
        a0 = base.conj().T @ rho0.entries @ base
        # blocks outside the support (||a0_b||_F <= SUPPORT_FLOOR / 2) add 0
        # under any rotation and draw nothing, nor do 1x1 blocks
        rotated = [
            block
            for block in spec0.blocks
            if len(block) > 1 and np.linalg.norm(a0[np.ix_(block, block)]) > 0.5 * SUPPORT_FLOOR
        ]

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
            rot = _block_rotation_batch(rng, n, dim, rotated, BIAS_STRENGTH)
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
            logs = np.where(p > SUPPORT_FLOOR, np.log(np.maximum(p, 1e-300)), 0.0)
        stilde = -np.sum(excess * logs, axis=1) / LN2
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


# ---------------------------------------------------------------------------
# oscillator: energy and L_z of the expanded state


def cartesian_tensor(state: OscState, basis: OscBasisSpec | None = None) -> np.ndarray:
    """The Cartesian amplitudes D^dagger c D^dagger^T of ``coefficient_tensor``'s c.

    Undoes the phase gauge D = diag(i^(-ky)) exactly (each entry is
    multiplied by a power of i), so the oscillator oracles, written in the
    Cartesian Hermite basis, read the package's tensor through this alone.
    """
    basis = basis or OscBasisSpec()
    nb = basis.n_per_coordinate
    phase = np.tile(gauge_phases(nb), nb).conj()
    return coefficient_tensor(state, basis) * np.outer(phase, phase)


def _apply_1d(op: np.ndarray, c4: np.ndarray, axis: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(op, c4, axes=([1], [axis])), 0, axis)


def energy_expectation(state: OscState, basis: OscBasisSpec | None = None) -> float:
    """Variational energy of the expanded state.

    The Hamiltonian is written in the separated-argument coordinates (in
    which the expansion is performed); it is unitarily equivalent to the
    particle-coordinate one, so its spectrum is the exact ladder
    2n + |m| + 1 + (2l + |p| + 1) sqrt(4 lambda + 1).
    """
    basis = basis or OscBasisSpec()
    nb = basis.n_per_coordinate
    c4 = cartesian_tensor(state, basis).reshape(nb, nb, nb, nb)
    x, P = _ladder_matrices(nb)
    p = 1j * P
    wr = omega_relative(state.lam)
    x2 = x @ x
    p2 = (p @ p).real
    diag = p2 + ((1.0 + wr**2) / 8.0) * x2
    total = 0.0
    for axis in range(4):
        total += np.real(np.vdot(c4, _apply_1d(diag, c4, axis)))
    # cross terms (x1 x2 and y1 y2) from the frequency mismatch
    xc = _apply_1d(x, c4, 0)
    xc = _apply_1d(x, xc, 2)
    total += ((1.0 - wr**2) / 4.0) * np.real(np.vdot(c4, xc))
    yc = _apply_1d(x, c4, 1)
    yc = _apply_1d(x, yc, 3)
    total += ((1.0 - wr**2) / 4.0) * np.real(np.vdot(c4, yc))
    return float(total)


def lz_residual(state: OscState, basis: OscBasisSpec | None = None) -> float:
    """|| (L_z - (m + p)) |psi> || in the truncated basis."""
    basis = basis or OscBasisSpec()
    nb = basis.n_per_coordinate
    c4 = cartesian_tensor(state, basis).reshape(nb, nb, nb, nb)
    x, P = _ladder_matrices(nb)
    p = 1j * P
    acc = np.zeros_like(c4)
    # L_z = sum_particles x p_y - y p_x;  axes: (x1, y1, x2, y2)
    for ax_x, ax_y in ((0, 1), (2, 3)):
        t = _apply_1d(x, c4, ax_x)
        acc += _apply_1d(p, t, ax_y)
        t = _apply_1d(x, c4, ax_y)
        acc -= _apply_1d(p, t, ax_x)
    acc -= state.lz * c4
    return float(np.linalg.norm(acc))


# ---------------------------------------------------------------------------
# analytic lambda = 0 construction (Gamma-function route)


@lru_cache(maxsize=None)
def _gauss_moment(k: int) -> float:
    """Integral of x^k exp(-x^2/2) over the real line."""
    if k % 2:
        return 0.0
    return math.sqrt(2.0) * 2.0 ** (k / 2) * math.gamma((k + 1) / 2.0)


@lru_cache(maxsize=None)
def _herm_coef(n: int, q: int) -> float:
    return math.factorial(n) * (-1) ** q / (math.factorial(q) * math.factorial(n - 2 * q))


@lru_cache(maxsize=None)
def _binom_moment_sum(a: int, b: int, c1: int, c2: int) -> float:
    total = 0.0
    for s in range(a + 1):
        for t in range(b + 1):
            total += (
                math.comb(a, s)
                * math.comb(b, t)
                * (-1) ** (b - t)
                * _gauss_moment(s + t + c1)
                * _gauss_moment(a - s + b - t + c2)
            )
    return total


@lru_cache(maxsize=None)
def overlap_analytic(a: int, c: int, i1: int, i2: int) -> float:
    """Closed-form lambda = 0 overlap, the Gamma-route twin of the quadrature.

    Expands every Hermite polynomial into monomials and integrates the
    Gaussian moments term by term.  Independent of the quadrature path.
    """
    if (a + c + i1 + i2) % 2:
        return 0.0
    norm = 1.0
    for n in (a, c, i1, i2):
        norm *= (2.0 * math.pi) ** -0.25 / math.sqrt(2.0**n * math.factorial(n))
    total = 0.0
    for qa in range(a // 2 + 1):
        aa = a - 2 * qa
        for qc in range(c // 2 + 1):
            bb = c - 2 * qc
            for q1 in range(i1 // 2 + 1):
                c1 = i1 - 2 * q1
                for q2 in range(i2 // 2 + 1):
                    c2 = i2 - 2 * q2
                    coef = (
                        _herm_coef(a, qa)
                        * _herm_coef(c, qc)
                        * _herm_coef(i1, q1)
                        * _herm_coef(i2, q2)
                        * 2.0 ** ((c1 + c2) / 2.0)
                    )
                    total += coef * _binom_moment_sum(aa, bb, c1, c2)
    return norm * total


def coefficient_tensor_analytic(state: OscState, basis: OscBasisSpec | None = None) -> np.ndarray:
    """lambda = 0 Cartesian tensor from the analytic overlaps; oracle for the
    quadrature tensor as :func:`cartesian_tensor` returns it."""
    if state.lam != 0.0:
        raise ValueError("analytic construction only at lambda = 0")
    basis = basis or OscBasisSpec()
    basis.check_state(state)
    nb = basis.n_per_coordinate
    a_max = 2 * state.n + abs(state.m)
    c_max = 2 * state.l + abs(state.p)
    ox = np.zeros((nb, nb, a_max + 1, c_max + 1))
    for a in range(a_max + 1):
        for c in range(c_max + 1):
            for i1 in range(nb):
                i2 = a + c - i1  # quanta conservation at lambda = 0
                if 0 <= i2 < nb:
                    ox[i1, i2, a, c] = overlap_analytic(a, c, i1, i2)
    amp = cartesian_from_overlaps(state, ox)
    return amp / np.linalg.norm(amp)


def cartesian_from_overlaps(state: OscState, ox: np.ndarray) -> np.ndarray:
    """Un-normalized complex Cartesian tensor from an overlap tensor
    ox[i1, i2, a, c], accumulated one kappa pair at a time: the slow path
    :func:`entconvex.oscillator.coefficient_tensor` contracts in one step."""
    nb = ox.shape[0]
    kap_r = kappa_coefficients(state.n, state.m)
    kap_rel = kappa_coefficients(state.l, state.p)
    c4 = np.zeros((nb, nb, nb, nb), dtype=complex)
    for (j, k), kr in kap_r.items():
        a = 2 * state.n + abs(state.m) - j - k
        b = j + k
        for (r, s), kv in kap_rel.items():
            cc = 2 * state.l + abs(state.p) - r - s
            d = r + s
            c4 += (kr * kv) * np.einsum("ik,jl->ijkl", ox[:, :, a, cc], ox[:, :, b, d])
    return c4.reshape(nb * nb, nb * nb)


# ---------------------------------------------------------------------------
# spherium: the exact distance series, the dense pair, the r12 product loop,
# the radial equation, pointwise values


def perkins_coefficient(k: int, l: int, t: int) -> Fraction:
    """Radial coefficient C_{klt} of the interelectronic-distance expansion.

    Exact rational closed form; returns 0 outside the admissible t range.
    """
    if k < -1:
        raise ValueError("expansion defined for k >= -1")
    if l < 0 or t < 0:
        raise ValueError("l and t must be non-negative")
    tmax = (k // 2 - l) if k % 2 == 0 else (k + 1) // 2
    if t > tmax:
        return Fraction(0)
    base = Fraction(math.comb(k + 2, 2 * t + 1), k + 2)
    if l == 0:
        return base
    upper = min(l - 1, (k + 1) // 2)
    for a in range(upper + 1):
        base *= Fraction(2 * t - k + 2 * a, 2 * t + 1 + 2 * l - 2 * a)
    return base


@lru_cache(maxsize=None)
def perkins_weight(k: int, l: int) -> Fraction:
    """sum_t C_{klt}: the on-sphere radial factor (r< = r> = R gives R^k)."""
    tmax = (k // 2 - l) if k % 2 == 0 else (k + 1) // 2
    if tmax < 0:
        return Fraction(0)
    return sum((perkins_coefficient(k, l, t) for t in range(tmax + 1)), Fraction(0))


def coupled_pair_array(M: int, lcut: int) -> np.ndarray:
    """Antisymmetrized coupled harmonic pair as a dense coefficient array.

    Entry [(l1,m1), (l2,m2)] multiplies Y_{l1 m1}(Omega_1) Y_{l2 m2}(Omega_2).
    """
    if abs(M) > TOTAL_L:
        raise ValueError(f"|M| must not exceed {TOTAL_L}")
    dim = basis_size(lcut)
    arr = np.zeros((dim, dim))
    for m1 in range(-COUPLED_L1, COUPLED_L1 + 1):
        m2 = M - m1
        if abs(m2) > COUPLED_L2:
            continue
        c = cg(COUPLED_L1, m1, COUPLED_L2, m2, TOTAL_L, M)
        if c == 0.0:
            continue
        arr[_index(COUPLED_L1, m1), _index(COUPLED_L2, m2)] += c
        arr[_index(COUPLED_L2, m2), _index(COUPLED_L1, m1)] -= c
    return arr


def nonzero_entries(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero (rows, cols, values) of ``arr`` in row-major order, the
    input :func:`entconvex.spherium.multiply_r12` takes."""
    rows, cols = np.nonzero(arr)
    return rows, cols, arr[rows, cols]


def sph_product_unmirrored(l1: int, m1: int, l2: int, m2: int) -> tuple[tuple[int, float], ...]:
    """Coupling of a product of spherical harmonics on one sphere, from exact ``cg``.

    Y_{l1 m1} Y_{l2 m2} = sum_L c_L Y_{L, m1+m2}; returns the nonzero
    (L, c_L) pairs, each c_L = pref * C(l1,m1; l2,m2|L,M) * C(l1,0; l2,0|L,0)
    multiplied in that order, on every key.
    """
    out = []
    for L in range(abs(l1 - l2), l1 + l2 + 1):
        if (l1 + l2 + L) % 2 != 0:
            continue
        c0 = cg(l1, 0, l2, 0, L, 0)
        if c0 == 0.0:
            continue
        c = cg(l1, m1, l2, m2, L, m1 + m2)
        if c == 0.0:
            continue
        pref = math.sqrt((2 * l1 + 1) * (2 * l2 + 1) / (4.0 * math.pi * (2 * L + 1)))
        out.append((L, pref * c * c0))
    return tuple(out)


@lru_cache(maxsize=None)
def sph_product(l1: int, m1: int, l2: int, m2: int) -> tuple[tuple[int, float], ...]:
    """:func:`sph_product_unmirrored` computed on one key of each mirror pair.

    Parity restricts L to l1 + l2 (mod 2), so the mirror symmetry
    C(l1,-m1; l2,-m2; L,-M) = (-1)^(l1+l2-L) C(l1,m1; l2,m2; L,M) has sign
    +1 on every kept L and a mirrored key returns the same tuple: each key
    is computed with m1 > 0, or m1 = 0 <= m2.
    """
    if m1 < 0 or (m1 == 0 and m2 < 0):
        return sph_product(l1, -m1, l2, -m2)
    return sph_product_unmirrored(l1, m1, l2, m2)


def multiply_r12_loop(arr: np.ndarray, lcut: int, lmaxes: tuple[int, ...],
                      product=sph_product) -> list[np.ndarray]:
    """r12 products term by term from the exact couplings ``product``, the
    loop :func:`entconvex.spherium.multiply_r12` must equal to the bit:
    weights recomputed per entry, numpy scalars."""
    dim = basis_size(lcut)
    if arr.shape != (dim, dim):
        raise ValueError("array does not match the basis cut")
    radius = math.sqrt(SPHERE_RADIUS_SQ)
    outs = [np.zeros_like(arr) for _ in lmaxes]
    rows, cols = np.nonzero(arr)
    for r, c in zip(rows, cols):
        l1 = int(math.isqrt(r))
        m1 = r - l1 * l1 - l1
        l2 = int(math.isqrt(c))
        m2 = c - l2 * l2 - l2
        val = arr[r, c]
        for l in range(max(lmaxes) + 1):
            w = 4.0 * math.pi * radius * float(perkins_weight(1, l))
            if w == 0.0:
                continue
            targets = [out for out, top in zip(outs, lmaxes) if l <= top]
            for m in range(-l, l + 1):
                sign = (-1) ** m
                left = product(l1, m1, l, -m)
                right = product(l2, m2, l, m)
                if not left or not right:
                    continue
                for La, ca in left:
                    if La > lcut:
                        continue
                    ia = _index(La, m1 - m)
                    for Lb, cb in right:
                        if Lb > lcut:
                            continue
                        term = val * w * sign * ca * cb
                        for out in targets:
                            out[ia, _index(Lb, m2 + m)] += term
    return outs


def state_coefficients_loop(M: int, lmax: int, product=sph_product) -> np.ndarray:
    """The unit-norm spherium state from :func:`multiply_r12_loop`: the
    correlated pair (1 + r12/4) times the coupled harmonic pair."""
    lcut = lmax + COUPLED_L2
    pair = coupled_pair_array(M, lcut)
    amp = pair + multiply_r12_loop(pair, lcut, (lmax,), product)[0] / CORRELATION_SCALE
    return amp / np.linalg.norm(amp)


def radial_residual(r12: np.ndarray | float) -> float:
    """Residual of the reduced radial equation on the correlation factor.

    Phi'' + (4/r - 3 r / (2 R^2)) Phi' - Phi/r + E Phi with Phi = 1 + r/4
    must vanish identically at E = 1/4, R^2 = 6.
    """
    r = np.atleast_1d(np.asarray(r12, dtype=float))
    if np.any(r <= 0.0):
        raise ValueError("r12 must be positive")
    phi = 1.0 + r / CORRELATION_SCALE
    dphi = 1.0 / CORRELATION_SCALE
    res = (4.0 / r - 1.5 * r / SPHERE_RADIUS_SQ) * dphi - phi / r + ENERGY * phi
    return float(np.max(np.abs(res)))


def wave_function(M: int, theta1, phi1, theta2, phi2) -> complex:
    """Direct (un-normalized, un-truncated) wave function value."""
    def coupled(ta, pa, tb, pb):
        total = 0.0 + 0.0j
        for m1 in range(-COUPLED_L1, COUPLED_L1 + 1):
            m2 = M - m1
            if abs(m2) > COUPLED_L2:
                continue
            c = cg(COUPLED_L1, m1, COUPLED_L2, m2, TOTAL_L, M)
            if c:
                total += c * sph_harm_y(COUPLED_L1, m1, ta, pa) * sph_harm_y(COUPLED_L2, m2, tb, pb)
        return total

    cosg = math.cos(theta1) * math.cos(theta2) + math.sin(theta1) * math.sin(theta2) * math.cos(phi1 - phi2)
    r12 = math.sqrt(max(2.0 * SPHERE_RADIUS_SQ * (1.0 - cosg), 0.0))
    pair = coupled(theta1, phi1, theta2, phi2) - coupled(theta2, phi2, theta1, phi1)
    return pair * (1.0 + r12 / CORRELATION_SCALE)


def expansion_value(arr: np.ndarray, lcut: int, theta1, phi1, theta2, phi2) -> complex:
    """Evaluate a coefficient array at a pair of directions."""
    vec1 = np.empty(basis_size(lcut), dtype=complex)
    vec2 = np.empty(basis_size(lcut), dtype=complex)
    for l in range(lcut + 1):
        for m in range(-l, l + 1):
            vec1[_index(l, m)] = sph_harm_y(l, m, theta1, phi1)
            vec2[_index(l, m)] = sph_harm_y(l, m, theta2, phi2)
    return complex(vec1 @ arr @ vec2)


# ---------------------------------------------------------------------------
# angular: exact Racah coefficients and endpoint densities


@dataclass(frozen=True)
class ExactCoefficient:
    """sign * sqrt(square) with an exact rational square."""

    sign: int
    square: Fraction

    def __post_init__(self):
        if self.square < 0:
            raise ValueError("square must be non-negative")

    @property
    def value(self) -> float:
        return self.sign * math.sqrt(self.square)


ZERO = ExactCoefficient(0, Fraction(0))


@lru_cache(maxsize=None)
def clebsch_gordan(l1: int, m1: int, l2: int, m2: int, L: int, M: int) -> ExactCoefficient:
    """Exact Clebsch-Gordan coefficient C(l1,m1; l2,m2; L,M).

    Racah's closed form, evaluated over rationals term by term; the oracle
    of the integer form behind :func:`entconvex.angular.cg`.  Returns the
    exact zero coefficient when m1 + m2 != M or a magnetic number is out of
    range; raises on a triangle violation.
    """
    if not abs(l1 - l2) <= L <= l1 + l2:
        raise ValueError(f"triangle violation for ({l1}, {l2}, {L})")
    if m1 + m2 != M or abs(m1) > l1 or abs(m2) > l2 or abs(M) > L:
        return ZERO

    f = math.factorial
    pref = Fraction(
        (2 * L + 1) * f(L + l1 - l2) * f(L - l1 + l2) * f(l1 + l2 - L),
        f(l1 + l2 + L + 1),
    ) * Fraction(
        f(L + M) * f(L - M) * f(l1 - m1) * f(l1 + m1) * f(l2 - m2) * f(l2 + m2), 1
    )

    kmin = max(0, l2 - L - m1, l1 + m2 - L)
    kmax = min(l1 + l2 - L, l1 - m1, l2 + m2)
    total = Fraction(0)
    for k in range(kmin, kmax + 1):
        denom = (
            f(k)
            * f(l1 + l2 - L - k)
            * f(l1 - m1 - k)
            * f(l2 + m2 - k)
            * f(L - l2 + m1 + k)
            * f(L - l1 - m2 + k)
        )
        total += Fraction((-1) ** k, denom)
    if total == 0:
        return ZERO
    sign = 1 if total > 0 else -1
    return ExactCoefficient(sign, pref * total * total)




def coupled_reduced_density_exact(l: int, L: int, M: int, alpha: int) -> list[list[Fraction]]:
    """Exact rational reduced density of the mirror pair M/-M at alpha in {0, 1}.

    At the endpoints only squared coefficients appear, so every entry is
    rational.  Basis order is the canonical m-basis m = l, l-1, ..., -l.
    """
    if alpha not in (0, 1):
        raise ValueError("exact assembly only at alpha in {0, 1}")
    Meff = M if alpha == 1 else -M
    AngularConfig(l, l, L, Meff)
    dim = 2 * l + 1
    rho = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        mi = l - i
        c = clebsch_gordan(l, mi, l, Meff - mi, L, Meff)
        rho[i][i] = c.square
    return rho


def coupled_energy_check(l: int, L: int, M: int) -> int:
    """Eigenvalue of L_total^2 - L_z^2 on the coupled state: L(L+1) - M^2."""
    AngularConfig(l, l, L, M)
    return L * (L + 1) - M * M
