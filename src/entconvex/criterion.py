"""Not-shared / remaining entropies, the convexity sign Q_c, and the
randomized projector probe.

The central quantity compares a reference reduced state ``rho_0`` with a
partner ``rho_1`` through the eigenprojectors of the reference.  Within a
degenerate eigenvalue subspace the projector choice is not unique, so the
not-shared entropy minimizes over that freedom; the closed form used here
is the uniform-diagonal (Schur-convexity) minimum, which the tests
cross-check against a numerical intra-block minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .spectra import (
    LN2,
    SUPPORT_FLOOR,
    HermitianMatrix,
    Spectrum,
    eigendecompose,
    gap_clusters,
    size_groups,
    von_neumann_entropy,
)

QC_TOL = 1e-9  # |S_R - S_NS| in bits at or below this gives Q_c = 0
SECTOR_TOL = 1e-8  # sector eigenvalues further apart than this (relative) split a block


@dataclass(frozen=True)
class CriterionReport:
    """Entropy bookkeeping for one superposition pair, in bits.

    ``qc = sign(s_r - s_ns)`` with a zero band of width ``QC_TOL`` bits;
    +1 predicts a convex entropy-vs-alpha curve, -1 a concave one, 0 is
    reported as indeterminate.  :func:`entconvex.benchmarks.rescale_report`
    converts the entropies to another base and keeps ``qc``.
    """

    s0: float
    s1: float
    s_ns: float
    s_r: float
    qc: int

    def __post_init__(self):
        if abs(self.s_r - (self.s0 - self.s_ns)) > 1e-10:
            raise ValueError("s_r must equal s0 - s_ns")
        if not (-1e-10 <= self.s_ns <= self.s0 + 1e-10):
            raise ValueError(f"s_ns={self.s_ns!r} outside [0, s0]")


@dataclass(frozen=True)
class ProbeRecord:
    """Result of the randomized projector probe."""

    min_value: float
    bound: float
    entropy: float
    samples: int
    checkpoints: tuple[tuple[int, float], ...]


def _check_partner(spec0: Spectrum, blocks) -> None:
    shapes = [u.shape for _, u in spec0.groups]
    if [np.shape(m) for m in blocks] != shapes:
        raise ValueError(f"blocks {[np.shape(m) for m in blocks]} do not match {shapes}")


def _partner_weights(spec0: Spectrum, b) -> np.ndarray:
    """Re <v_i|b|v_i> for the eigenvector v_i at each position of ``spec0``.

    ``b`` is in the layout of ``spec0.groups``: the partner's density gives
    the partner weights, a sector operator its diagonal.  One batched
    product per size group: Re diag(U^dagger b_g U).
    """
    _check_partner(spec0, b)
    q = np.concatenate([
        np.einsum("bij,bij->bj", u.conj(), m @ u).real.ravel() for (_, u), m in zip(spec0.groups, b)
    ])
    return q[spec0.source]


def refine_blocks_by_sector(spec0: Spectrum, sector_operator) -> Spectrum:
    """``spec0`` with its degeneracy blocks split along the sectors of a symmetry operator.

    Restricting the projector freedom to a conserved quantity reproduces
    computations carried out with symmetry-adapted basis sets, where
    exactly degenerate eigenvalues in different sectors are never mixed.

    ``sector_operator`` is in the layout of ``spec0.groups``
    (``GramBlocks.sector``); the trace-out links the rows it links, so it
    has no entry between two amplitude blocks.  Inside each degeneracy
    block of more than one column in the support, the columns of each
    amplitude block rotate into the eigenvectors of the operator's
    restriction to them; the block's columns then take its positions
    (``source``) by ascending sector value, the operator's diagonal, and a
    step above ``SECTOR_TOL`` starts a sub-block, whose lambda is the mean
    eigenvalue at its positions.  A block wholly at or below
    ``SUPPORT_FLOOR`` adds nothing to S_NS and is left whole.  The
    eigenvalues and every other block are ``spec0``'s; only the
    eigenvector groups that hold a rotated part are copied.
    """
    _check_partner(spec0, sector_operator)
    w = spec0.eigenvalues
    split = [len(b) > 1 and w[b[0]] > SUPPORT_FLOOR for b in spec0.blocks]
    flat = [(g, b, c) for g, (rows, _) in enumerate(spec0.groups) for b, c in np.ndindex(rows.shape)]
    where = [flat[i] for i in spec0.source.tolist()]  # the (group, block, column) at each position
    groups = list(spec0.groups)
    scalar: dict[tuple[int, int], bool] = {}
    for block in (b for b, s in zip(spec0.blocks, split) if s):
        parts: dict[tuple[int, int], list[int]] = {}
        for g, b, c in (where[p] for p in block):
            parts.setdefault((g, b), []).append(c)
        for (g, b), cols in parts.items():
            if len(cols) == 1:
                continue
            op = sector_operator[g][b]
            if (g, b) not in scalar:  # a multiple of the identity: every rotation diagonalizes it
                d = np.diagonal(op)
                scalar[g, b] = np.count_nonzero(op) == np.count_nonzero(d) and bool(np.all(d == d[0]))
            if scalar[g, b]:
                continue
            rows, u = groups[g]
            if u is spec0.groups[g][1]:  # the group's first rotated part: copy it
                u = np.array(u, dtype=np.result_type(u, sector_operator[g]))
                groups[g] = (rows, u)
            v = u[b][:, cols]
            r = v.conj().T @ op @ v
            u[b][:, cols] = v @ np.linalg.eigh(0.5 * (r + r.conj().T))[1]
    rotated = replace(spec0, groups=tuple(groups))
    values = _partner_weights(rotated, sector_operator)
    source = np.array(spec0.source)
    blocks: list[tuple[int, ...]] = []
    for block, s in zip(spec0.blocks, split):
        if not s:
            blocks.append(block)
            continue
        pos = np.array(block)
        order = pos[np.argsort(values[pos], kind="stable")]
        source[pos] = spec0.source[order]
        blocks += [tuple(block[k] for k in run) for run in gap_clusters(-values[order], SECTOR_TOL)]
    return replace(rotated, source=source, blocks=tuple(blocks))


def not_shared_entropy(spec0: Spectrum, rho1) -> float:
    """Not-shared entropy in bits: the family-dependent sum minimized inside each block.

    A block with eigenvalue lambda and dimension d contributes
    ``Theta[d lambda - Tr(Pi rho1 Pi)] log2(1/lambda)``; for d = 1 this is
    the plain projector term and for d = 2 it reproduces the explicit
    twofold-degeneracy case analysis.  Every eigenvector lies in one
    amplitude block, so Tr(Pi rho1 Pi) is the sum of its columns' partner
    weights, Re diag(U^dagger rho1_b U), and lambda is the mean of the
    block's eigenvalues, which ``spec0`` keeps (:attr:`Spectrum.block_stats`).

    ``rho1`` is the partner's density in the layout of ``spec0.groups``,
    one (blocks, size, size) stack per group; a dense density ``r`` of a
    dense spectrum is ``(r[None],)``.  On a spectrum refined by
    :func:`refine_blocks_by_sector`, the minimization runs over the
    eigenprojectors that respect the sectors of a conserved quantity.
    """
    q = _partner_weights(spec0, rho1)
    starts, sizes, lam = spec0.block_stats
    tr = np.add.reduceat(q, starts)
    keep = lam > SUPPORT_FLOOR
    terms = np.maximum(sizes[keep] * lam[keep] - tr[keep], 0.0) * np.log(1.0 / lam[keep])
    # a running sum in block order: pairwise summation moves S_NS by a few ulps
    total = float(np.add.accumulate(terms)[-1]) if terms.size else 0.0
    return total / LN2


def criterion_qc(s_ns: float, s_r: float) -> int:
    """sgn(S_R - S_NS) with a zero band of width ``QC_TOL``, both in bits."""
    diff = s_r - s_ns
    if abs(diff) <= QC_TOL:
        return 0
    return 1 if diff > 0 else -1


def criterion_report(spec0: Spectrum, rho1, s1: float | None) -> CriterionReport:
    """The criterion for reference spectrum ``spec0`` and a partner of entropy ``s1``.

    ``s1`` None is a partner with the reference's spectrum, as a mirror
    pair's, so S1 = S0.  ``rho1`` is in the layout of ``spec0.groups``,
    like ``GramBlocks.restrict`` cuts ``GramBlocks.endpoint(1)``.  S_NS
    respects the sectors that ``spec0`` was refined by, if any
    (:func:`refine_blocks_by_sector`).
    """
    s0 = von_neumann_entropy(spec0)
    s1 = s0 if s1 is None else s1
    s_ns = min(not_shared_entropy(spec0, rho1), s0)
    s_r = s0 - s_ns
    return CriterionReport(s0=s0, s1=s1, s_ns=s_ns, s_r=s_r, qc=criterion_qc(s_ns, s_r))


def balanced_eigenbasis(spec0: Spectrum, rho1: HermitianMatrix) -> np.ndarray:
    """Eigenbasis of the reference with uniform partner diagonal per block.

    Inside each degeneracy block the partner restriction is rotated so its
    diagonal is constant (eigenbasis of the restriction followed by a
    discrete Fourier rotation), which attains the block minimum of the
    family sum.
    """
    v = np.array(spec0.eigenvectors, dtype=complex)
    for block in spec0.blocks:
        d = len(block)
        if d == 1:
            continue
        cols = list(block)
        vb = v[:, cols]
        r = vb.conj().T @ rho1.entries @ vb
        _, w = np.linalg.eigh(0.5 * (r + r.conj().T))
        f = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / math.sqrt(d)
        v[:, cols] = vb @ w @ f
    return v


PROBE_BATCH = 512  # families drawn and scored per step
BIAS_STRENGTH = 0.01  # size of the random intra-block rotations of the biased probe


def orthonormalize(a: np.ndarray) -> np.ndarray:
    """Thin Q of the QR factorization of each d x c matrix in a stack, with diag(R) > 0.

    Classical Gram-Schmidt with one reorthogonalization pass (CGS2) over
    the c <= d columns, vectorized over the stack, which is moved to the
    trailing axes so that every step acts on contiguous runs of the stack.
    A full-rank input gives Q with orthonormal columns to working
    precision; it equals the first c columns of Householder QR's Q with
    each column rephased so that the diagonal of R is positive real.
    Column j of Q depends on the first j + 1 columns of the input only, so
    the first c columns of a d x d input give the first c columns of its Q.
    """
    q = np.moveaxis(np.asarray(a, dtype=complex), (-2, -1), (0, 1)).copy()
    q_conj = np.empty_like(q)
    for k in range(q.shape[1]):
        v = q[:, k]
        for _ in range(2 if k else 0):
            coef = np.einsum("ij...,i...->j...", q_conj[:, :k], v)
            v = v - np.einsum("ij...,j...->i...", q[:, :k], coef)
        q[:, k] = v / np.sqrt(np.sum(v.real**2 + v.imag**2, axis=0))
        np.conjugate(q[:, k], out=q_conj[:, k])
    return np.moveaxis(q, (0, 1), (-2, -1))


def _expectations(fams: np.ndarray, states: np.ndarray, traces: np.ndarray) -> np.ndarray:
    """Real diagonals of F^dagger rho F for every unitary family F and state rho.

    ``fams`` stacks the first d - 1 columns of each family by block and
    sample, shape (blocks, n, d, d - 1); ``states`` holds each state's
    block, shape (states, blocks, d, d), and ``traces`` the real parts of
    their traces, shape (states, blocks).  One matrix product per state
    block covers the d - 1 columns of all n families.  The last column's
    value is the trace less the others': F is unitary, so the diagonal of
    F^dagger rho F sums to Tr rho whatever the last column is, and the
    completed value differs from the product's by rounding alone, about
    d eps |Tr rho|.  Returns shape (states, blocks, n, d).
    """
    m, n, d, c = fams.shape
    rows = np.swapaxes(fams, 1, 2).reshape(m, d, n * c)
    prod = (states @ rows).reshape(len(states), m, d, n, c)
    head = np.sum(rows.conj().reshape(m, d, n, c) * prod, axis=-3).real
    last = traces[:, :, None] - np.sum(head, axis=-1)
    return np.concatenate([head, last[..., None]], axis=-1)


def _s_tilde(expect: np.ndarray) -> np.ndarray:
    """S_tilde's terms over the last axis, summed, in bits.

    ``expect`` stacks the expectations <rho0>_a and <rho1>_a, shape
    (2, ..., columns); the share of the columns is -sum max(p - q1, 0)
    log2 p, with p clipped to [0, 1] and no log weight at p <=
    SUPPORT_FLOOR.  Serves the fixed share of a biased probe and every
    batch of either mode.
    """
    p, q1 = expect
    p = np.clip(p, 0.0, 1.0)
    excess = np.maximum(p - q1, 0.0)
    logs = np.where(p > SUPPORT_FLOOR, np.log(np.maximum(p, 1e-300)), 0.0)
    return -np.sum(excess * logs, axis=-1) / LN2


def _haar_expectations(rng, n, states, traces):
    """Expectations of both states, shape (2, n, dim), under n Haar-random bases.

    Draws a real and an imaginary (n, dim, dim - 1) normal array in one
    call, the first dim - 1 columns of a Ginibre matrix; its Q's first
    dim - 1 columns are those of a Haar basis, and the last column's
    expectation is completed from the trace (:func:`_expectations`).
    """
    dim = states.shape[-1]
    re, im = rng.standard_normal((2, n, dim, dim - 1))
    return _expectations(orthonormalize(re + 1j * im)[None], states, traces)[:, 0]


def _block_expectations(rng, n, stacks, balanced_first):
    """Expectations of a0 and a1 on the rotated columns under n rotations R.

    ``stacks`` holds, per block size d in ascending order, both states'
    rotated blocks of that size, shape (2, blocks, d, d), and their real
    traces, shape (2, blocks).  Per size, draws a real and an imaginary
    (blocks, n, d, d - 1) normal array G in one call and takes the first
    d - 1 columns of R_b = Q of I + BIAS_STRENGTH G from I[:, :d - 1] +
    BIAS_STRENGTH G, since column j of Q depends on input columns <= j
    only (:func:`orthonormalize`); the last column's expectation is
    completed from the trace (:func:`_expectations`).  All blocks of one
    size are rotated and scored in one stacked call, so a sample costs
    O(sum d^3) over the rotated blocks only.  With ``balanced_first`` the
    first rotation is the identity.  Returns shape (2, n, columns): the
    rotated columns of each size stack, block by block, concatenated.
    """
    parts = []
    for states, traces in stacks:
        k, d = states.shape[1], states.shape[-1]
        re, im = BIAS_STRENGTH * rng.standard_normal((2, k, n, d, d - 1))
        re += np.eye(d)[:, :-1]
        rot = orthonormalize(re + 1j * im)
        if balanced_first:
            rot[:, 0] = np.eye(d)[:, :-1]
        parts.append(np.swapaxes(_expectations(rot, states, traces), 1, 2).reshape(2, n, k * d))
    return np.concatenate(parts, axis=-1) if parts else np.zeros((2, n, 0))


def random_projector_probe(
    rho0: HermitianMatrix,
    rho1: HermitianMatrix,
    samples: int,
    seed: int = 0,
    mode: str = "biased",
) -> ProbeRecord:
    """Sample complete projector families and minimize S - 2*S_tilde, in bits.

    ``S_tilde = -sum max(<rho0>_a - <rho1>_a, 0) log2 <rho0>_a`` for each
    sampled family.  ``mode='haar'`` draws rotation-invariant random bases;
    ``mode='biased'`` draws random eigenprojector families of the
    reference, obtained from small intra-block rotations around the
    balanced family (included as the first sample).  S_NS is the least
    S_tilde over eigenprojector families, so ``S - 2*S_NS`` is their largest
    ``S - 2*S_tilde``, not a floor (l = 3, L = M = 2: the family that
    diagonalizes rho1 in each degeneracy block reads -0.086 bits, the bound
    +0.645).  The biased samples stay on the plateau around the balanced
    family, where S_tilde is constant; leaving the eigenprojector manifold
    lowers the sampled value by about the squared step size.

    A biased family is B R, with B the balanced eigenbasis and R
    block-diagonal over the degeneracy blocks, so both states are rotated
    into B once and each family is scored block by block, at O(sum d^3)
    instead of O(dim^3).  Only blocks of size d > 1 inside the support are
    rotated (:func:`_block_expectations`); the random stream holds, per
    batch and per rotated block size, their normals alone.  Every other
    column keeps its diagonal value under any R, so its share of S_tilde
    is formed once per probe from the diagonals of the rotated states, and
    each batch scores the rotated columns only.  A 1x1 block's diagonal is
    its value under any R.  A block outside the support has ||a0_b||_F <=
    SUPPORT_FLOOR / 2 for the reference's block a0_b.  For every unit
    vector r, <r, a0_b r> <= ||a0_b||_2 <= ||a0_b||_F, and the computed
    value carries at most d eps relative rounding on top, so every p of
    the block, its diagonal included, stays below SUPPORT_FLOOR whatever
    R_b is.  Its log weight is then 0.0, and so is each of its terms of
    S_tilde: leaving it unrotated moves nothing but the order of the sum.

    Both modes draw and score a family from its first d - 1 columns per
    block (d = dim for a Haar basis), and take the last column's
    expectation as the block's trace less the others'
    (:func:`_expectations`).  For a unitary family the diagonal of
    F^dagger rho F sums to Tr rho exactly, so this moves each expectation
    by rounding only, about d eps |Tr rho|.
    """
    if mode not in ("haar", "biased"):
        raise ValueError("mode must be 'haar' or 'biased'")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if rho0.dim != rho1.dim:
        raise ValueError("dimension mismatch")
    spec0 = eigendecompose(rho0)
    s = von_neumann_entropy(spec0)
    s_ns = not_shared_entropy(spec0, (rho1.entries[None],))
    bound = s - 2.0 * s_ns

    rng = np.random.default_rng(seed)
    fixed = 0.0
    if mode == "biased":
        base = balanced_eigenbasis(spec0, rho1)
        states = np.stack([base.conj().T @ rho.entries @ base for rho in (rho0, rho1)])
        diag = np.diagonal(states, axis1=1, axis2=2).real
        rotated = [
            block
            for block in spec0.blocks
            if len(block) > 1 and np.linalg.norm(states[0][np.ix_(block, block)]) > 0.5 * SUPPORT_FLOOR
        ]
        moved = np.isin(np.arange(rho0.dim), [i for block in rotated for i in block])
        fixed = _s_tilde(diag[:, ~moved])
        stacks = [
            (states[:, cols[:, :, None], cols[:, None, :]], diag[:, cols].sum(axis=-1))
            for cols in size_groups(rotated)
        ]
    else:
        states = np.stack([rho0.entries, rho1.entries])[:, None]
        traces = np.trace(states, axis1=-2, axis2=-1).real

    best = math.inf
    checkpoints: list[tuple[int, float]] = []
    next_checkpoint = 1
    done = 0
    while done < samples:
        n = min(PROBE_BATCH, samples - done)
        if mode == "haar":
            expect = _haar_expectations(rng, n, states, traces)
        else:
            expect = _block_expectations(rng, n, stacks, balanced_first=done == 0)
        stilde = fixed + _s_tilde(expect)
        running = np.minimum(np.minimum.accumulate(s - 2.0 * stilde), best)
        while next_checkpoint <= done + n:
            checkpoints.append((next_checkpoint, float(running[next_checkpoint - done - 1])))
            next_checkpoint *= 2
        best = float(running[-1])
        done += n
    if checkpoints[-1][0] != samples:
        checkpoints.append((samples, best))
    return ProbeRecord(
        min_value=best,
        bound=bound,
        entropy=s,
        samples=samples,
        checkpoints=tuple(checkpoints),
    )
