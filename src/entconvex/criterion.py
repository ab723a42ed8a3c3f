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
from dataclasses import dataclass

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


def _check_partner(spec0: Spectrum, rho1) -> None:
    shapes = [u.shape for _, u in spec0.groups]
    if [np.shape(m) for m in rho1] != shapes:
        raise ValueError(f"partner blocks {[np.shape(m) for m in rho1]} do not match {shapes}")


def _partner_weights(spec0: Spectrum, rho1) -> np.ndarray:
    """<v_i|rho1|v_i> for the eigenvector v_i at each position of ``spec0``.

    One batched product per size group: Re diag(U^dagger rho1_b U).
    """
    _check_partner(spec0, rho1)
    q = np.concatenate([
        np.einsum("bij,bij->bj", u.conj(), m @ u).real.ravel() for (_, u), m in zip(spec0.groups, rho1)
    ])
    return q[spec0.source]


def _check_sector_contract(spec0: Spectrum, op: np.ndarray, by_column: np.ndarray) -> None:
    """Raise if ``op`` links two amplitude blocks that hold columns of one refined block.

    ``by_column`` holds the degeneracy block of each column of ``spec0``
    (flat order), -1 where the block is not refined.
    """
    inside = sum(np.count_nonzero(op[rows[:, :, None], rows[:, None, :]]) for rows, _ in spec0.groups)
    if np.count_nonzero(op) == inside:
        return
    label = np.empty(spec0.dim, dtype=np.intp)  # each row's amplitude block
    first: list[int] = []  # each amplitude block's first row
    for rows, _ in spec0.groups:
        label[rows] = len(first) + np.arange(len(rows))[:, None]
        first += rows[:, 0].tolist()
    i, j = np.nonzero(op)
    off = label[i] != label[j]
    held = []  # the refined blocks each amplitude block holds columns of
    start = 0
    for rows, _ in spec0.groups:
        held += [set(k[k >= 0].tolist()) for k in by_column[start:start + rows.size].reshape(rows.shape)]
        start += rows.size
    for a, b in zip(i[off].tolist(), j[off].tolist()):
        if held[label[a]] & held[label[b]]:
            raise ValueError(
                f"sector operator entry ({a}, {b}) couples the amplitude blocks starting at "
                f"rows {first[label[a]]} and {first[label[b]]}, which share a degeneracy block"
            )


def refine_blocks_by_sector(
    spec0: Spectrum, sector_operator: np.ndarray, rho1
) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Split degeneracy blocks along the eigenspaces of a symmetry operator.

    Rotates the eigenvectors inside each block so they also diagonalize the
    restriction of ``sector_operator`` (which must commute with the
    reconstructed state on each block), then subdivides blocks wherever the
    operator eigenvalues differ.  Restricting the projector freedom to a
    conserved quantity reproduces computations carried out with
    symmetry-adapted basis sets, where exactly degenerate eigenvalues in
    different sectors are never mixed.

    A block whose eigenvalues all lie at or below ``SUPPORT_FLOOR`` adds
    nothing to S_NS however it is split, and is left whole.  The operator
    may not link two amplitude blocks that hold columns of one refined
    block (a ``ValueError`` names the two), so the restriction of such a
    block splits into one part per amplitude block.  Per size
    group, U^dagger op_b U and U^dagger rho1_b U are formed once; each part
    with more than one column is solved from its slices of them, batched by
    part size, and a part of one column keeps its vector and its diagonal
    entries.  The sector values of all parts of a block are then sorted
    ascending across the block and take its positions in order, so the
    sub-blocks are runs of positions, and each sub-block's eigenvalue stays
    the mean at its positions.

    ``rho1`` is the partner's density in the layout of ``spec0.groups``, one
    (blocks, size, size) stack per group.  Returns the sub-blocks and the
    partner weight <v|rho1|v> of the sector eigenvector v at each position.
    """
    op = np.asarray(sector_operator)
    if op.shape != (spec0.dim, spec0.dim):
        raise ValueError("sector operator dimension mismatch")
    _check_partner(spec0, rho1)
    w = spec0.eigenvalues
    cluster = np.repeat(np.arange(len(spec0.blocks)), [len(b) for b in spec0.blocks])
    refined = np.array([len(b) > 1 and w[b[0]] > SUPPORT_FLOOR for b in spec0.blocks])  # per block
    by_column = np.empty(spec0.dim, dtype=np.intp)
    by_column[spec0.source] = np.where(refined[cluster], cluster, -1)
    _check_sector_contract(spec0, op, by_column)
    sector = np.empty(spec0.dim)
    weight = np.empty(spec0.dim)
    offset = 0
    for (rows, u), m in zip(spec0.groups, rho1):
        n, size = rows.shape
        cols = slice(offset, offset + rows.size)
        parts = list(_parts(by_column[cols].reshape(n, size)))
        at = [offset + blk[:, None] * size + part for blk, part in parts]
        index = [(blk[:, None, None], part[:, :, None], part[:, None, :]) for blk, part in parts]
        uh = u.conj().swapaxes(1, 2)
        # one product at a time, sliced and dropped: two group-sized arrays at most
        ou = uh @ (op[rows[:, :, None], rows[:, None, :]] @ u)
        sector[cols] = np.einsum("bjj->bj", ou).real.ravel()
        rotations = []
        for flat, ix in zip(at, index):
            r = ou[ix]
            sector[flat], rot = np.linalg.eigh(0.5 * (r + r.conj().swapaxes(1, 2)))
            rotations.append(rot)
        del ou
        mu = uh @ (m @ u)
        weight[cols] = np.einsum("bjj->bj", mu).real.ravel()
        for flat, ix, rot in zip(at, index, rotations):
            weight[flat] = np.einsum("bij,bij->bj", rot.conj(), mu[ix] @ rot).real
        del mu
        offset += rows.size
    # ascending sector values take each refined block's positions in order
    values, weights = sector[spec0.source], weight[spec0.source]
    blocks: list[tuple[int, ...]] = []
    for block, split in zip(spec0.blocks, refined):
        if not split:
            blocks.append(block)
            continue
        pos = np.array(block)
        order = pos[np.argsort(values[pos], kind="stable")]
        values[pos], weights[pos] = values[order], weights[order]
        blocks += [tuple(block[k] for k in run) for run in gap_clusters(-values[pos], SECTOR_TOL)]
    return tuple(blocks), weights


def _parts(by_column: np.ndarray):
    """The columns of one block of one degeneracy block, where there are more than one.

    ``by_column`` holds each column's degeneracy block, shape (blocks,
    size), -1 where that block is not refined.  Yields, per part size, the
    amplitude blocks of the parts, shape (parts,), and their columns,
    shape (parts, part size).
    """
    blk, col = np.nonzero(by_column >= 0)
    if blk.size == 0:
        return
    key = blk * (by_column.max() + 1) + by_column[blk, col]
    order = np.argsort(key, kind="stable")
    key, blk, col = key[order], blk[order], col[order]
    cuts = np.flatnonzero(np.diff(key)) + 1
    parts = [p for p in np.split(np.arange(key.size), cuts) if p.size > 1]
    for k in sorted({p.size for p in parts}):
        idx = np.stack([p for p in parts if p.size == k])
        yield blk[idx[:, 0]], col[idx]


def not_shared_entropy(spec0: Spectrum, rho1, sector_operator: np.ndarray | None = None) -> float:
    """Not-shared entropy in bits: the family-dependent sum minimized inside each block.

    A block with eigenvalue lambda and dimension d contributes
    ``Theta[d lambda - Tr(Pi rho1 Pi)] log2(1/lambda)``; for d = 1 this is
    the plain projector term and for d = 2 it reproduces the explicit
    twofold-degeneracy case analysis.  Every eigenvector lies in one
    amplitude block, so Tr(Pi rho1 Pi) is the sum of its columns' partner
    weights, Re diag(U^dagger rho1_b U), and lambda is the mean of the
    block's eigenvalues.

    ``rho1`` is the partner's density in the layout of ``spec0.groups``,
    one (blocks, size, size) stack per group; a dense density ``r`` of a
    dense spectrum is ``(r[None],)``.  ``sector_operator``, when given,
    restricts the minimization to eigenprojectors that respect the sectors
    of a conserved quantity (:func:`refine_blocks_by_sector`).
    """
    if sector_operator is None:
        blocks, q = spec0.blocks, _partner_weights(spec0, rho1)
    else:
        blocks, q = refine_blocks_by_sector(spec0, sector_operator, rho1)
    starts = np.array([b[0] for b in blocks])
    sizes = np.diff(starts, append=spec0.dim)
    lam = np.add.reduceat(spec0.eigenvalues, starts) / sizes
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


def criterion_report(
    spec0: Spectrum,
    rho1,
    s1: float,
    sector_operator: np.ndarray | None,
) -> CriterionReport:
    """The criterion for reference spectrum ``spec0`` and a partner of entropy ``s1``.

    ``rho1`` is the partner's density in the layout of ``spec0.groups``
    (see :func:`not_shared_entropy`).  ``sector_operator``, when given,
    restricts the degenerate-subspace minimization to eigenprojectors that
    respect the sectors of a conserved quantity (see
    :func:`refine_blocks_by_sector`).
    """
    s0 = von_neumann_entropy(spec0)
    s_ns = min(not_shared_entropy(spec0, rho1, sector_operator), s0)
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
    """Q of the QR factorization of each square matrix in a stack, with diag(R) > 0.

    Classical Gram-Schmidt with one reorthogonalization pass (CGS2) over
    the columns, vectorized over the stack, which is moved to the trailing
    axes so that every step acts on contiguous runs of the stack.  A
    full-rank input gives Q orthonormal to working precision; it equals
    Householder QR's Q with each column rephased so that the diagonal of R
    is positive real.
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


def _expectations(fams: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Real diagonals of F^dagger rho F for every family F and state rho.

    ``fams`` stacks the families (as columns) by block and sample, shape
    (blocks, n, d, d); ``states`` holds each state's block, shape
    (states, blocks, d, d).  One matrix product per state block covers all
    n families.  Returns shape (states, blocks, n, d).
    """
    m, n, d, _ = fams.shape
    rows = np.swapaxes(fams, 1, 2).reshape(m, d, n * d)
    prod = (states @ rows).reshape(len(states), m, d, n, d)
    return np.sum(rows.conj().reshape(m, d, n, d) * prod, axis=-3).real


def _haar_expectations(rng, n, rho0, rho1):
    dim = len(rho0)
    g = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    return _expectations(orthonormalize(g)[None], np.stack([rho0, rho1])[:, None])[:, 0]


def _block_expectations(rng, n, diag, stacks, balanced_first):
    """Expectations of a0 and a1 under n block-diagonal rotations R.

    ``diag`` holds the real diagonals of a0 and a1, shape (2, dim), the
    expectations under R = I.  ``stacks`` holds, per block size d in
    ascending order, the rotated blocks' columns, shape (blocks, d), and
    both states' blocks, shape (2, blocks, d, d).  Per size, draws a real
    and then an imaginary (blocks, n, d, d) normal array G and takes
    R_b = Q of I + BIAS_STRENGTH G; all blocks of one size are rotated and
    scored in one stacked call, so a sample costs O(sum d^3) over the
    rotated blocks only.  Every other column keeps its diagonal value.
    With ``balanced_first`` the first rotation is the identity.
    """
    out = np.repeat(diag[:, None], n, axis=1)
    for cols, states in stacks:
        k, d = cols.shape
        g = rng.standard_normal((k, n, d, d)) + 1j * rng.standard_normal((k, n, d, d))
        rot = orthonormalize(np.eye(d) + BIAS_STRENGTH * g)
        if balanced_first:
            rot[:, 0] = np.eye(d)
        out[:, :, cols] = np.swapaxes(_expectations(rot, states), 1, 2)
    return out


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
    balanced family (included as the first sample).  Only eigenprojector
    families satisfy ``S - 2*S_tilde >= S - 2*S_NS``; leaving that
    manifold lowers the sampled value by about the squared step size, so
    the educated sampler stays on it.

    A biased family is B R, with B the balanced eigenbasis and R
    block-diagonal over the degeneracy blocks, so both states are rotated
    into B once and each family is scored block by block, at O(sum d^3)
    instead of O(dim^3).  Every expectation starts from the diagonals of
    the rotated states, and only blocks of size d > 1 inside the support
    are rotated (:func:`_block_expectations`); the random stream holds
    their normals alone.  A 1x1 block's diagonal is its value under any R.
    A block outside the support has ||a0_b||_F <= SUPPORT_FLOOR / 2 for the
    reference's block a0_b.  For every unit vector r, <r, a0_b r> <=
    ||a0_b||_2 <= ||a0_b||_F, and the computed value carries at most d eps
    relative rounding on top, so every p of the block, its diagonal
    included, stays below SUPPORT_FLOOR whatever R_b is.  Its log weight is
    then 0.0, and so is each of its terms of S_tilde: the minimum and every
    checkpoint are bit-identical to rotating the block.
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
    if mode == "biased":
        base = balanced_eigenbasis(spec0, rho1)
        states = np.stack([base.conj().T @ rho.entries @ base for rho in (rho0, rho1)])
        diag = np.diagonal(states, axis1=1, axis2=2).real
        rotated = [
            block
            for block in spec0.blocks
            if len(block) > 1 and np.linalg.norm(states[0][np.ix_(block, block)]) > 0.5 * SUPPORT_FLOOR
        ]
        stacks = [(cols, states[:, cols[:, :, None], cols[:, None, :]]) for cols in size_groups(rotated)]

    best = math.inf
    checkpoints: list[tuple[int, float]] = []
    next_checkpoint = 1
    done = 0
    while done < samples:
        n = min(PROBE_BATCH, samples - done)
        if mode == "haar":
            p, q1 = _haar_expectations(rng, n, rho0.entries, rho1.entries)
        else:
            p, q1 = _block_expectations(rng, n, diag, stacks, balanced_first=done == 0)
        p = np.clip(p, 0.0, 1.0)
        excess = np.maximum(p - q1, 0.0)
        logs = np.where(p > SUPPORT_FLOOR, np.log(np.maximum(p, 1e-300)), 0.0)
        stilde = -np.sum(excess * logs, axis=1) / LN2
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
