"""Two electrons on a sphere: the quasi-exact L=2 level at R^2 = 6.

The wave function is an antisymmetrized coupled pair of spherical harmonics
times the correlation factor (1 + r12/4), which solves the interacting
problem exactly at energy E = 1/4 when the sphere radius satisfies R^2 = 6.
Everything is expanded over products of one-particle spherical harmonics:
the interelectronic distance is its k = 1 Perkins series on the sphere,
whose weights w_l = -4 / ((2l - 1)(2l + 1)(2l + 3)) are integer quotients
rounded once (:func:`r12_weights`), so no rational arithmetic is left at
run time; products of harmonics on one sphere are recoupled with
Clebsch-Gordan algebra.  Reduced density matrices then come out as Gram
matrices of the coefficient array.

Every product the state needs couples one of the pair's harmonics (l <= 2)
with a harmonic of the distance expansion, so the couplings form one numpy
Gaunt table over (l, m) for the small side j = 0, 1, 2 (:func:`gaunt_table`).
Its Clebsch-Gordan factors come from integer closed forms, each an exact
square num / den with both below 2**53, rounded once as sign * sqrt(num /
den) -- the value :func:`entconvex.angular.cg` gives from Racah's sum.  The
r12 product scatters its terms in the order of the term-by-term loop, so the
state is that loop's to the bit; the loop, its exact couplings, the general
Perkins series in exact rationals and the dense coupled pair are the test
oracle.  The coupled pair enters only as its at most six nonzero entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angular import cg

SPHERE_RADIUS_SQ = 6.0
ENERGY = 0.25
TOTAL_L = 2
COUPLED_L1, COUPLED_L2 = 1, 2
CORRELATION_SCALE = 4.0  # Phi = 1 + r12/4

DEFAULT_LMAX = 20
GAUNT_J = 2  # the small side of every harmonic product: the coupled pair's l
NORM_TAIL_TOL = 1e-6


def _index(l: int, m: int) -> int:
    return l * l + l + m


def basis_size(lcut: int) -> int:
    return (lcut + 1) * (lcut + 1)


def _harmonics(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The (l, m) of each index l^2 + l + m of a basis of ``dim`` harmonics."""
    shells = math.isqrt(dim)
    l = np.repeat(np.arange(shells), 2 * np.arange(shells) + 1)
    return l, np.arange(dim) - l * l - l


def _rising(x: np.ndarray, n: int) -> np.ndarray:
    """x (x + 1) ... (x + n - 1), elementwise."""
    out = np.ones_like(x)
    for i in range(n):
        out = out * (x + i)
    return out


def _cg_square(j: int, d: int, mj: int, l: np.ndarray, M: np.ndarray):
    """C(l, M - mj; j, mj | l + d, M) = sign * sqrt(num / den) with integer arrays.

    Closed forms for j <= 2 (Condon-Shortley tables): the stretched
    coupling d = j, its image d = -j under the exchange of l and L, and for
    j = 2 the middle d = 0, whose mj < 0 rows are the mirror M -> -M of
    the mj > 0 ones.
    """
    if d == j:
        num = math.comb(2 * j, j + mj) * _rising(l + M - mj + 1, j + mj) * _rising(l - M + mj + 1, j - mj)
        return np.ones_like(l), num, _rising(2 * l + 1, 2 * j)
    if d == -j:
        num = math.comb(2 * j, j + mj) * _rising(l - j - M + 1, j + mj) * _rising(l - j + M + 1, j - mj)
        return np.full_like(l, (-1) ** (j + mj)), num, _rising(2 * l - 2 * j + 2, 2 * j)
    if mj < 0:
        return _cg_square(j, d, -mj, l, -M)
    den = (2 * l - 1) * l * (l + 1) * (2 * l + 3)
    if mj == 0:
        t = 3 * M * M - l * (l + 1)
        return np.sign(t), t * t, den
    if mj == 1:
        t = 1 - 2 * M
        return np.sign(t), 3 * t * t * (l - M + 1) * (l + M), 2 * den
    return np.ones_like(l), 3 * (l + M - 1) * (l + M) * (l - M + 1) * (l - M + 2), 2 * den


def cg_table(j: int, l: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Clebsch-Gordan coefficients C(j, mj; l, m | L, mj + m) for j <= 2.

    Entry [j + mj, i, k] couples (l[i], m[i]) to L = l[i] - j + 2k, the
    values of L that parity keeps in a product of harmonics; slots outside
    the triangle, and magnetic numbers out of range, hold 0.  On these L, C(j, mj; l, m | L, M) = C(l, m; j,
    mj | L, M).  Each square is an exact integer quotient below 2**53, so
    both convert to float64 exactly and one division rounds it, as
    :func:`entconvex.angular.cg` does; larger integers raise.
    """
    if not 0 <= j <= GAUNT_J:
        raise ValueError(f"the table couples j <= {GAUNT_J}")
    l, m = np.asarray(l, dtype=np.int64), np.asarray(m, dtype=np.int64)
    if l.max(initial=0) >= 2**13:  # below it every square's integers stay far inside int64
        raise ValueError(f"l = {l.max()} is beyond the exact Clebsch-Gordan table")
    out = np.zeros((2 * j + 1, l.size, j + 1))
    for k in range(j + 1):
        L = l - j + 2 * k
        for mj in range(-j, j + 1):
            M = m + mj
            ok = (L >= np.abs(l - j)) & (np.abs(m) <= l) & (np.abs(M) <= L)
            sign, num, den = _cg_square(j, 2 * k - j, mj, l, M)
            num, den = np.where(ok, num, 0), np.where(ok, den, 1)
            if max(num.max(initial=0), den.max(initial=0)) >= 2**53:
                raise ValueError(f"Clebsch-Gordan squares at l <= {l.max()} reach 2**53 and would round twice")
            out[j + mj, :, k] = np.where(ok, sign, 0) * np.sqrt(num / den)
    return out


@lru_cache(maxsize=8)
def gaunt_table(lmax: int) -> np.ndarray:
    """Coupling of harmonic products Y_{j mj} Y_{l m} with j <= 2, l <= lmax.

    Built once per ``lmax`` and returned read-only, since every M of a
    multiplet reads the same table.

    Y_{j mj} Y_{l m} = sum_k G[j, j + mj, i, k] Y_{l - j + 2k, mj + m} for
    the harmonic i = (l, m); unused mj and k slots are zero.  Each entry is
    sqrt((2j + 1)(2l + 1) / (4 pi (2L + 1))) C(j, mj; l, m | L, M) C(j, 0;
    l, 0 | L, 0), multiplied in that order.
    """
    l, m = _harmonics(basis_size(lmax))
    table = np.zeros((GAUNT_J + 1, 2 * GAUNT_J + 1, l.size, GAUNT_J + 1))
    for j in range(GAUNT_J + 1):
        c = cg_table(j, l, m)
        L = l[:, None] - j + 2 * np.arange(j + 1)
        ratio = np.divide((2 * j + 1) * (2 * l[:, None] + 1), 4.0 * math.pi * (2 * L + 1),
                          out=np.zeros(L.shape), where=L >= np.abs(l[:, None] - j))
        table[j, :2 * j + 1, :, :j + 1] = np.sqrt(ratio) * c * c[j, l * l + l]
    table.setflags(write=False)
    return table


def r12_weights(lmax: int) -> np.ndarray:
    """4 pi R w_l for l <= lmax: the k = 1 distance series on the sphere.

    w_l = -4 / ((2l - 1)(2l + 1)(2l + 3)) is an integer quotient, so one
    division rounds it, as ``float`` rounds the exact rational.
    """
    l = np.arange(lmax + 1)
    radius = math.sqrt(SPHERE_RADIUS_SQ)
    return 4.0 * math.pi * radius * (-4 / ((2 * l - 1) * (2 * l + 1) * (2 * l + 3)))


def coupled_pair_entries(M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Antisymmetrized coupled harmonic pair as its nonzero (rows, cols, values).

    Entry [(l1,m1), (l2,m2)] multiplies Y_{l1 m1}(Omega_1) Y_{l2 m2}(Omega_2);
    C(1, m1; 2, m2 | 2, M) sits at ((1, m1), (2, m2)) and its negative at
    the transpose.  The entries come in row-major order.
    """
    if abs(M) > TOTAL_L:
        raise ValueError(f"|M| must not exceed {TOTAL_L}")
    entries = []
    for m1 in range(-COUPLED_L1, COUPLED_L1 + 1):
        m2 = M - m1
        if abs(m2) > COUPLED_L2:
            continue
        c = cg(COUPLED_L1, m1, COUPLED_L2, m2, TOTAL_L, M)
        if c == 0.0:
            continue
        entries.append((_index(COUPLED_L1, m1), _index(COUPLED_L2, m2), c))
        entries.append((_index(COUPLED_L2, m2), _index(COUPLED_L1, m1), -c))
    rows, cols, vals = zip(*sorted(entries))
    return np.array(rows), np.array(cols), np.array(vals)


def multiply_r12(entries: tuple[np.ndarray, np.ndarray, np.ndarray], lcut: int,
                 lmaxes: tuple[int, ...] = (DEFAULT_LMAX,)) -> list[np.ndarray]:
    """Coefficient arrays of r12 * (input) on the sphere surface.

    The input is its nonzero entries (rows, cols, values) in row-major
    order; the arrays are ``basis_size(lcut)`` square, of the values'
    dtype.  One array per truncation order in ``lmaxes`` of the distance
    expansion (the k = 1 series is infinite), all from one table.  The
    expansion is the addition theorem sum_l w_l sum_m (-1)^m Y_{l,-m}(1)
    Y_{l m}(2), so each input entry at (l1, m1), (l2, m2) gives the terms
    (((val w_l) (-1)^m) G_{l1 m1; l,-m}) G_{l2 m2; l m}.  They are summed by
    one ordered ``np.add.at`` per array, entry by entry, then by (l, m) and
    the two output L: each array is the term-by-term loop of its order to
    the bit.  Input entries must have l <= 2 (the Gaunt table's side); the
    caller chooses ``lcut`` large enough to hold the products.
    """
    terms = _r12_terms(entries, lcut, max(lmaxes))
    return [_scatter(terms, basis_size(lcut), lmax, entries[2].dtype) for lmax in lmaxes]


def _r12_terms(entries, lcut: int, top: int):
    """The terms of :func:`multiply_r12` up to order ``top``, in scatter order.

    Returns their output rows and columns, the order l of the distance
    expansion each comes from, and their values.
    """
    rows, cols, vals = entries
    if max(rows.max(initial=0), cols.max(initial=0)) >= basis_size(GAUNT_J):
        raise ValueError(f"r12 products take input entries with l <= {GAUNT_J} only")
    shell, mag = _harmonics(basis_size(GAUNT_J))
    l1, m1, l2, m2 = shell[rows], mag[rows], shell[cols], mag[cols]
    l, m = _harmonics(basis_size(top))  # the terms (l, m) of the expansion
    table = gaunt_table(top)
    left = table[l1, l1 + m1][:, mirror_rows(l.size)]  # Y_{l1 m1} Y_{l,-m}
    right = table[l2, l2 + m2]  # Y_{l2 m2} Y_{l m}
    vws = vals[:, None] * r12_weights(top)[l] * np.where(m % 2 == 0, 1.0, -1.0)
    terms = (vws[:, :, None] * left)[..., None] * right[:, :, None, :]
    slot = 2 * np.arange(GAUNT_J + 1)
    La = l[:, None] - l1[:, None, None] + slot  # entry, (l, m), k
    Lb = l[:, None] - l2[:, None, None] + slot
    ia = (La * La + La + (m1[:, None] - m)[..., None])[..., None]
    ib = (Lb * Lb + Lb + (m2[:, None] + m)[..., None])[:, :, None, :]
    keep = (terms != 0) & (La <= lcut)[..., None] & (Lb <= lcut)[:, :, None, :]
    ia, ib, order = (np.broadcast_to(x, terms.shape)[keep]
                     for x in (ia, ib, l[:, None, None]))
    return ia, ib, order, terms[keep]


def _scatter(terms, dim: int, lmax: int, dtype) -> np.ndarray:
    """The dim x dim sum of the terms of order at most ``lmax``, one ordered ``np.add.at``."""
    ia, ib, order, values = terms
    out = np.zeros((dim, dim), dtype=dtype)
    sel = order <= lmax
    np.add.at(out, (ia[sel], ib[sel]), values[sel])
    return out


def _correlated(M: int, lmax: int) -> tuple[np.ndarray, float, float]:
    """The correlated state (1 + r12/4) times the pair of ``M`` at order
    ``lmax``, not yet normalized, its norm, and the relative norm it loses
    when the distance series stops at ``lmax - 4``.

    The state is one dense array; the shorter series' norm is taken over
    its nonzero entries only, each summed as the dense scatter sums it, so
    the tail is that of two dense arrays to rounding.
    """
    # (1 + r12/4) times the pair, in place: the scatter starts from +0.0, so
    # adding the pair's entries after the quarter is the dense sum to the bit
    pair = coupled_pair_entries(M)
    rows, cols, vals = pair
    lcut = lmax + COUPLED_L2
    dim = basis_size(lcut)
    terms = _r12_terms(pair, lcut, lmax)
    amp = _scatter(terms, dim, lmax, vals.dtype)
    amp /= CORRELATION_SCALE
    amp[rows, cols] += vals
    ia, ib, order, values = terms
    sel = order <= lmax - 4
    at, slot = np.unique(np.concatenate([ia[sel] * dim + ib[sel], rows * dim + cols]), return_inverse=True)
    short = np.zeros(at.size, dtype=vals.dtype)
    np.add.at(short, slot[:np.count_nonzero(sel)], values[sel])
    short /= CORRELATION_SCALE
    short[slot[np.count_nonzero(sel):]] += vals
    norm = np.linalg.norm(amp)
    return amp, norm, abs(np.linalg.norm(short) - norm) / norm


@dataclass(frozen=True)
class SpheriumState:
    """One member of the L=2 multiplet, expanded over harmonic products."""

    M: int
    lmax: int = DEFAULT_LMAX

    def __post_init__(self):
        if abs(self.M) > TOTAL_L:
            raise ValueError(f"|M| must not exceed {TOTAL_L}")
        if self.lmax < 4:
            raise ValueError("lmax too small to hold the coupled pair products")

    @property
    def lcut(self) -> int:
        return self.lmax + COUPLED_L2

    def coefficients(self) -> np.ndarray:
        """Unit-norm coefficient array of the full correlated wave function."""
        return _state_coefficients(self.M, self.lmax)


@lru_cache(maxsize=32)
def _state_coefficients(M: int, lmax: int) -> np.ndarray:
    # the angular tail of the distance series must be converged in norm
    amp, norm, tail = _correlated(M, lmax)
    if tail > NORM_TAIL_TOL:
        raise ValueError(f"norm tail {tail:.3e} beyond {NORM_TAIL_TOL}; raise lmax")
    amp /= norm
    amp.setflags(write=False)
    return amp


def mirror_rows(dim: int) -> np.ndarray:
    """The index of (l, -m) for each index (l, m) of a basis of ``dim`` harmonics."""
    l, m = _harmonics(dim)
    return l * l + l - m


def angular_momentum_diagonal(lcut: int) -> np.ndarray:
    """One-particle L_z on the (l, m) harmonic basis (diagonal, eigenvalue m)."""
    return np.diag(_harmonics(basis_size(lcut))[1].astype(float))
