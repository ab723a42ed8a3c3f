"""Two electrons on a sphere: the quasi-exact L=2 level at R^2 = 6.

The wave function is an antisymmetrized coupled pair of spherical harmonics
times the correlation factor (1 + r12/4), which solves the interacting
problem exactly at energy E = 1/4 when the sphere radius satisfies R^2 = 6.
Everything is expanded over products of one-particle spherical harmonics:
the interelectronic distance is converted with the Perkins expansion, whose
radial coefficients are kept as exact rationals, and products of harmonics
on one sphere are recoupled with Clebsch-Gordan algebra.  Reduced density
matrices then come out as Gram matrices of the coefficient array.

Every product the state needs couples one of the pair's harmonics (l <= 2)
with a harmonic of the distance expansion, so the couplings form one numpy
Gaunt table over (l, m) for the small side j = 0, 1, 2 (:func:`gaunt_table`).
Its Clebsch-Gordan factors come from integer closed forms, each an exact
square num / den with both below 2**53, rounded once as sign * sqrt(num /
den) -- the value :func:`entconvex.angular.cg` gives from Racah's sum.  The
r12 product scatters its terms in the order of the term-by-term loop, so the
state is that loop's to the bit; the loop and its exact couplings are the
test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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


def coupled_pair_array(M: int, lcut: int) -> np.ndarray:
    """Antisymmetrized coupled harmonic pair as a coefficient array.

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


def multiply_r12(arr: np.ndarray, lcut: int,
                 lmaxes: tuple[int, ...] = (DEFAULT_LMAX,)) -> list[np.ndarray]:
    """Coefficient arrays of r12 * (input array) on the sphere surface.

    One array per truncation order in ``lmaxes`` of the distance expansion
    (the k = 1 series is infinite), all from one table.  The expansion is
    the addition theorem sum_l w_l sum_m (-1)^m Y_{l,-m}(1) Y_{l m}(2), so
    each nonzero input entry at (l1, m1), (l2, m2) gives the terms
    (((val w_l) (-1)^m) G_{l1 m1; l,-m}) G_{l2 m2; l m}.  They are summed by
    one ordered ``np.add.at`` per array, entry by entry in row-major order,
    then by (l, m) and the two output L: each array is the term-by-term
    loop of its order to the bit.  Input entries must have l <= 2 (the
    Gaunt table's side); the caller chooses ``lcut`` large enough to hold
    the products.
    """
    dim = basis_size(lcut)
    if arr.shape != (dim, dim):
        raise ValueError("array does not match the basis cut")
    rows, cols = np.nonzero(arr)
    shell, mag = _harmonics(dim)
    l1, m1, l2, m2 = shell[rows], mag[rows], shell[cols], mag[cols]
    if max(l1.max(initial=0), l2.max(initial=0)) > GAUNT_J:
        raise ValueError(f"r12 products take input entries with l <= {GAUNT_J} only")
    radius = math.sqrt(SPHERE_RADIUS_SQ)
    top = max(lmaxes)
    weights = [4.0 * math.pi * radius * float(perkins_weight(1, l)) for l in range(top + 1)]
    l, m = _harmonics(basis_size(top))  # the terms (l, m) of the expansion
    table = gaunt_table(top)
    left = table[l1, l1 + m1][:, mirror_rows(l.size)]  # Y_{l1 m1} Y_{l,-m}
    right = table[l2, l2 + m2]  # Y_{l2 m2} Y_{l m}
    vws = arr[rows, cols][:, None] * np.array(weights)[l] * np.where(m % 2 == 0, 1.0, -1.0)
    terms = (vws[:, :, None] * left)[..., None] * right[:, :, None, :]
    slot = 2 * np.arange(GAUNT_J + 1)
    La = l[:, None] - l1[:, None, None] + slot  # entry, (l, m), k
    Lb = l[:, None] - l2[:, None, None] + slot
    ia = (La * La + La + (m1[:, None] - m)[..., None])[..., None]
    ib = (Lb * Lb + Lb + (m2[:, None] + m)[..., None])[:, :, None, :]
    keep = (terms != 0) & (La <= lcut)[..., None] & (Lb <= lcut)[:, :, None, :]
    ia, ib, order = (np.broadcast_to(x, terms.shape)[keep]
                     for x in (ia, ib, l[:, None, None]))
    terms = terms[keep]
    outs = []
    for lmax in lmaxes:
        out = np.zeros_like(arr)
        sel = order <= lmax
        np.add.at(out, (ia[sel], ib[sel]), terms[sel])
        outs.append(out)
    return outs


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
    lcut = lmax + COUPLED_L2
    pair = coupled_pair_array(M, lcut)
    # the angular tail of the distance series must be converged in norm
    r12 = multiply_r12(pair, lcut, (lmax, lmax - 4))
    amp, amp_lo = (pair + r / CORRELATION_SCALE for r in r12)
    norm = np.linalg.norm(amp)
    tail = abs(np.linalg.norm(amp_lo) - norm) / norm
    if tail > NORM_TAIL_TOL:
        raise ValueError(f"norm tail {tail:.3e} beyond {NORM_TAIL_TOL}; raise lmax")
    amp = amp / norm
    amp.setflags(write=False)
    return amp


def mirror_rows(dim: int) -> np.ndarray:
    """The index of (l, -m) for each index (l, m) of a basis of ``dim`` harmonics."""
    l, m = _harmonics(dim)
    return l * l + l - m


def angular_momentum_diagonal(lcut: int) -> np.ndarray:
    """One-particle L_z on the (l, m) harmonic basis (diagonal, eigenvalue m)."""
    return np.diag(_harmonics(basis_size(lcut))[1].astype(float))
