"""Two electrons on a sphere: the quasi-exact L=2 level at R^2 = 6.

The wave function is an antisymmetrized coupled pair of spherical harmonics
times the correlation factor (1 + r12/4), which solves the interacting
problem exactly at energy E = 1/4 when the sphere radius satisfies R^2 = 6.
Everything is expanded over products of one-particle spherical harmonics:
the interelectronic distance is converted with the Perkins expansion, whose
radial coefficients are kept as exact rationals, and products of harmonics
on one sphere are recoupled with Clebsch-Gordan algebra.  Reduced density
matrices then come out as Gram matrices of the coefficient array.
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


@lru_cache(maxsize=None)
def sph_product(l1: int, m1: int, l2: int, m2: int) -> tuple[tuple[int, float], ...]:
    """Coupling of a product of spherical harmonics on one sphere.

    Y_{l1 m1} Y_{l2 m2} = sum_L c_L Y_{L, m1+m2}; returns the nonzero
    (L, c_L) pairs.  Parity restricts L to l1 + l2 (mod 2), so the
    mirror symmetry C(l1,-m1; l2,-m2; L,-M) = (-1)^(l1+l2-L) C(l1,m1;
    l2,m2; L,M) has sign +1 on every kept L and a mirrored key returns
    the same tuple: each key is computed with m1 > 0, or m1 = 0 <= m2.
    """
    if m1 < 0 or (m1 == 0 and m2 < 0):
        return sph_product(l1, -m1, l2, -m2)
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


def _index(l: int, m: int) -> int:
    return l * l + l + m


def basis_size(lcut: int) -> int:
    return (lcut + 1) * (lcut + 1)


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
    (the k = 1 series is infinite), all from one pass; each array gets its
    terms in the order of a pass of its own, so it equals that pass to the
    bit.  The caller chooses ``lcut`` large enough to hold the products.
    """
    dim = basis_size(lcut)
    if arr.shape != (dim, dim):
        raise ValueError("array does not match the basis cut")
    radius = math.sqrt(SPHERE_RADIUS_SQ)
    outs = [np.zeros_like(arr) for _ in lmaxes]
    weights = []  # (l, weight, the outputs whose order reaches l) for nonzero weights
    for l in range(max(lmaxes) + 1):
        w = 4.0 * math.pi * radius * float(perkins_weight(1, l))
        if w != 0.0:
            weights.append((l, w, [out for out, top in zip(outs, lmaxes) if l <= top]))
    rows, cols = np.nonzero(arr)
    for r, c, val in zip(rows.tolist(), cols.tolist(), arr[rows, cols].tolist()):
        l1 = math.isqrt(r)
        m1 = r - l1 * l1 - l1
        l2 = math.isqrt(c)
        m2 = c - l2 * l2 - l2
        for l, w, targets in weights:
            vw = val * w
            for m in range(-l, l + 1):
                left = sph_product(l1, m1, l, -m)
                right = sph_product(l2, m2, l, m)
                if not left or not right:
                    continue
                # the products keep the association ((((val w) sign) ca) cb)
                vws = vw * (-1) ** m
                for La, ca in left:
                    if La > lcut:
                        continue
                    ia = La * La + La + m1 - m
                    vwsa = vws * ca
                    for Lb, cb in right:
                        if Lb > lcut:
                            continue
                        term = vwsa * cb
                        ib = Lb * Lb + Lb + m2 + m
                        for out in targets:
                            out[ia, ib] += term
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
    shells = math.isqrt(dim)
    l = np.repeat(np.arange(shells), 2 * np.arange(shells) + 1)
    return 2 * (l * l + l) - np.arange(dim)


def angular_momentum_diagonal(lcut: int) -> np.ndarray:
    """One-particle L_z on the (l, m) harmonic basis (diagonal, eigenvalue m)."""
    diag = np.empty(basis_size(lcut))
    for l in range(lcut + 1):
        for m in range(-l, l + 1):
            diag[_index(l, m)] = m
    return np.diag(diag)
