"""Laguerre-Gaussian transverse photon modes and x|y single-particle entanglement.

A one-photon state in a pure LG mode is a function of the two transverse
coordinates; tracing one coordinate out of the (normalized) transverse
profile defines single-particle entanglement.  Mode amplitudes are expanded
over one-coordinate Hermite functions in x and quadrature nodes in y; all
integrals are Gauss-Hermite sums that are exact for the
polynomial-times-Gaussian integrands at z = 0, where the waist parameter
makes the mode weight exp(-r^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .oscillator import gauss_hermite, hermite_functions

DEFAULT_BASIS_SIZE = 32
DEFAULT_QUADRATURE_ORDER = 64
WAIST = 1.0  # s0 at the beam waist (z = 0)


@dataclass(frozen=True)
class LGMode:
    """Transverse Laguerre-Gaussian mode (l radial nodes, m units of L_z)."""

    l: int
    m: int

    def __post_init__(self):
        if self.l < 0:
            raise ValueError("radial index l must be non-negative")

    def label(self) -> str:
        return f"LG(l={self.l}, m={self.m})"


def lg_evaluate(mode: LGMode, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Un-normalized mode profile at the waist.

    r^|m| e^{i m phi} L_l^{|m|}(r^2) e^{-r^2} written polynomially as
    (x + i sgn(m) y)^{|m|} L_l^{|m|}(x^2 + y^2) e^{-(x^2+y^2)}.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r2 = x * x + y * y
    am = abs(mode.m)
    azim = (x + 1j * np.sign(mode.m) * y) ** am if am else np.ones_like(r2, dtype=complex)
    return azim * _genlaguerre(mode.l, am, r2 / WAIST**2) * np.exp(-r2 / WAIST**2)


def _genlaguerre(n: int, alpha: int, x: np.ndarray) -> np.ndarray:
    """L_n^alpha(x), n >= 0: forward recurrence of L_k^alpha / binom(k + alpha, k)."""
    if n == 0:
        return np.ones_like(x)
    if n == 1:
        return -x + alpha + 1
    d = -x / (alpha + 1)
    p = d + 1
    for k in range(1, n):
        d = -x / (k + alpha + 1) * p + k / (k + alpha + 1) * d
        p = d + p
    return float(math.comb(n + alpha, n)) * p


@lru_cache(maxsize=8)
def _x_basis(n_basis: int, order: int) -> tuple[np.ndarray, ...]:
    """What :func:`_mode_profile` shares between modes, read-only: the nodes,
    their weights, exp(t^2/2), and the pre-scaled x-basis f_a(x_i) exp(t_i^2/2)."""
    t, wt = gauss_hermite(order)
    xs = math.sqrt(2.0 / 3.0) * t
    ys = t / math.sqrt(2.0)  # the y-nodes use the same rule
    scale = np.exp(0.5 * t * t)
    f = hermite_functions(n_basis - 1, xs) * scale[None, :]
    root_wt = np.sqrt(wt)
    for a in (xs, ys, scale, f, root_wt):
        a.setflags(write=False)
    return xs, ys, wt, scale, f, root_wt


def _mode_profile(l: int, m: int, n_basis: int, order: int) -> np.ndarray:
    """The amplitudes v_a(y_q) of :func:`mode_columns` before conjugation and normalization."""
    if n_basis < 1 or order < 1:
        raise ValueError("basis and quadrature sizes must be positive")
    xs, ys, wt, scale, f, root_wt = _x_basis(n_basis, order)
    prof = lg_evaluate(LGMode(l, m), xs[:, None], ys[None, :])
    prof = prof * scale[:, None]
    # the x-integral as two real two-operand einsums: together bit for bit
    # the three-operand einsum, which numpy runs in its unoptimized loop; a
    # BLAS product would reorder the sums and move LG's S_NS
    w = f * wt
    v = math.sqrt(2.0 / 3.0) * (np.einsum("ai,iq->aq", w, prof.real) + 1j * np.einsum("ai,iq->aq", w, prof.imag))
    return v * scale[None, :] * root_wt[None, :] / 2.0 ** 0.25


@lru_cache(maxsize=64)
def mode_columns(l: int, m: int, n_basis: int, order: int) -> np.ndarray:
    """Amplitudes conj(v_a(y_q)) of the unit-norm mode over x-basis and y-nodes.

    v_a(y_q) = integral dx f_a(x) u(x, y_q).  The x-integral is
    Gauss-Hermite on x = sqrt(2/3) t (combined weight exp(-3x^2/2));
    y-nodes are y = u/sqrt(2) so that column Gram sums with plain weights
    reproduce dy-integrals of the exp(-2y^2) products, and the columns are
    pre-scaled by exp(u^2/2) for those sums.  The Gram matrix c c^dagger
    of the returned c is the reduced density over x in the convention
    rho_ab = integral dy conj(v_a) v_b.
    """
    v = _mode_profile(l, m, n_basis, order)
    # unit norm: the Gram trace is the squared L2 norm of the captured profile
    nrm = math.sqrt(np.sum(np.abs(v) ** 2).real)
    if nrm <= 0.0:
        raise ValueError("mode quadrature produced a null profile")
    c = v.conj() / nrm
    c.setflags(write=False)
    return c


def mode_norm_capture(mode: LGMode, n_basis: int = DEFAULT_BASIS_SIZE,
                      order: int = DEFAULT_QUADRATURE_ORDER) -> float:
    """Share of the mode norm the Hermite basis captures, against 16 more functions.

    A diagnostic: it reads the squared norms of the profiles before
    :func:`mode_columns` normalizes them.
    """
    v = _mode_profile(mode.l, mode.m, n_basis, order)
    big = _mode_profile(mode.l, mode.m, n_basis + 16, order)
    return float(np.sum(np.abs(v) ** 2) / np.sum(np.abs(big) ** 2))
