"""Coupled two-particle angular momentum states and their amplitudes.

Clebsch-Gordan coefficients are computed by the Racah closed form in exact
big-rational arithmetic (a sign together with the rational square of the
value), so the reduced density matrices of coupled states come out exact
at the superposition endpoints; ``cg_matrix`` gives the floating point
amplitudes for the whole alpha range.  Condon-Shortley phases throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

MAX_ELL = 12


@dataclass(frozen=True)
class AngularConfig:
    """Quantum numbers of a coupled pair of angular momenta."""

    l1: int
    l2: int
    L: int
    M: int

    def __post_init__(self):
        if self.l1 < 0 or self.l2 < 0:
            raise ValueError("l1, l2 must be non-negative")
        if not abs(self.l1 - self.l2) <= self.L <= self.l1 + self.l2:
            raise ValueError(f"triangle violation: |{self.l1}-{self.l2}| <= {self.L} <= {self.l1 + self.l2}")
        if abs(self.M) > self.L:
            raise ValueError(f"|M|={abs(self.M)} exceeds L={self.L}")


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

    Racah's closed form, evaluated over rationals.  Returns the exact zero
    coefficient when m1 + m2 != M or a magnetic number is out of range;
    raises on a triangle violation.
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


def cg(l1: int, m1: int, l2: int, m2: int, L: int, M: int) -> float:
    """Floating point Clebsch-Gordan coefficient."""
    return clebsch_gordan(l1, m1, l2, m2, L, M).value


@lru_cache(maxsize=None)
def cg_matrix(l: int, L: int, M: int) -> np.ndarray:
    """Amplitudes ``C[i, j]`` of the coupled state |L, M> of two angular momenta l.

    Row i and column j are the magnetic numbers l - i of particle 1 and
    l - j of particle 2 (descending m-basis), so the state's reduced
    density on particle 1 is ``C C^T``.
    """
    if l > MAX_ELL:
        raise ValueError(f"supported range is l <= {MAX_ELL}")
    AngularConfig(l, l, L, M)
    dim = 2 * l + 1
    c = np.zeros((dim, dim))
    for i in range(dim):
        m2 = M - (l - i)
        if abs(m2) <= l:
            c[i, l - m2] = cg(l, l - i, l, m2, L, M)
    c.setflags(write=False)
    return c
