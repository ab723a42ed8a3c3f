"""Coupled two-particle angular momentum states and their amplitudes.

Clebsch-Gordan coefficients are computed by the Racah closed form in exact
integer arithmetic (a sign together with the square of the value as a
quotient of integers, rounded once), so every coefficient is the correctly
rounded root of its exact rational square; the term-by-term exact-rational
form of the same sum is the test oracle.  ``cg_matrix`` gives the
amplitudes of a coupled state.  Condon-Shortley phases throughout.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
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


def _racah(l1, m1, l2, m2, L, M) -> tuple[int, int, int]:
    """Racah's closed form in integers: C(l1,m1; l2,m2; L,M) = sign*sqrt(num/den).

    The alternating sum is put over P, a common multiple of its term
    denominators, and each term follows from the one before by a ratio of
    integers.  Arguments may be any integer type (numpy's too).
    """
    l1, m1, l2, m2, L, M = map(operator.index, (l1, m1, l2, m2, L, M))
    if not abs(l1 - l2) <= L <= l1 + l2:
        raise ValueError(f"triangle violation for ({l1}, {l2}, {L})")
    if m1 + m2 != M or abs(m1) > l1 or abs(m2) > l2 or abs(M) > L:
        return 0, 0, 1

    f = math.factorial
    a, b, c = l1 + l2 - L, l1 - m1, l2 + m2
    d, e = L - l2 + m1, L - l1 - m2
    kmin = max(0, -d, -e)
    kmax = min(a, b, c)
    # the kmin term of P / (k! (a-k)! (b-k)! (c-k)! (d+k)! (e+k)!)
    t = f(kmax) // f(kmin) * (f(d + kmax) // f(d + kmin)) * (f(e + kmax) // f(e + kmin))
    total = 0
    for k in range(kmin, kmax + 1):
        total += -t if k & 1 else t
        t = t * (a - k) * (b - k) * (c - k) // ((k + 1) * (d + k + 1) * (e + k + 1))
    if total == 0:
        return 0, 0, 1
    common = f(kmax) * f(a - kmin) * f(b - kmin) * f(c - kmin) * f(d + kmax) * f(e + kmax)
    num = (
        (2 * L + 1) * f(L + l1 - l2) * f(L - l1 + l2) * f(a)
        * f(L + M) * f(L - M) * f(l1 - m1) * f(l1 + m1) * f(l2 - m2) * f(l2 + m2)
        * total * total
    )
    return (1 if total > 0 else -1), num, f(l1 + l2 + L + 1) * common * common


@lru_cache(maxsize=None)
def cg(l1: int, m1: int, l2: int, m2: int, L: int, M: int) -> float:
    """Floating point Clebsch-Gordan coefficient C(l1,m1; l2,m2; L,M).

    Zero when m1 + m2 != M or a magnetic number is out of range; raises on
    a triangle violation.  The integer quotient is rounded once (int / int
    true division is correctly rounded), so the value is that of the exact
    rational square.
    """
    sign, num, den = _racah(l1, m1, l2, m2, L, M)
    return sign * math.sqrt(num / den)


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


def mirror_rows(dim: int) -> np.ndarray:
    """The row of -m for each row m of one side of a ``cg_matrix`` (``dim`` = 2l + 1)."""
    return np.arange(dim - 1, -1, -1)
