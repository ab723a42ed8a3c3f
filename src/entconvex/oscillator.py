"""Two harmonically coupled 2D oscillators: exact states as bipartite amplitudes.

Eigenstates are products of centered- and relative-coordinate modes with
frequencies 1 and sqrt(4*lambda + 1).  The bipartite coefficient tensor
expands the state over products of one-particle one-coordinate Hermite
functions ``f^1_k``; with the separated arguments scaled by 1/sqrt(2) the
lambda = 0 expansion terminates exactly, and the interacting case is
integrated by Gauss-Hermite quadrature (the integrands are polynomials
times Gaussians, so the quadrature itself is exact at sufficient order).
Coefficient tensors are memoized in memory for the life of the process.

Every array this module returns is in one fixed phase gauge: each
particle's basis function f_kx(x) f_ky(y) is multiplied by i^(-ky)
(:func:`gauge_phases`).  In that gauge x and p_y are real and y and p_x
imaginary, so the Hamiltonian and each particle's L_z are real, and so
is every eigenstate.  The gauge is a diagonal local unitary: it commutes
with the truncation, keeps every reduced spectrum, and multiplying by a
power of i is exact in floating point.  It acts on the y-factors alone,
so only their small table is complex, and one real contraction follows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

NORM_DEFICIT_TOL = 1e-6
# the imaginary part the gauged y-factor table drops, relative to its largest entry
GAUGE_IMAG_TOL = 1e-12


def omega_relative(lam: float) -> float:
    """Relative-coordinate frequency sqrt(4*lambda + 1)."""
    if lam < 0:
        raise ValueError("coupling must be >= 0")
    return math.sqrt(4.0 * lam + 1.0)


@dataclass(frozen=True)
class OscState:
    """Quantum numbers (n, m) of the centered and (l, p) of the relative mode."""

    n: int
    m: int
    l: int
    p: int
    lam: float = 0.0

    def __post_init__(self):
        if self.n < 0 or self.l < 0:
            raise ValueError("radial quantum numbers must be non-negative")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"coupling strength lambda must be finite and >= 0, got {self.lam!r}")

    @property
    def energy(self) -> float:
        wr = omega_relative(self.lam)
        return (2 * self.n + abs(self.m) + 1) * 1.0 + (2 * self.l + abs(self.p) + 1) * wr

    @property
    def lz(self) -> int:
        return self.m + self.p

    def label(self) -> str:
        return f"{self.n},{self.m},{self.l},{self.p}"


class NormDeficitError(ValueError):
    """The basis keeps less than 1 - ``NORM_DEFICIT_TOL`` of a state's norm."""


@dataclass(frozen=True)
class OscBasisSpec:
    """Hermite-basis size per coordinate and quadrature order."""

    n_per_coordinate: int = 16
    quadrature_order: int = 48

    def __post_init__(self):
        if self.n_per_coordinate < 1 or self.quadrature_order < 1:
            raise ValueError("basis and quadrature sizes must be positive")

    def check_state(self, state: OscState):
        """Raise when the basis is below the state's exactness bound, exact only at
        lambda = 0; at lambda > 0 the norm-deficit check of :func:`coefficient_tensor` guards."""
        need = 2 * state.n + abs(state.m) + 2 * state.l + abs(state.p) + 2
        if self.n_per_coordinate < need:
            raise ValueError(
                f"basis size {self.n_per_coordinate} below exactness bound {need}"
            )


def kappa_coefficients(n: int, m: int) -> dict[tuple[int, int], complex]:
    """Cylindrical-to-Cartesian mode expansion coefficients.

    kappa(n, m, j, k) multiplies the Cartesian state with quantum numbers
    (2n + |m| - j - k, j + k); the i^(sgn(m)(k-j)) phase makes the map
    unitary.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    am = abs(m)
    sg = 1 if m >= 0 else -1
    pref = 1.0 / math.sqrt(math.factorial(n) * math.factorial(n + am) * 2.0 ** (2 * n + am))
    out: dict[tuple[int, int], complex] = {}
    for j in range(n + 1):
        for k in range(n + am + 1):
            mag = (
                pref
                * math.comb(n, j)
                * math.comb(n + am, k)
                * math.sqrt(math.factorial(2 * n + am - j - k) * math.factorial(j + k))
            )
            out[(j, k)] = mag * (1j) ** (sg * (k - j))
    return out


def hermite_functions(nmax: int, u: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite functions psi_0..psi_nmax on the grid ``u``."""
    out = np.empty((nmax + 1, u.size))
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * u**2)
    if nmax >= 1:
        out[1] = math.sqrt(2.0) * u * out[0]
    for k in range(1, nmax):
        out[k + 1] = math.sqrt(2.0 / (k + 1)) * u * out[k] - math.sqrt(k / (k + 1)) * out[k - 1]
    return out


@lru_cache(maxsize=8)
def gauss_hermite(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the ``order``-point rule for weight exp(-t^2)."""
    t, w = np.polynomial.hermite.hermgauss(order)
    t.flags.writeable = w.flags.writeable = False
    return t, w


@lru_cache(maxsize=32)
def _overlap_tensor(n_basis: int, a_max: int, c_max: int, omega_r: float, order: int):
    """O[i1, i2, a, c] = <f_i1(x1) f_i2(x2) | f_a^1(u) f_c^wr(v)>.

    u = (x1 + x2)/sqrt(2), v = (x1 - x2)/sqrt(2).  The combined Gaussian
    weight is exp(-u^2/2) exp(-(1+wr) v^2/4), so scaled Gauss-Hermite
    nodes integrate the polynomial part exactly.
    """
    t, wt = gauss_hermite(order)
    su = math.sqrt(2.0)
    sv = 2.0 / math.sqrt(1.0 + omega_r)
    u = su * t
    v = sv * t
    # weights with the e^{t^2} compensation folded in (functions carry
    # their own Gaussians)
    wu = wt * np.exp(t**2) * su
    wv = wt * np.exp(t**2) * sv

    uu, vv = np.meshgrid(u, v, indexing="ij")
    x1 = (uu + vv) / math.sqrt(2.0)
    x2 = (uu - vv) / math.sqrt(2.0)
    nmax = n_basis - 1
    f1 = (0.5) ** 0.25 * hermite_functions(nmax, (x1 / math.sqrt(2.0)).ravel())
    f2 = (0.5) ** 0.25 * hermite_functions(nmax, (x2 / math.sqrt(2.0)).ravel())
    f1 = f1.reshape(nmax + 1, order, order)
    f2 = f2.reshape(nmax + 1, order, order)
    fa = (0.5) ** 0.25 * hermite_functions(a_max, u / math.sqrt(2.0))
    fc = (omega_r / 2.0) ** 0.25 * hermite_functions(c_max, math.sqrt(omega_r / 2.0) * v)

    out = np.einsum(
        "ipq,jpq,ap,cq,p,q->ijac", f1, f2, fa, fc, wu, wv, optimize=True
    )
    out.setflags(write=False)
    return out


def gauge_phases(nb: int) -> np.ndarray:
    """i^(-k) for each one-coordinate Hermite index k < ``nb``, exactly."""
    return np.array([1.0, -1.0j, -1.0, 1.0j])[np.arange(nb) % 4]


def coefficient_tensor(state: OscState, basis: OscBasisSpec | None = None) -> np.ndarray:
    """Unit-norm real bipartite amplitudes of one eigenstate over the gauged f^1 product basis.

    Rows group particle 1's (x, y) Hermite indices, columns particle
    2's, y fastest; the array is read-only.  It is D c D^T, with c the
    Cartesian amplitudes and D = diag(i^(-ky)) the module's gauge.  With
    kappa summed per y-quantum (b = j + k, d = r + s), D c D^T[x1 y1,
    x2 y2] = sum_bd O[x1, x2, a_max - b, c_max - d] T[y1, y2, b, d], where
    T = i^-(y1 + y2) kappa_c[b] kappa_r[d] O[y1, y2, b, d] is the only
    complex array; an imaginary part of T above ``GAUGE_IMAG_TOL`` of its
    largest real entry raises.  Raises :class:`NormDeficitError` when the
    truncated expansion loses more than 1e-6 of the norm (basis too small;
    at lambda > 0 a state within ``check_state``'s bound can).  Results are memoized
    in memory: a pair's curve reads its amplitudes once, but one state joins
    several pairs (table 1 reuses states across rows), and a pair's criterion,
    curve and probe endpoints, asked for one by one, each read them again.
    """
    return _coefficient_tensor_cached(state, basis or OscBasisSpec())


@lru_cache(maxsize=64)
def _coefficient_tensor_cached(state: OscState, basis: OscBasisSpec) -> np.ndarray:
    basis.check_state(state)
    nb = basis.n_per_coordinate
    wr = omega_relative(state.lam)
    a_max = 2 * state.n + abs(state.m)
    c_max = 2 * state.l + abs(state.p)
    ox = _overlap_tensor(nb, a_max, c_max, wr, basis.quadrature_order)

    kap = []  # kappa summed per y-quantum: b = j + k, then d = r + s
    for (n, m), top in (((state.n, state.m), a_max), ((state.l, state.p), c_max)):
        per_quantum = np.zeros(top + 1, dtype=complex)
        for (j, k), v in kappa_coefficients(n, m).items():
            per_quantum[j + k] += v
        kap.append(per_quantum)
    # the y-factor table T; its phases are powers of i, so T.real is exact
    ph = gauge_phases(nb)
    t = np.outer(ph, ph)[:, :, None, None] * (np.outer(*kap) * ox)
    dropped = float(np.max(np.abs(t.imag)))
    if dropped > GAUGE_IMAG_TOL * float(np.max(np.abs(t.real))):
        raise ValueError(f"gauged amplitudes keep an imaginary part {dropped:.3e}")
    amp = np.einsum("ikbd,jlbd->ijkl", ox[:, :, a_max::-1, c_max::-1], t.real, optimize=True)
    amp = amp.reshape(nb * nb, nb * nb) + 0.0  # no negative zeros, like sweep.Mirror's image
    norm = np.linalg.norm(amp)
    if norm**2 < 1.0 - NORM_DEFICIT_TOL:
        raise NormDeficitError(
            f"norm deficit {1.0 - norm**2:.3e} beyond {NORM_DEFICIT_TOL} at basis size {nb}; "
            "enlarge the basis"
        )
    amp /= norm
    amp.setflags(write=False)
    return amp


def mirror_parity(dim: int) -> np.ndarray:
    """(-1)^ky for each of the ``dim`` rows of a :func:`coefficient_tensor`.

    In the gauge this is the reflection y -> -y, which maps the state
    (n, m, l, p) onto (n, -m, l, -p).
    """
    nb = math.isqrt(dim)
    return 1 - 2 * (np.arange(dim) % nb % 2)


# ---------------------------------------------------------------------------
# one-particle operators in the f^1 basis

@lru_cache(maxsize=8)
def _ladder_matrices(nb: int):
    """Real x and P, with p = iP, on one coordinate's Hermite functions."""
    idx = np.arange(1, nb)
    x = np.zeros((nb, nb))
    x[idx - 1, idx] = np.sqrt(idx)
    x[idx, idx - 1] = np.sqrt(idx)
    P = np.zeros((nb, nb))
    P[idx - 1, idx] = -0.5 * np.sqrt(idx)
    P[idx, idx - 1] = 0.5 * np.sqrt(idx)
    return x, P


def angular_momentum_matrix(basis: OscBasisSpec | None = None) -> np.ndarray:
    """One-particle L_z = x p_y - y p_x on the gauged (x, y) Hermite product basis.

    This is the conserved quantity of the reduced problem: both endpoint
    reduced densities commute with it, so it labels their eigenvectors by
    angular momentum sectors.  Used to restrict the not-shared-entropy
    projector freedom to symmetry-respecting choices (the convention of a
    symmetry-adapted variational treatment).

    It is returned as D L_z D^dagger, D = diag(i^(-ky)) as for
    :func:`coefficient_tensor`.  On a matrix M[a, b] that is nonzero only
    at |a - b| = 1, as x and p are, D M D^dagger = i sgn(b - a) M; so with
    p = iP the gauged p_y = -sgn P is real, the gauged y = iY has the real
    Y = sgn x, and L_z = kron(x, p_y) + kron(P, Y) is formed from real
    factors alone, with no rounding from the gauge.
    """
    basis = basis or OscBasisSpec()
    nb = basis.n_per_coordinate
    x, P = _ladder_matrices(nb)
    sgn = np.sign(np.arange(nb) - np.arange(nb)[:, None])  # sgn(b - a)
    lz = np.kron(x, -sgn * P) + np.kron(P, sgn * x)
    return 0.5 * (lz + lz.T)
