"""Quantum bouncer on the half line: Airy eigenbasis, Gaussian packet
projection, spectral time evolution, position observables, and the
closed-form semiclassical series for <x>(t).

Eigenfunctions are psi_n(x) = (N_n / sqrt(l_g)) * Ai(x/l_g - x_n) with
N_n = 1 / |Ai'(-x_n)|.  Since d/dz [Ai'(z)^2 - z Ai(z)^2] = -Ai(z)^2, the
integral of Ai(u - x_n)^2 from 0 is Ai'(-x_n)^2 + x_n Ai(-x_n)^2, which is
Ai'(-x_n)^2 at a zero; build_basis checks that closed form at the computed
zeros instead of integrating.

The position matrix elements have closed forms in the zeros x_n alone
(Goodmanson, Am. J. Phys. 68, 866 (2000); Gea-Banacloche, Am. J. Phys. 67,
776 (1999)), so building a basis runs no quadrature.  Adaptive quadrature
projects packets onto it, one vector-valued integral over all states per
projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classical import _bounce_series, _check_times
from .errors import DomainError, InsufficientBasisError, NumericalError
from .scaling import UnitSystem
from .specfun import airy_ai, airy_ai_prime, airy_zeros, integrate_1d

__all__ = [
    "PacketSpec",
    "Eigenbasis",
    "SpectralState",
    "build_basis",
    "project_packet",
    "project_function",
    "evolve",
    "expectation_x",
    "expectation_x_evolution",
    "variance_x",
    "variance_x_evolution",
    "expectation_x_series",
    "reconstruct",
]

# Dimensionless distance past the highest turning point where the integrands
# have decayed far below any tolerance used here (Ai(12)^2 ~ 1e-25).
_TAIL_MARGIN = 12.0
_NORM_CHECK_TOL = 1e-8
# the largest basis whose zeros and slopes |Ai'(-x_n)| the tests hold to mpmath
_N_MAX_CHECKED = 10_000
_HALF_LINE_CLIP_LIMIT = 1e-6
_TRUNCATION_LIMIT = 1e-3


@dataclass(frozen=True)
class PacketSpec:
    """Gaussian packet (2/(pi sigma^2))^(1/4) exp(-(x - x0)^2 / sigma^2).

    With this convention the position variance is sigma^2/4.  sigma may be
    math.inf for the infinitely wide (classical-series) limit, which is only
    meaningful for expectation_x_series.
    """

    x0: float
    sigma: float

    def __post_init__(self):
        if not (self.x0 > 0 and math.isfinite(self.x0)):
            raise DomainError("packet x0 must be positive and finite")
        # sigma below about 1.5e-162 squares to 0.0, and the packet divides by sigma**2
        if not (self.sigma > 0 and self.sigma**2 > 0):
            raise DomainError(f"packet sigma must be positive with sigma**2 > 0, got {self.sigma!r}")

    def wavefunction(self, x):
        amp = (2.0 / (math.pi * self.sigma**2)) ** 0.25
        return amp * np.exp(-((x - self.x0) ** 2) / self.sigma**2)

    def clipped_mass(self) -> float:
        """Probability mass of the full-line packet at x < 0."""
        return 0.5 * math.erfc(math.sqrt(2.0) * self.x0 / self.sigma)


@dataclass(eq=False)
class Eigenbasis:
    """Truncated Airy eigenbasis with its position matrix elements."""

    n_max: int
    units: UnitSystem
    zeros: np.ndarray          # x_n, dimensionless, ascending
    energies: np.ndarray      # e_g * x_n
    norms: np.ndarray          # N_n = 1/|Ai'(-x_n)|
    x_matrix: np.ndarray       # <m|x|n>, length units
    _x2: np.ndarray | None = field(default=None, init=False, repr=False)

    def eigenfunction(self, n: int, x):
        """psi_n evaluated at physical heights x (n is 1-based); 0 below the mirror."""
        if not 1 <= n <= self.n_max:
            raise DomainError(f"eigenfunction index {n} outside 1..{self.n_max}")
        l_g = self.units.l_g
        x = np.asarray(x, dtype=float)
        psi = self.norms[n - 1] / math.sqrt(l_g) * airy_ai(x / l_g - self.zeros[n - 1])
        return np.where(x < 0, 0.0, psi)[()]

    def x2_matrix(self) -> np.ndarray:
        """<m|x^2|n> in length^2 units; read-only, built on the first call and
        kept for the basis."""
        if self._x2 is None:
            x2 = self.units.l_g**2 * _position_matrix(self.zeros, power=2)
            x2.flags.writeable = False
            self._x2 = x2
        return self._x2


@dataclass(frozen=True, eq=False)
class SpectralState:
    """Expansion coefficients of a state over an Eigenbasis at one time.

    The state keeps the phase table of the last time grid its observables
    were evolved over (2 T N floats for T times and N states) and the <x> row
    on it, so <x> and then Var(x) on one grid build the table and <x> once.
    """

    basis: Eigenbasis
    coefficients: np.ndarray
    time: float
    # (read-only copy of the grid, read-only (2, T, N) real and imaginary
    # planes, read-only <x> row); one tuple, read once per call, so a grid
    # never pairs with another grid's planes or <x>
    _phases: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        total = float(np.sum(np.abs(self.coefficients) ** 2))
        if not total <= 1.0 + 1e-9:
            raise NumericalError(f"coefficient norm {total} exceeds 1 or is not finite")

    @property
    def truncation_loss(self) -> float:
        return 1.0 - float(np.sum(np.abs(self.coefficients) ** 2))


def _initial_panels(span_star: float, x_top: float) -> int:
    """Starting panel count for the projection integral over span_star l_g of
    states up to the zero x_top.  Ai(x - x_n)^2 turns through at most
    2 sqrt(x_top) radians per unit x (at the mirror, for n = top); no panel
    spans more than 18 of them, and there are at least 8."""
    return max(8, math.ceil(span_star * math.sqrt(x_top) / 9.0))


def _eigenfunction_table(basis: Eigenbasis, x) -> np.ndarray:
    """(points x n_max) table psi_n(x_k) = N_n Ai(x_k/l_g - x_n) / sqrt(l_g)."""
    l_g = basis.units.l_g
    x_star = np.atleast_1d(np.asarray(x, dtype=float)) / l_g
    table = basis.norms[None, :] * airy_ai(x_star[:, None] - basis.zeros[None, :])
    return table / math.sqrt(l_g)


def _position_matrix(zeros: np.ndarray, power: int) -> np.ndarray:
    """Dimensionless <m|(x*)^power|n> for power 1 or 2, in closed form:

        <n|x|n>   = 2 x_n / 3        <m|x|n>   =  2 (-1)^(m-n+1) / (x_m - x_n)^2
        <n|x^2|n> = 8 x_n^2 / 15     <m|x^2|n> = 24 (-1)^(m-n+1) / (x_m - x_n)^4
    """
    off, diag = {1: (2.0, 2.0 / 3.0), 2: (24.0, 8.0 / 15.0)}[power]
    idx = np.arange(zeros.size)
    sign = np.where((idx[:, None] - idx[None, :]) % 2, 1.0, -1.0)
    gap = np.abs(zeros[:, None] - zeros[None, :])  # abs: numpy's pow rounds (-d)^4 and d^4 apart
    np.fill_diagonal(gap, 1.0)
    out = off * sign / gap ** (2 * power)
    np.fill_diagonal(out, diag * zeros**power)
    return out


def build_basis(n_max: int, u: UnitSystem) -> Eigenbasis:
    """Construct the first n_max eigenstates and their position matrix.

    N_n = 1/|Ai'(-x_n)|.  Each state's norm integral is checked to 1e-8 in
    closed form, N_n^2 (Ai'(-x_n)^2 + x_n Ai(-x_n)^2), so a zero off by more
    than about 1e-4 / sqrt(x_n) raises NumericalError naming the state.
    n_max above 10 000, past the tested range, raises DomainError before any
    zero is computed.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if n_max > _N_MAX_CHECKED:
        raise DomainError(f"n_max {n_max} above {_N_MAX_CHECKED}, the largest basis checked against mpmath")
    zeros = airy_zeros(n_max)
    ai = airy_ai(-zeros)
    slopes = airy_ai_prime(-zeros)
    norms = 1.0 / np.abs(slopes)
    nrm = norms**2 * (slopes**2 + zeros * ai**2)
    bad = np.flatnonzero(~(np.abs(nrm - 1.0) <= _NORM_CHECK_TOL))
    if bad.size:
        i = int(bad[0])
        raise NumericalError(f"norm of eigenstate {i + 1} is {nrm[i]}, off by >{_NORM_CHECK_TOL}")
    return Eigenbasis(
        n_max=n_max,
        units=u,
        zeros=zeros,
        energies=u.e_g * zeros,
        norms=norms,
        x_matrix=u.l_g * _position_matrix(zeros, power=1),
    )


def project_function(func, basis: Eigenbasis, lo: float, hi: float) -> SpectralState:
    """Project an arbitrary real wave function (physical coordinates) onto the basis.

    func must be vectorized; [lo, hi] must cover its support on the half line
    (lo >= 0: the basis states vanish below the mirror).  All n_max
    coefficients come from one vector-valued adaptive quadrature.
    """
    if not lo >= 0:
        raise DomainError(f"projection needs lo >= 0 (the mirror), got lo = {lo!r}")

    def integrand(x):
        return _eigenfunction_table(basis, x) * func(x)[:, None]

    panels = _initial_panels((hi - lo) / basis.units.l_g, float(basis.zeros[-1]))
    coeffs = integrate_1d(integrand, lo, hi, initial_panels=panels)
    return SpectralState(basis=basis, coefficients=coeffs.astype(complex), time=0.0)


def project_packet(p: PacketSpec, basis: Eigenbasis) -> SpectralState:
    """Expand a Gaussian packet over the basis at t = 0.

    The full-line Gaussian is clipped to x >= 0 and renormalized; the clipped
    mass must be below 1e-6 (x0 >= 4 sigma guarantees that comfortably).
    Raises InsufficientBasisError when more than 1e-3 of the norm falls
    outside the truncated basis; before any quadrature when more than that
    much of the packet lies where every basis state has decayed.
    """
    if not math.isfinite(p.sigma):
        raise DomainError("projection needs a finite packet width")
    clip = p.clipped_mass()
    if clip > _HALF_LINE_CLIP_LIMIT:
        raise DomainError(
            f"packet mass {clip:.2e} at x < 0 exceeds {_HALF_LINE_CLIP_LIMIT}; need x0 >~ 4 sigma"
        )
    # the packet mass beyond the top state's turning point plus _TAIL_MARGIN is
    # lost to any projection, so it bounds the truncation loss from below; this
    # also keeps the quadrature below from sizing itself to a far-away packet
    top = (float(basis.zeros[-1]) + _TAIL_MARGIN) * basis.units.l_g
    beyond = 0.5 * math.erfc(math.sqrt(2.0) * (top - p.x0) / p.sigma)
    if beyond > _TRUNCATION_LIMIT:
        raise InsufficientBasisError(
            f"packet mass {beyond:.2e} lies above the top state's turning point; "
            f"increase n_max beyond {basis.n_max}"
        )
    rescale = 1.0 / math.sqrt(1.0 - clip)
    lo = max(0.0, p.x0 - 9.0 * p.sigma)
    hi = p.x0 + 9.0 * p.sigma
    state = project_function(lambda x: rescale * p.wavefunction(x), basis, lo, hi)
    if state.truncation_loss > _TRUNCATION_LIMIT:
        raise InsufficientBasisError(
            f"truncation loss {state.truncation_loss:.2e} above {_TRUNCATION_LIMIT}; "
            f"increase n_max beyond {basis.n_max}"
        )
    return state


def _phase_table(s: SpectralState, times) -> np.ndarray:
    """(2, T, N) real and imaginary planes of c_n exp(-i E_n t_k / hbar), one
    row per duration t_k, each plane C-contiguous.

    A row whose time is exactly k h, with h = t_1 the grid's second time, is
    factored with B = isqrt(T) as k = q B + r:

        c_n exp(-i E_n k h / hbar) = exp(-i E_n q B h / hbar) * (c_n exp(-i E_n r h / hbar)),

    so a uniform grid (dt * arange, or linspace from 0 before its pinned end
    point) costs (T/B + B) N complex exp and one real product per block of B
    rows, written straight into the planes.  Every other row, and every row of
    a grid with no such step, takes its exp directly.
    """
    t = np.ravel(_check_times(times))
    energies, c = s.basis.energies, s.coefficients
    hbar = s.basis.units.hbar
    rows = t.size
    planes = np.empty((2, rows, energies.size))
    re, im = planes
    step = t[1] if rows > 1 else 0.0
    factored = t == step * np.arange(rows)
    block = max(1, math.isqrt(rows))
    starts = np.arange(0, rows, block)
    outer = np.exp(-1j * np.outer(step / hbar * starts, energies))
    inner = np.exp(-1j * np.outer(step / hbar * np.arange(block), energies)) * c
    ar, ai = outer.real.copy(), outer.imag.copy()
    br, bi = inner.real.copy(), inner.imag.copy()
    scratch = np.empty_like(br)
    for q in np.flatnonzero(np.logical_or.reduceat(factored, starts)):
        lo, hi = starts[q], min(starts[q] + block, rows)
        n = hi - lo
        np.multiply(br[:n], ar[q], out=re[lo:hi])
        re[lo:hi] -= np.multiply(bi[:n], ai[q], out=scratch[:n])
        np.multiply(bi[:n], ar[q], out=im[lo:hi])
        im[lo:hi] += np.multiply(br[:n], ai[q], out=scratch[:n])
    direct = ~factored
    ph = np.exp(-1j * np.outer(t[direct] / hbar, energies)) * c
    re[direct], im[direct] = ph.real, ph.imag
    return planes


def evolve(s: SpectralState, t: float) -> SpectralState:
    """Advance a state by duration t: c_n -> c_n * exp(-i E_n t / hbar)."""
    re, im = _phase_table(s, [t])[:, 0]
    return SpectralState(basis=s.basis, coefficients=re + 1j * im, time=s.time + t)


def _variance(planes: np.ndarray, mean: np.ndarray, basis: Eigenbasis) -> np.ndarray:
    """<x^2> - <x>^2 per row of planes, refused when negative beyond rounding."""
    var = _quadratic_forms(planes, basis.x2_matrix()) - mean * mean
    if np.any(var < -1e-10 * basis.units.l_g**2):
        raise NumericalError(f"variance {np.min(var)} is negative beyond tolerance")
    return var


def _phase_planes(s: SpectralState, times):
    """Read-only (2, T, N) phase planes of times (_phase_table) and the <x>
    row over them; both reused while times equal the state's kept grid."""
    times = _check_times(times)
    kept = s._phases
    if kept is not None and np.array_equal(kept[0], times):
        return kept[1], kept[2]
    planes = _phase_table(s, times)
    mean = _quadratic_forms(planes, s.basis.x_matrix)
    grid = times.copy()
    for a in (grid, planes, mean):
        a.flags.writeable = False
    object.__setattr__(s, "_phases", (grid, planes, mean))
    return planes, mean


def _quadratic_forms(planes: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Re(c^dagger M c) for every row c = a + ib of the phase table, M real
    symmetric: a^T M a + b^T M b, two real BLAS products on the contiguous
    planes (a strided view of a complex table would skip BLAS)."""
    re, im = planes
    return np.einsum("ti,ti->t", re @ matrix, re) + np.einsum("ti,ti->t", im @ matrix, im)


def expectation_x_evolution(s: SpectralState, times) -> np.ndarray:
    """<x>(s.time + t) for an array of durations t (vectorized evolve + expectation).

    The state keeps the phase table of this grid (2 T N floats) and the <x>
    row for the next call on an equal grid, such as variance_x_evolution.
    """
    return _phase_planes(s, times)[1].copy()


def variance_x_evolution(s: SpectralState, times) -> np.ndarray:
    """Var(x)(s.time + t) for an array of durations t.

    The state keeps the phase table of this grid (2 T N floats) and the <x>
    row for the next call on an equal grid.
    """
    planes, mean = _phase_planes(s, times)
    return _variance(planes, mean, s.basis)


def _coefficient_planes(s: SpectralState) -> np.ndarray:
    """(2, 1, N) real and imaginary planes of the coefficients themselves."""
    return np.stack((s.coefficients.real, s.coefficients.imag))[:, None, :]


def expectation_x(s: SpectralState) -> float:
    """<x> in physical length units, from the coefficients; the state's kept
    phase table is left alone."""
    return float(_quadratic_forms(_coefficient_planes(s), s.basis.x_matrix)[0])


def variance_x(s: SpectralState) -> float:
    """Var(x) = <x^2> - <x>^2 (>= 0 up to rounding), from the coefficients."""
    planes = _coefficient_planes(s)
    return float(_variance(planes, _quadratic_forms(planes, s.basis.x_matrix), s.basis)[0])


def reconstruct(s: SpectralState, x) -> np.ndarray:
    """Wave function at physical heights x from the truncated expansion (0 below the mirror)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.where(x < 0, 0.0, _eigenfunction_table(s.basis, x) @ s.coefficients)


def expectation_x_series(p: PacketSpec, t, n_terms: int):
    """Closed-form semiclassical <x>(t) for a Gaussian packet, in
    gravitational units (heights in l_g, times in t_g):

        (2/3) x0 + (4 x0 / pi^2) * sum_n (-1)^(n+1)/n^2
                    * exp(-pi^2 n^2 x0 / (2 sigma^2)) * cos(pi n t / T)

    with T = sqrt(x0) the drop time in these units.  The series shares the
    convention of classical.bounce_fourier and reduces to it term by term
    when the damping factors are 1 (sigma -> inf).
    """
    damping = math.pi**2 * p.x0 / (2.0 * p.sigma**2)
    return _bounce_series(p.x0, math.sqrt(p.x0), t, n_terms, damping)
