"""Quantum bouncer on the half line: Airy eigenbasis, Gaussian packet
projection, spectral time evolution, position observables, and the
closed-form semiclassical series for <x>(t).

Eigenfunctions are psi_n(x) = (N_n / sqrt(l_g)) * Ai(x/l_g - x_n) with
N_n = 1 / |Ai'(-x_n)|, which is unit-normalized on [0, inf) because
integral of Ai(u - x_n)^2 from 0 equals Ai'(-x_n)^2 when Ai(-x_n) = 0.

The position matrix elements have closed forms in the zeros x_n alone
(Goodmanson, Am. J. Phys. 68, 866 (2000); Gea-Banacloche, Am. J. Phys. 67,
776 (1999)); quadrature checks the norms at build time and projects packets
onto the basis, one vector-valued integral over all states per projection.
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
        if not self.sigma > 0:
            raise DomainError("packet sigma must be positive")

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

    def eigenfunction(self, n: int, x):
        """psi_n evaluated at physical heights x (n is 1-based)."""
        if not 1 <= n <= self.n_max:
            raise DomainError(f"eigenfunction index {n} outside 1..{self.n_max}")
        l_g = self.units.l_g
        return self.norms[n - 1] / math.sqrt(l_g) * airy_ai(np.asarray(x) / l_g - self.zeros[n - 1])

    def x2_matrix(self) -> np.ndarray:
        """<m|x^2|n> in length^2 units."""
        return self.units.l_g**2 * _position_matrix(self.zeros, power=2)


@dataclass(frozen=True, eq=False)
class SpectralState:
    """Expansion coefficients of a state over an Eigenbasis at one time.

    The state keeps the phase table of the last time grid its observables
    were evolved over (2 T N floats for T times and N states), so <x> and
    then Var(x) on one grid build the table once.
    """

    basis: Eigenbasis
    coefficients: np.ndarray
    time: float
    # (read-only copy of the grid, read-only (2, T, N) real and imaginary
    # planes); one tuple, read once per call, so a grid never pairs with
    # another grid's planes
    _phases: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        total = float(np.sum(np.abs(self.coefficients) ** 2))
        if not total <= 1.0 + 1e-9:
            raise NumericalError(f"coefficient norm {total} exceeds 1 or is not finite")

    @property
    def truncation_loss(self) -> float:
        return 1.0 - float(np.sum(np.abs(self.coefficients) ** 2))


def _initial_panels(span_star: float) -> int:
    """Starting panel count for integrate_1d over span_star l_g: panels of at
    most 0.6 l_g, at least 8."""
    return max(8, int(math.ceil(span_star / 0.6)))


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

    Each N_n is verified against the quadrature norm to 1e-8 before the
    closed-form matrix elements are filled.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    zeros = airy_zeros(n_max)
    norms = 1.0 / np.abs(airy_ai_prime(-zeros))
    basis = Eigenbasis(
        n_max=n_max,
        units=u,
        zeros=zeros,
        energies=u.e_g * zeros,
        norms=norms,
        x_matrix=np.empty((0, 0)),
    )
    # one scalar integral per state: a single vector-valued call over the whole
    # [0, x_N + margin] range would hold an (points x N) table at once
    upper = float(zeros[-1]) + _TAIL_MARGIN
    panels = _initial_panels(upper)
    for i in range(n_max):
        def sq(x, i=i):
            return (norms[i] * airy_ai(x - zeros[i])) ** 2
        nrm = integrate_1d(sq, 0.0, upper, initial_panels=panels)
        if abs(nrm - 1.0) > _NORM_CHECK_TOL:
            raise NumericalError(f"norm of eigenstate {i + 1} is {nrm}, off by >{_NORM_CHECK_TOL}")
    basis.x_matrix = u.l_g * _position_matrix(zeros, power=1)
    return basis


def project_function(func, basis: Eigenbasis, lo: float, hi: float) -> SpectralState:
    """Project an arbitrary real wave function (physical coordinates) onto the basis.

    func must be vectorized; [lo, hi] must cover its support.  All n_max
    coefficients come from one vector-valued adaptive quadrature.
    """
    def integrand(x):
        return _eigenfunction_table(basis, x) * func(x)[:, None]

    panels = _initial_panels((hi - lo) / basis.units.l_g)
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


def _phase_table(s: SpectralState, times):
    """Row k holds c_n * exp(-i E_n t_k / hbar) for the k-th duration t_k."""
    times = _check_times(times)
    return np.exp(-1j * np.outer(times / s.basis.units.hbar, s.basis.energies)) * s.coefficients[None, :]


def evolve(s: SpectralState, t: float) -> SpectralState:
    """Advance a state by duration t: c_n -> c_n * exp(-i E_n t / hbar)."""
    return SpectralState(basis=s.basis, coefficients=_phase_table(s, [t])[0], time=s.time + t)


def _check_variance(var, l_g: float) -> None:
    if np.any(var < -1e-10 * l_g**2):
        raise NumericalError(f"variance {np.min(var)} is negative beyond tolerance")


def _phase_planes(s: SpectralState, times) -> np.ndarray:
    """Read-only (2, T, N) real and imaginary planes of the phase table over
    times, each C-contiguous; reused while times equal the state's kept grid."""
    times = _check_times(times)
    kept = s._phases
    if kept is not None and np.array_equal(kept[0], times):
        return kept[1]
    ph = _phase_table(s, times)
    planes = np.stack((ph.real, ph.imag))
    grid = times.copy()
    grid.flags.writeable = planes.flags.writeable = False
    object.__setattr__(s, "_phases", (grid, planes))
    return planes


def _quadratic_forms(planes: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Re(c^dagger M c) for every row c = a + ib of the phase table, M real
    symmetric: a^T M a + b^T M b, two real BLAS products on the contiguous
    planes (a strided view of a complex table would skip BLAS)."""
    re, im = planes
    return np.einsum("ti,ti->t", re @ matrix, re) + np.einsum("ti,ti->t", im @ matrix, im)


def expectation_x_evolution(s: SpectralState, times) -> np.ndarray:
    """<x>(s.time + t) for an array of durations t (vectorized evolve + expectation).

    The state keeps the phase table of this grid (2 T N floats) for the next
    call on an equal grid, such as variance_x_evolution.
    """
    return _quadratic_forms(_phase_planes(s, times), s.basis.x_matrix)


def variance_x_evolution(s: SpectralState, times) -> np.ndarray:
    """Var(x)(s.time + t) for an array of durations t.

    The state keeps the phase table of this grid (2 T N floats) for the next
    call on an equal grid.
    """
    planes = _phase_planes(s, times)
    mean = _quadratic_forms(planes, s.basis.x_matrix)
    var = _quadratic_forms(planes, s.basis.x2_matrix()) - mean * mean
    _check_variance(var, s.basis.units.l_g)
    return var


def expectation_x(s: SpectralState) -> float:
    """<x> in physical length units: the time-array kernel at duration 0."""
    return float(expectation_x_evolution(s, [0.0])[0])


def variance_x(s: SpectralState) -> float:
    """Var(x) = <x^2> - <x>^2 (>= 0 up to rounding), at duration 0."""
    return float(variance_x_evolution(s, [0.0])[0])


def reconstruct(s: SpectralState, x) -> np.ndarray:
    """Wave function at physical heights x from the truncated expansion."""
    return _eigenfunction_table(s.basis, x) @ s.coefficients


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
