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
776 (1999)), so building a basis runs no quadrature.  A Gaussian packet
projects onto it in closed form too, as Ai smoothed by a Gaussian is another
Airy function; only the packet's tail below the mirror, when it reaches
there, and projections of arbitrary functions take a quadrature: one
vector-valued fixed Gauss-Legendre rule over all states.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import FrozenRecord, Record, ValueRecord
from .classical import _bounce_series, _check_times
from .errors import DomainError, InsufficientBasisError, NumericalError
from .scaling import UnitSystem
from .specfun import _index, airy, airy_ai, airy_ai_smoothed, airy_zeros, integrate_1d

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
# the most values one projection table (30 points a panel, one column a state)
# may hold, 32 MB; the projections tested need at most 94 080
_MAX_OVERLAP_VALUES = 4_000_000
# NUFFT kernel exp(beta (sqrt(1 - z^2) - 1)) on _WIDTH points, z in _WIDTH/2
# cells (Barnett et al. 2019; as accurate as Greengard & Lee's 32-point
# Gaussian): a pair's points from its cell q - 8 and their nodes z, the
# samples at the nodes -7 ... 7, oversampling, pair block
_WIDTH = 16
_BETA = 2.30 * _WIDTH
_OFFSETS = np.arange(1, _WIDTH + 1)
_NODES = (_OFFSETS - _WIDTH // 2) / (_WIDTH // 2)
_SAMPLES = np.exp(_BETA * (np.sqrt(1.0 - _NODES[:-1] ** 2) - 1.0))
_OVERSAMPLE = 2
_PAIR_BLOCK = 4096


class PacketSpec(ValueRecord):
    """Gaussian packet (2/(pi sigma^2))^(1/4) exp(-(x - x0)^2 / sigma^2).

    With this convention the position variance is sigma^2/4.  sigma may be
    math.inf for the infinitely wide (classical-series) limit, which is only
    meaningful for expectation_x_series.
    """

    _fields = ("x0", "sigma")

    def __init__(self, x0: float, sigma: float):
        self.__dict__.update(x0=x0, sigma=sigma)
        if not (self.x0 > 0 and math.isfinite(self.x0)):
            raise DomainError("packet x0 must be positive and finite")
        # the packet divides by sigma**2, which is 0.0 below about 1.5e-162 and
        # overflows above about 1.3e154; sigma = inf is the classical limit
        try:
            square = self.sigma**2
        except OverflowError:
            square = math.inf
        if not (self.sigma == math.inf or (self.sigma > 0 and 0 < square < math.inf)):
            raise DomainError(f"packet sigma must be inf or have 0 < sigma**2 < inf, got {self.sigma!r}")

    def wavefunction(self, x):
        amp = (2.0 / (math.pi * self.sigma**2)) ** 0.25
        return amp * np.exp(-((x - self.x0) ** 2) / self.sigma**2)

    def clipped_mass(self) -> float:
        """Probability mass of the full-line packet at x < 0."""
        return 0.5 * math.erfc(math.sqrt(2.0) * self.x0 / self.sigma)


class Eigenbasis(Record):
    """Truncated Airy eigenbasis with its position matrix elements.

    After a NUFFT evolution the basis also holds that kernel's buffers, for
    the last circle only: 128 bytes a state pair (of at most 4 096) and 8 a
    point of the circle's half, plus the larger of 256 and 32 of those, 1.1 MB
    at N = 64 and 20 001 times.  The next call on the same circle reuses them.
    It also keeps the kernel's pair table, which serves every circle
    (_pair_table): 40 bytes a pair plus the 16 N^2 of the stacked (x, x^2)
    matrices its diagonals view, 146 kB at N = 64.
    """

    _fields = ("n_max", "units", "zeros", "energies", "norms", "x_matrix")

    def __init__(self, n_max: int, units: UnitSystem, zeros: np.ndarray, energies: np.ndarray,
                 norms: np.ndarray, x_matrix: np.ndarray):
        # zeros x_n (dimensionless, ascending), energies e_g x_n, norms
        # N_n = 1/|Ai'(-x_n)|, x_matrix <m|x|n> in length units
        self.__dict__.update(n_max=n_max, units=units, zeros=zeros, energies=energies,
                             norms=norms, x_matrix=x_matrix, _x2=None, _pairs=None)

    def eigenfunction(self, n: int, x):
        """psi_n evaluated at physical heights x (n is 1-based); 0 below the mirror."""
        if not 1 <= _index(n, "eigenfunction index") <= self.n_max:
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


class SpectralState(FrozenRecord):
    """Expansion coefficients of a state over an Eigenbasis at one time.

    The state keeps the <x> and <x^2> rows of the last grid its observables
    were evolved over (2 T floats), so <x> and then Var(x) on it evaluate them
    once (by one NUFFT if the grid is long and uniform).
    """

    _fields = ("basis", "coefficients", "time")

    def __init__(self, basis: Eigenbasis, coefficients: np.ndarray, time: float):
        # _rows: read-only (grid, rows) of _kept_rows
        self.__dict__.update(basis=basis, coefficients=coefficients, time=time, _rows=None)
        with np.errstate(over="ignore"):  # an overflowing norm is refused below
            total = float(np.sum(np.abs(self.coefficients) ** 2))
        if not total <= 1.0 + 1e-9:
            raise NumericalError(f"coefficient norm {total} exceeds 1 or is not finite")

    @property
    def truncation_loss(self) -> float:
        return 1.0 - float(np.sum(np.abs(self.coefficients) ** 2))


def _initial_panels(span_star: float, x_top: float) -> float:
    """Panel count for project_function's integral over span_star l_g of
    states up to the zero x_top, whose integrand is unknown.  Ai(x - x_n)^2
    turns through at most 2 sqrt(x_top) radians per unit x (at the mirror,
    for n = top); no panel spans more than 18 of them, and there are at
    least 8.  A whole float, inf where the count overflows."""
    return max(8.0, float(np.ceil(span_star * math.sqrt(x_top) / 9.0)))


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


def _energies(zeros: np.ndarray, u: UnitSystem) -> np.ndarray:
    """Energies e_g x_n of the ascending zero magnitudes x_n; DomainError
    if the largest overflows."""
    with np.errstate(over="ignore"):
        e = u.e_g * zeros
    if not np.isfinite(e[-1]):
        raise DomainError(f"energy e_g x_{zeros.size} overflows (e_g = {u.e_g!r}, "
                          f"x_{zeros.size} = {float(zeros[-1])!r})")
    return e


def build_basis(n_max: int, u: UnitSystem) -> Eigenbasis:
    """Construct the first n_max eigenstates and their position matrix.

    Each state's norm integral is checked to 1e-8 in
    closed form, N_n^2 (Ai'(-x_n)^2 + x_n Ai(-x_n)^2), so a zero off by more
    than about 1e-4 / sqrt(x_n) raises NumericalError naming the state.
    n_max above 10 000, past the tested range, raises DomainError before any
    zero is computed; an energy e_g x_n that overflows raises it too.
    """
    if _index(n_max, "n_max") < 1:
        raise DomainError("n_max must be >= 1")
    if n_max > _N_MAX_CHECKED:
        raise DomainError(f"n_max {n_max} above {_N_MAX_CHECKED}, the largest basis checked against mpmath")
    zeros = airy_zeros(n_max)
    v = airy(-zeros)
    norms = 1.0 / np.abs(v.ai_prime)
    nrm = norms**2 * (v.ai_prime**2 + zeros * v.ai**2)
    bad = np.flatnonzero(~(np.abs(nrm - 1.0) <= _NORM_CHECK_TOL))
    if bad.size:
        i = int(bad[0])
        raise NumericalError(f"norm of eigenstate {i + 1} is {nrm[i]}, off by >{_NORM_CHECK_TOL}")
    return Eigenbasis(
        n_max=n_max,
        units=u,
        zeros=zeros,
        energies=_energies(zeros, u),
        norms=norms,
        x_matrix=u.l_g * _position_matrix(zeros, power=1),
    )


def _overlaps(func, basis: Eigenbasis, lo: float, hi: float, panels: float) -> np.ndarray:
    """Integrals of func(x) psi_n(x) over [lo, hi] for every state n, by one
    vector-valued integrate_1d call on the given whole count of panels (a
    float, inf where it overflows); DomainError unless lo and hi are finite,
    if its table of values would hold more than _MAX_OVERLAP_VALUES or if
    func does not return one value a point, NumericalError if a panel fails
    its check."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"projection interval must be finite, got [{lo!r}, {hi!r}]")
    if 30 * panels * basis.n_max > _MAX_OVERLAP_VALUES:
        raise DomainError(
            f"projection over [{lo!r}, {hi!r}] needs {panels:g} panels for {basis.n_max} states, "
            f"more than {_MAX_OVERLAP_VALUES} values in one table"
        )

    def integrand(x):
        values = np.asarray(func(x))
        if values.shape != x.shape:
            raise DomainError(f"func returned shape {values.shape} for {x.size} points; it must be vectorized")
        return _eigenfunction_table(basis, x) * values[:, None]

    return integrate_1d(integrand, lo, hi, int(panels))


def project_function(func, basis: Eigenbasis, lo: float, hi: float) -> SpectralState:
    """Project an arbitrary real wave function (physical coordinates) onto the basis.

    func must be vectorized; [lo, hi] must be finite and cover its support on
    the half line (lo >= 0: the basis states vanish below the mirror).  All n_max
    coefficients come from one vector-valued fixed-rule quadrature (see
    _overlaps), which raises NumericalError rather than refine a panel whose
    halves disagree with it.
    """
    if not lo >= 0:
        raise DomainError(f"projection needs lo >= 0 (the mirror), got lo = {lo!r}")
    panels = _initial_panels((hi - lo) / basis.units.l_g, float(basis.zeros[-1]))
    coeffs = _overlaps(func, basis, lo, hi, panels)
    return SpectralState(basis=basis, coefficients=coeffs.astype(complex), time=0.0)


def project_packet(p: PacketSpec, basis: Eigenbasis) -> SpectralState:
    """Expand a Gaussian packet over the basis at t = 0.

    The full-line Gaussian is clipped to x >= 0 and renormalized; the clipped
    mass must be below 1e-6 (x0 >= 4 sigma guarantees that comfortably).
    Raises InsufficientBasisError when more than 1e-3 of the norm falls
    outside the truncated basis; before any projection work when more than
    that much of the packet lies where every basis state has decayed.

    Over the whole line the coefficients have a closed form.  With
    a = (sigma/l_g)^2 / 4, smoothing Ai with the packet's Gaussian gives
    another Airy function (Vallee & Soares, Airy Functions and Applications
    to Physics, 2004):

        integral Ai(u) exp(-(u - y)^2 / (4a)) du = sqrt(4 pi a) exp(a y + 2 a^3 / 3) Ai(y + a^2),

    so with y_n = x0/l_g - x_n,

        c_n = (2 pi)^(1/4) sqrt(sigma/l_g) N_n exp(a y_n + 2 a^3 / 3) Ai(y_n + a^2),

    evaluated by specfun.airy_ai_smoothed without overflow.  The packet is
    taken on [x0 - 9 sigma, x0 + 9 sigma], cut at the mirror: when
    x0 < 9 sigma, the part on [x0 - 9 sigma, 0], against the Airy
    continuation of the states, is taken back out with one vector-valued
    fixed-rule quadrature (see _overlaps); otherwise no quadrature runs.
    No panel of it spans more than 18 radians of psi_N^2 (_initial_panels
    without its floor of 8) or 8 of the 81 - (x0/sigma)^2 e-folds the
    packet falls on [x0 - 9 sigma, 0].
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
    l_g = basis.units.l_g
    top = (float(basis.zeros[-1]) + _TAIL_MARGIN) * l_g
    beyond = 0.5 * math.erfc(math.sqrt(2.0) * (top - p.x0) / p.sigma)
    if beyond > _TRUNCATION_LIMIT:
        raise InsufficientBasisError(
            f"packet mass {beyond:.2e} lies above the top state's turning point; "
            f"increase n_max beyond {basis.n_max}"
        )
    rescale = 1.0 / math.sqrt(1.0 - clip)
    width = p.sigma / l_g
    smoothed = airy_ai_smoothed(p.x0 / l_g - basis.zeros, 0.25 * width * width)
    coeffs = (2.0 * math.pi) ** 0.25 * math.sqrt(width) * basis.norms * smoothed
    lo = p.x0 - 9.0 * p.sigma
    if lo < 0.0:
        phase = -lo / l_g * math.sqrt(float(basis.zeros[-1])) / 9.0
        decay = (81.0 - (p.x0 / p.sigma) ** 2) / 8.0
        coeffs = coeffs - _overlaps(p.wavefunction, basis, lo, 0.0, math.ceil(max(phase, decay)))
    state = SpectralState(basis=basis, coefficients=(rescale * coeffs).astype(complex), time=0.0)
    if state.truncation_loss > _TRUNCATION_LIMIT:
        raise InsufficientBasisError(
            f"truncation loss {state.truncation_loss:.2e} above {_TRUNCATION_LIMIT}; "
            f"increase n_max beyond {basis.n_max}"
        )
    return state


def _pair_table(basis: Eigenbasis) -> tuple:
    """The kernel's read-only basis data: pairs m < n, (E_n - E_m)/hbar, the
    (observables, pairs) elements of x and x^2, and their diagonals as a view
    of the stacked matrices (a copy would take another BLAS path and round)."""
    mats = np.stack((basis.x_matrix, basis.x2_matrix()))
    m, n = np.triu_indices(basis.n_max, 1)
    table = (m, n, (basis.energies[n] - basis.energies[m]) / basis.units.hbar, mats[:, m, n], mats.diagonal(0, 1, 2))
    for a in table:
        a.flags.writeable = False
    return table


def _uniform_rows(s: SpectralState, count: int, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """(2, count) rows <x>, <x^2> at times k h, k < count, by a type-1 NUFFT
    over pairs m < n (Greengard & Lee, SIAM Rev. 46, 2004; kernel of Barnett
    et al., SIAM J. Sci. Comput. 41, 2019), written into out if given.  With
    omega = (E_n - E_m)/hbar, K0 = count // 2 and j = k - K0,
    <M> = sum_n |c_n|^2 M_nn + 2 Re sum_mn a_mn exp(-i omega h j),
    a = conj(c_m) c_n M_mn exp(-i omega K0 h).  The pair table is built on the
    basis's first call and kept; the workspace stays on the basis, for the
    last circle only, and serves the next call on it."""
    basis, c = s.basis, s.coefficients
    if basis._pairs is None:
        basis._pairs = _pair_table(basis)
    m, n, omega, elements, diagonals = basis._pairs
    k0 = count // 2
    amp = np.conj(c[m]) * c[n] * np.exp(-1j * (omega * (k0 * h))) * elements
    amp = np.concatenate((amp.real, amp.imag))[:, :, None]
    # the kernel on _WIDTH points of a circle padded by _WIDTH/2, of the least
    # 2^a, 3 2^a or 5 2^a >= least points, one row each for Re a, Im a; a pair
    # at omega h = (q + w) cells, 0 <= w < 1, meets the nodes q - 7 ... q + 8
    half_width = _WIDTH // 2
    least = max(_OVERSAMPLE * count, 2 * _WIDTH)
    size = min(f << ((least - 1) // f).bit_length() for f in (1, 3, 5))
    cell, padded = 2.0 * math.pi / size, size + _WIDTH
    # workspace, popped atomically (a concurrent call builds its own): a block's
    # weights and products, then the Hermitian half; its indices; 1/DFT(_SAMPLES)
    block = min(omega.size, _PAIR_BLOCK)
    ws = basis.__dict__.pop("_kernel", None)
    if ws is None or ws[0] != (size, block):
        samples = np.zeros(size)
        samples[np.arange(1 - half_width, half_width)] = _SAMPLES
        ws = ((size, block), np.empty(max(2 * block * _WIDTH, 4 * (size // 2 + 1))),
              np.empty((block, _WIDTH), np.intp), 1.0 / np.fft.rfft(samples).real)
    _, scratch, indices, inverse = ws
    weights, products = scratch[:2 * indices.size].reshape(2, *indices.shape)
    # the spread is taken anew and let go before the transforms, which reuse
    # its memory; holding it on the basis too measured slower (CHANGES.md).
    # No zero fill: the first block adds its counts to 0, and no name keeps a
    # count past its row (two alive at once raised peak RSS); one block runs
    # even with no pairs (N = 1)
    spread = np.empty((4, padded))
    for lo in range(0, omega.size or 1, _PAIR_BLOCK):
        q, w = np.divmod(omega[lo:lo + _PAIR_BLOCK, None] * h, cell)
        # z from w in _WIDTH/2 cells less the exact nodes, so |z| <= 1 in floats
        phi = np.subtract(w / (half_width * cell), _NODES, out=weights[:q.size])
        phi *= phi
        np.sqrt(np.subtract(1.0, phi, out=phi), out=phi)
        phi -= 1.0
        phi *= _BETA
        np.exp(phi, out=phi)
        idx = np.add((q % size).astype(np.intp), _OFFSETS, out=indices[:q.size]).ravel()
        for row, a in zip(spread, amp[:, lo:lo + _PAIR_BLOCK]):
            terms = np.multiply(phi, a, out=products[:q.size]).ravel()
            np.add(row if lo else 0.0, np.bincount(idx, terms, padded), out=row)
    circle = spread[:, half_width:-half_width]
    circle[:, :half_width] += spread[:, -half_width:]
    circle[:, -half_width:] += spread[:, :half_width]
    # Re F(z), z = re + i im, is F of z's Hermitian part: a real irfft of the
    # conjugate of twice its half, re[k] + re[-k] + i (im[-k] - im[k])
    half = size // 2
    herm = scratch[:4 * (half + 1)].view(complex).reshape(2, half + 1)
    herm[:, 0] = 2.0 * circle[:2, 0]
    np.add(circle[:2, 1:half + 1], circle[:2, :half - 1:-1], out=herm.real[:, 1:])
    np.subtract(circle[2:, :half - 1:-1], circle[2:, 1:half + 1], out=herm.imag[:, 1:])
    del spread, circle
    # rows j = -K0 ... count - K0 - 1 over the samples' DFT at j; one irfft a
    # row: for a batch numpy 2 takes a fresh buffer of several rows
    rows = np.empty((2, count)) if out is None else out
    for row, z in zip(rows, herm):
        sums = np.fft.irfft(z, size, norm="forward")
        np.multiply(sums[size - k0:], inverse[k0:0:-1], out=row[:k0])
        np.multiply(sums[:count - k0], inverse[:count - k0], out=row[k0:])
    basis.__dict__["_kernel"] = ws
    return np.add((diagonals @ (c.real**2 + c.imag**2))[:, None], rows, out=rows)


def _direct_rows(s: SpectralState, t: np.ndarray) -> np.ndarray:
    """(2, T) rows <x>, <x^2>, each by its own exp: a^T M a + b^T M b,
    c = a + ib.  The phases are taken from E_n - sum |c_m|^2 E_m: the global
    phase drops out of both rows, and the centred phases round less."""
    basis, c = s.basis, s.coefficients
    centred = basis.energies - (c.real**2 + c.imag**2) @ basis.energies
    ph = np.exp(-1j * np.outer(t / basis.units.hbar, centred)) * c
    ab = np.stack((ph.real, ph.imag))
    mats = (basis.x_matrix, basis.x2_matrix())
    return np.array([np.einsum("pti,pti->t", ab @ m, ab) for m in mats])


def _check_phase(basis: Eigenbasis, t: np.ndarray) -> None:
    """DomainError unless the largest phase of the durations t is finite as
    the direct rows and evolve form it, (t/hbar) E_N; the kernel's
    (E_n - E_m)/hbar k h stays below it.  Checked once a call, before any
    exponential."""
    t_max, e_top, hbar = float(np.max(t, initial=0.0)), float(basis.energies[-1]), basis.units.hbar
    if not t_max / hbar * e_top < math.inf:
        raise DomainError(f"the phase t E_{basis.n_max}/hbar overflows at t = {t_max!r} "
                          f"(E_{basis.n_max} = {e_top!r}, hbar = {hbar!r})")


def evolve(s: SpectralState, t: float) -> SpectralState:
    """Advance a state by duration t: c_n -> c_n * exp(-i E_n t / hbar).
    DomainError refuses a t that is negative or not finite, or whose phase
    t E_N / hbar overflows."""
    duration = _check_times(t)
    _check_phase(s.basis, duration)
    c = np.exp(-1j * (duration / s.basis.units.hbar * s.basis.energies)) * s.coefficients
    return SpectralState(basis=s.basis, coefficients=c, time=s.time + t)


def _variance(rows: np.ndarray, basis: Eigenbasis) -> np.ndarray:
    """<x^2> - <x>^2 of rows, refused if negative beyond rounding."""
    var = rows[1] - rows[0] * rows[0]
    if np.any(var < -1e-10 * basis.units.l_g**2):
        raise NumericalError(f"variance {np.min(var)} is negative beyond tolerance")
    return var


def _kept_rows(s: SpectralState, times) -> np.ndarray:
    """Read-only (2, *times.shape) rows <x>, <x^2>, kept while times equal the
    state's grid.  Rows up to the last at k h (dt * arange, linspace but its
    end) take _uniform_rows if that needs fewer exps (_WIDTH + 1 a pair, 1 a
    row) than _direct_rows (N a row), which takes the rest.  A grid not kept
    has its largest phase checked once, before either runs."""
    times = _check_times(times)
    kept = s._rows
    if kept is not None and np.array_equal(kept[0], times):
        return kept[1]
    _check_phase(s.basis, times)
    t = np.ravel(times)
    h = t[1] if t.size > 1 else 0.0
    off = t != h * np.arange(t.size)
    # the k h prefix ends at the last row on the grid, off's first False from the end
    back = int(off[::-1].argmin()) if t.size else 0
    count = 0 if not t.size or off[-1 - back] else t.size - back
    n = s.coefficients.size
    if n * (n - 1) // 2 * (_WIDTH + 1) + count < count * n:
        rows = np.empty((2, t.size))
        _uniform_rows(s, count, h, rows[:, :count])
        if off.any():
            rows[:, off] = _direct_rows(s, t[off])
    else:
        rows = _direct_rows(s, t)
    grid, rows = times.copy(), rows.reshape(2, *times.shape)
    grid.flags.writeable = rows.flags.writeable = False
    object.__setattr__(s, "_rows", (grid, rows))
    return rows


def expectation_x_evolution(s: SpectralState, times) -> np.ndarray:
    """<x>(s.time + t) for durations t, of their shape and a float for a
    scalar (see SpectralState); DomainError refuses a t that is negative or
    not finite, or whose phase t E_N / hbar overflows (see _check_phase)."""
    mean = _kept_rows(s, times)[0].copy()
    return float(mean) if mean.ndim == 0 else mean


def variance_x_evolution(s: SpectralState, times) -> np.ndarray:
    """Var(x)(s.time + t), shaped as expectation_x_evolution, which refuses
    the same durations; NumericalError refuses a variance below -1e-10 l_g^2."""
    var = _variance(_kept_rows(s, times), s.basis)
    return float(var) if var.ndim == 0 else var


def expectation_x(s: SpectralState) -> float:
    """<x> in physical length units from the coefficients; kept rows stay."""
    return float(_direct_rows(s, np.zeros(1))[0, 0])


def variance_x(s: SpectralState) -> float:
    """Var(x) = <x^2> - <x>^2 (>= 0 up to rounding), from the coefficients."""
    return float(_variance(_direct_rows(s, np.zeros(1)), s.basis)[0])


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
    # sigma = inf is undamped even where pi^2 x0 overflows (inf/inf is nan)
    damping = 0.0 if p.sigma == math.inf else math.pi**2 * p.x0 / (2.0 * p.sigma**2)
    return _bounce_series(p.x0, math.sqrt(p.x0), t, n_terms, damping)
