"""Semiclassical moment dynamics: equations of motion for <x>, <p> and the
central moments G^{a,b} = <(p-<p>)^a (x-<x>)^b> (Weyl-ordered), truncated at
a configurable order.

For a linear potential the second-order moments decouple from everything
else and solve in closed form; saturated initial data keep the uncertainty
product at hbar^2/4 for all times.  Those closed forms, a fixed-step RK4
integrator for general polynomial potentials, and the dispersion envelope
around the classical bounce all live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .classical import BounceSpec, _check_times, bounce_trajectory
from .errors import DomainError, NumericalError
from .scaling import UnitSystem

__all__ = [
    "PolynomialPotential",
    "MomentState",
    "SaturatedIC",
    "MomentTrajectory",
    "moment_pairs",
    "effective_hamiltonian",
    "moment_eom",
    "integrate",
    "closed_form_linear",
    "saturated_ic",
    "initial_state",
    "envelope",
    "uncertainty_product",
]


@dataclass(frozen=True)
class PolynomialPotential:
    """V(x) = sum_k coefficients[k] * x^k, exactly differentiable to any order."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise DomainError("potential needs at least one coefficient")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def value(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def derivative(self, x: float, order: int) -> float:
        """d^order V / dx^order at x (identically 0 beyond the degree)."""
        if order < 0:
            raise DomainError("derivative order must be >= 0")
        if order > self.degree:
            return 0.0
        acc = 0.0
        for j in range(self.degree, order - 1, -1):
            acc = acc * x + self.coefficients[j] * math.perm(j, order)
        return acc

    @classmethod
    def gravity(cls, m: float, g: float) -> "PolynomialPotential":
        return cls((0.0, m * g))

    @classmethod
    def harmonic(cls, m: float, omega: float) -> "PolynomialPotential":
        return cls((0.0, 0.0, 0.5 * m * omega * omega))


def moment_pairs(order: int) -> list[tuple[int, int]]:
    """Canonical (a, b) ordering for all moments with 2 <= a+b <= order."""
    if order < 2:
        raise DomainError("moment truncation order must be >= 2")
    return [(a, total - a) for total in range(2, order + 1) for a in range(total + 1)]


@dataclass(frozen=True)
class MomentState:
    """Expectation values (x, p) plus central moments up to a truncation order.

    First moments are not stored: G^{1,0} = G^{0,1} = 0 by construction.
    The same container carries time derivatives inside the integrator.
    """

    x: float
    p: float
    G: Mapping[tuple[int, int], float]
    order: int = 2

    @classmethod
    def make(cls, x: float, p: float, order: int = 2, G: Mapping[tuple[int, int], float] | None = None):
        """Build a state with every moment up to `order` present (missing -> 0)."""
        table = dict.fromkeys(moment_pairs(order), 0.0)
        for key, val in (G or {}).items():
            if key not in table:
                raise DomainError(f"moment index {key} outside 2 <= a+b <= {order}")
            table[key] = float(val)
        return cls(x=float(x), p=float(p), G=table, order=order)

    def moment(self, a: int, b: int) -> float:
        """G^{a,b} with the closure convention: first moments and moments
        beyond the truncation order read as zero."""
        if a < 0 or b < 0:
            raise DomainError("moment indices must be >= 0")
        if a + b < 2 or a + b > self.order:
            return 0.0
        return self.G[(a, b)]


@dataclass(frozen=True)
class SaturatedIC:
    """Uncorrelated second-moment initial data saturating c0*c2 = hbar^2/4."""

    alpha: float
    c0: float  # G^{2,0}(0), momentum variance
    c1: float  # G^{1,1}(0), always 0 here
    c2: float  # G^{0,2}(0) = alpha * l_g^2


def saturated_ic(alpha: float, u: UnitSystem) -> SaturatedIC:
    """c2 = alpha*l_g^2, c1 = 0, and c0 from the exact saturation identity
    c0 = hbar^2/(4 c2) (equivalently g m^2 l_g / (2 alpha))."""
    if not (alpha > 0 and math.isfinite(alpha)):
        raise DomainError("alpha must be positive and finite")
    c2 = alpha * u.l_g**2
    return SaturatedIC(alpha=alpha, c0=u.hbar**2 / (4.0 * c2), c1=0.0, c2=c2)


def initial_state(ic: SaturatedIC, x0: float, p0: float = 0.0, order: int = 2) -> MomentState:
    return MomentState.make(
        x=x0, p=p0, order=order, G={(2, 0): ic.c0, (1, 1): ic.c1, (0, 2): ic.c2}
    )


def effective_hamiltonian(s: MomentState, V: PolynomialPotential, m: float) -> float:
    """Expectation of the Hamiltonian p^2/2m + V(x) through the stored moments:

        H(x, p) + G^{2,0}/(2m) + sum_{b=2..order} V^(b)(x)/b! * G^{0,b}

    (mixed p-x derivatives of a separable Hamiltonian vanish, and the kinetic
    term contributes only at a = 2).
    """
    if s.order < 2:
        raise DomainError("moment order must be >= 2")
    h = s.p * s.p / (2.0 * m) + V.value(s.x) + s.moment(2, 0) / (2.0 * m)
    for b in range(2, s.order + 1):
        if b > V.degree:
            break
        h += V.derivative(s.x, b) / math.factorial(b) * s.moment(0, b)
    return h


def moment_eom(s: MomentState, V: PolynomialPotential, m: float) -> MomentState:
    """Time derivative of a MomentState (packed in the same container).

        dx/dt = p/m                       (kinetic corrections vanish: H is
                                           quadratic in p)
        dp/dt = -V'(x) - sum_b V^(b+1)(x)/b! * G^{0,b}
        dG^{a,b}/dt = (b/m) G^{a+1,b-1}
                      + a * sum_{n>=2} V^(n)(x)/(n-1)! *
                        [G^{0,n-1} G^{a-1,b} - G^{a-1,b+n-1}]

    Moments outside the truncation are closed to zero.
    """
    if s.order < 2:
        raise DomainError("moment order must be >= 2")
    dx = s.p / m
    dp = -V.derivative(s.x, 1)
    for b in range(2, s.order + 1):
        if b + 1 > V.degree:
            break
        dp -= V.derivative(s.x, b + 1) / math.factorial(b) * s.moment(0, b)
    dG = {}
    for a, b in moment_pairs(s.order):
        val = (b / m) * s.moment(a + 1, b - 1) if b > 0 else 0.0
        if a > 0:
            for n in range(2, V.degree + 1):
                vn = V.derivative(s.x, n) / math.factorial(n - 1)
                val += a * vn * (s.moment(0, n - 1) * s.moment(a - 1, b) - s.moment(a - 1, b + n - 1))
        dG[(a, b)] = val
    return MomentState(x=dx, p=dp, G=dG, order=s.order)


@dataclass(frozen=True, eq=False)
class MomentTrajectory:
    """Sampled output of integrate(); iterating yields (t, MomentState)."""

    times: np.ndarray
    states: Sequence[MomentState]
    warnings: tuple[str, ...] = field(default=())

    def __iter__(self) -> Iterator[tuple[float, MomentState]]:
        return zip(self.times, self.states)

    def __len__(self) -> int:
        return len(self.states)


def _pack(s: MomentState, pairs) -> np.ndarray:
    return np.array([s.x, s.p] + [s.G[k] for k in pairs])


def _unpack(y: np.ndarray, pairs, order: int) -> MomentState:
    return MomentState(x=y[0], p=y[1], G=dict(zip(pairs, y[2:])), order=order)


def integrate(
    s0: MomentState,
    V: PolynomialPotential,
    m: float,
    t_end: float,
    dt: float,
    hbar: float | None = None,
) -> MomentTrajectory:
    """Fixed-step classical RK4 integration of the moment equations.

    Deterministic; samples at k*dt for k = 0..round(t_end/dt).  State updates
    use compensated (Kahan) accumulation so conserved combinations hold to
    ~1e-13 relative over tens of thousands of steps.

    If the uncertainty product G^{0,2} G^{2,0} - (G^{1,1})^2 drops more than
    1e-6 (relative) below its reference value - hbar^2/4 when hbar is given,
    otherwise the initial product - a warning is attached to the trajectory
    (truncation of a nonlinear hierarchy can do this; it is not fatal).
    A non-finite state is fatal: NumericalError names its step and time.
    """
    if dt <= 0:
        raise DomainError("dt must be > 0")
    if t_end <= 0:
        raise DomainError("t_end must be > 0")
    pairs = moment_pairs(s0.order)
    order = s0.order

    def rhs(y: np.ndarray) -> np.ndarray:
        return _pack(moment_eom(_unpack(y, pairs, order), V, m), pairs)

    n_steps = max(1, int(round(t_end / dt)))
    y = _pack(s0, pairs)
    comp = np.zeros_like(y)
    times = dt * np.arange(n_steps + 1)
    states = [s0]
    reference = hbar * hbar / 4.0 if hbar is not None else uncertainty_product(s0)
    worst = 0.0
    for step in range(1, n_steps + 1):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        increment = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        term = increment - comp
        total = y + term
        comp = (total - y) - term
        y = total
        if not np.isfinite(y).all():
            raise NumericalError(f"moment state is not finite at step {step} (t = {times[step]:.6g})")
        state = _unpack(y, pairs, order)
        states.append(state)
        if reference > 0:
            deficit = (reference - uncertainty_product(state)) / reference
            worst = max(worst, deficit)
    warnings = ()
    if worst > 1e-6:
        warnings = (
            f"uncertainty product fell {worst:.2e} (relative) below its reference; "
            "likely a truncation artifact of the closed hierarchy",
        )
    return MomentTrajectory(times=times, states=states, warnings=warnings)


def closed_form_linear(ic, m: float, t):
    """(G^{2,0}, G^{1,1}, G^{0,2}) at time t for a linear potential:

        G^{2,0} = c0,  G^{1,1} = c0 t / m + c1,
        G^{0,2} = c0 t^2 / m^2 + 2 c1 t / m + c2.

    ic is a SaturatedIC or a plain (c0, c1, c2) triple; t may be an array.
    """
    if isinstance(ic, SaturatedIC):
        c0, c1, c2 = ic.c0, ic.c1, ic.c2
    else:
        c0, c1, c2 = ic
    t = _check_times(t)
    g20 = np.broadcast_to(c0, t.shape).copy() if t.ndim else c0
    g11 = (c0 / m) * t + c1
    g02 = (c0 / (m * m)) * t * t + (2.0 * c1 / m) * t + c2
    if t.ndim == 0:
        return float(g20), float(g11), float(g02)
    return g20, g11, g02


def uncertainty_product(s: MomentState) -> float:
    """G^{0,2} G^{2,0} - (G^{1,1})^2; compare against hbar^2/4."""
    if s.order < 2:
        raise DomainError("moment order must be >= 2")
    return s.moment(0, 2) * s.moment(2, 0) - s.moment(1, 1) ** 2


def envelope(
    x0: float,
    ic: SaturatedIC,
    m: float,
    g: float,
    t,
    reset_each_period: bool = False,
):
    """Dispersion band (x_cl - sqrt(G^{0,2}), x_cl + sqrt(G^{0,2})) around the
    folded classical bounce released from rest at x0.

    By default the moment clock runs continuously through bounces; with
    reset_each_period=True it restarts at every apex (period 2T), making the
    band identical in each arc.
    """
    spec = BounceSpec(x0=x0, g=g)
    t = np.asarray(t, dtype=float)
    x_cl = bounce_trajectory(spec, t)
    clock = np.mod(t, 2.0 * spec.drop_time) if reset_each_period else t
    _, _, g02 = closed_form_linear(ic, m, clock)
    width = np.sqrt(g02)
    lower, upper = x_cl - width, x_cl + width
    if t.ndim == 0:
        return float(lower), float(upper)
    return lower, upper
