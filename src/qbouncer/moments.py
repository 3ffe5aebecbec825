"""Semiclassical moment dynamics: equations of motion for <x>, <p> and the
central moments G^{a,b} = <(p-<p>)^a (x-<x>)^b> (Weyl-ordered), truncated at
a configurable order.

For a linear potential the second-order moments decouple from everything
else and solve in closed form; saturated initial data keep the uncertainty
product at hbar^2/4 for all times.  Those closed forms, integrate (the exact
flow for degree <= 2, fixed-step RK4 above) and the dispersion envelope
around the classical bounce live here.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from types import MappingProxyType
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


# integrate's step cap: 1e8 steps take 25-85 s (exact flow) or 40 min (RK4) on
# a 2-core x86_64 host, into a trajectory of 8e8 (order + 1)(order + 2)/2 bytes.
_MAX_STEPS = 10**8
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class PolynomialPotential:
    """V(x) = sum_k coefficients[k] * x^k, exactly differentiable to any order."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise DomainError("potential needs at least one coefficient")
        # a tuple keeps the coefficients hashable: moment_eom caches its tables on them
        object.__setattr__(self, "coefficients", tuple(self.coefficients))

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


def _slot(a: int, b: int) -> int:
    """Position of G^{a,b} in the flat state vector [x, p, G...] (moment_pairs order)."""
    total = a + b
    return total * (total + 1) // 2 - 1 + a


class MomentState:
    """Expectation values (x, p) plus central moments up to a truncation order.

    The values live in one read-only float vector [x, p, G..., 0] with G in
    moment_pairs(order) order; G is a read-only mapping view of it.  The
    trailing slot is always 0: first moments (G^{1,0} = G^{0,1} = 0 by
    construction) and moments beyond the order read from it.  The same
    container carries time derivatives inside the integrator.
    """

    __slots__ = ("_y", "_order")

    def __init__(self, x: float, p: float, G: Mapping[tuple[int, int], float], order: int = 2):
        """Every moment up to `order` not in G is 0; keys outside it are rejected."""
        pairs = moment_pairs(order)
        y = np.zeros(len(pairs) + 3)
        y[0], y[1] = x, p
        for key, val in G.items():
            if key not in pairs:
                raise DomainError(f"moment index {key} outside 2 <= a+b <= {order}")
            y[_slot(*key)] = val
        y.flags.writeable = False
        self._y, self._order = y, order

    @classmethod
    def _wrap(cls, y: np.ndarray, order: int) -> "MomentState":
        """A state over an existing vector [x, p, G..., 0], without copying or checks."""
        s = object.__new__(cls)
        s._y, s._order = y, order
        return s

    @classmethod
    def make(cls, x: float, p: float, order: int = 2, G: Mapping[tuple[int, int], float] | None = None):
        """Build a state with every moment up to `order` present (missing -> 0)."""
        return cls(x, p, G or {}, order)

    @property
    def x(self) -> float:
        return float(self._y[0])

    @property
    def p(self) -> float:
        return float(self._y[1])

    @property
    def order(self) -> int:
        return self._order

    @property
    def G(self) -> Mapping[tuple[int, int], float]:
        return MappingProxyType(dict(zip(moment_pairs(self._order), self._y[2:-1].tolist())))

    def moment(self, a: int, b: int) -> float:
        """G^{a,b} with the closure convention: first moments and moments
        beyond the truncation order read as zero."""
        if a < 0 or b < 0:
            raise DomainError("moment indices must be >= 0")
        if a + b < 2 or a + b > self._order:
            return 0.0
        return float(self._y[_slot(a, b)])

    def __eq__(self, other):
        if not isinstance(other, MomentState):
            return NotImplemented
        return self._order == other._order and np.array_equal(self._y, other._y)

    def __repr__(self):
        return f"MomentState(x={self.x!r}, p={self.p!r}, G={dict(self.G)!r}, order={self._order})"


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
    # an alpha far from 1 can take c2, or c0 with it, to 0 or inf
    c0 = u.hbar**2 / (4.0 * c2) if c2 > 0 else math.inf
    if not (c2 < math.inf and 0.0 < c0 < math.inf):
        raise DomainError(
            f"alpha = {alpha!r} gives c2 = {c2!r} and c0 = {c0!r}; both must be positive and finite"
        )
    return SaturatedIC(alpha=alpha, c0=c0, c1=0.0, c2=c2)


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
    h = s.p * s.p / (2.0 * m) + V.value(s.x) + s.moment(2, 0) / (2.0 * m)
    for b in range(2, s.order + 1):
        if b > V.degree:
            break
        h += V.derivative(s.x, b) / math.factorial(b) * s.moment(0, b)
    return h


@functools.lru_cache(maxsize=64)
def _eom_tables(order: int, coefficients: tuple[float, ...], m: float) -> tuple:
    """Tables of moment_eom for one (order, V.coefficients, m): (idx, w, horner, g_slots).

    idx is a (degree + 1, k) array of indices into [x, p, G..., 0]; first moments
    and moments beyond the order point at the trailing zero slot.  Its rows gather
    G^{a+1,b-1}, then G^{a-1,b+n-1} for n = 2..degree, then G^{a-1,b}.  w weighs
    the first degree rows (0 outside G): b/m, then a, negated for n = 2, where
    G^{0,1} = 0 leaves only -G^{a-1,b+1}.  horner holds, per n = 1..degree, the
    coefficients of V^(n) from the top power down and (n-1)!; g_slots the slots
    of G^{0,n-1}, n >= 3.  A potential of degree < 2 is padded to degree 2.
    """
    pairs = moment_pairs(order)
    zero = len(pairs) + 2
    coefficients += (0.0,) * (3 - len(coefficients))
    degree = len(coefficients) - 1

    def at(a, b):
        return _slot(a, b) if a >= 0 and b >= 0 and 2 <= a + b <= order else zero

    def row(f, fill):
        return [fill, fill] + [f(a, b) for a, b in pairs] + [fill]

    ns = range(2, degree + 1)
    idx = np.array(
        [row(lambda a, b: at(a + 1, b - 1), zero)]
        + [row(lambda a, b: at(a - 1, b + n - 1), zero) for n in ns]
        + [row(lambda a, b: at(a - 1, b), zero)]
    )
    w = np.array(
        [row(lambda a, b: b / m, 0.0)] + [row(lambda a, b: -a if n == 2 else a, 0.0) for n in ns],
        dtype=float,
    )
    horner = tuple(
        (tuple(coefficients[j] * math.perm(j, n) for j in range(degree, n - 1, -1)),
         float(math.factorial(n - 1)))
        for n in range(1, degree + 1)
    )
    g_slots = tuple(at(0, n - 1) for n in range(3, degree + 1))
    idx.flags.writeable = w.flags.writeable = False
    return idx, w, horner, g_slots


def moment_eom(s: MomentState, V: PolynomialPotential, m: float) -> MomentState:
    """Time derivative of a MomentState (packed in the same container).

        dx/dt = p/m                       (kinetic corrections vanish: H is
                                           quadratic in p)
        dp/dt = -V'(x) - sum_b V^(b+1)(x)/b! * G^{0,b}
        dG^{a,b}/dt = (b/m) G^{a+1,b-1}
                      + a * sum_{n>=2} V^(n)(x)/(n-1)! *
                        [G^{0,n-1} G^{a-1,b} - G^{a-1,b+n-1}]

    Moments outside the truncation are closed to zero.  One gather y[idx]
    reads them all; the terms add up in the order above, with c_n a formed
    first, so each entry rounds as the term-by-term sum does.
    """
    idx, w, horner, g_slots = _eom_tables(s.order, V.coefficients, m)
    y = s._y
    x = y.item(0)
    c = []  # V^(n)(x)/(n-1)!, n = 1..degree
    for coeffs, factorial in horner:
        acc = coeffs[0]
        for cj in coeffs[1:]:
            acc = acc * x + cj
        c.append(acc / factorial)
    dp = -c[0]
    G = y[idx]
    out = w[0] * G[0]
    out += (c[1] * w[1]) * G[1]
    for j, i in enumerate(g_slots, 2):  # n = j + 1 >= 3
        g = y.item(i)
        out += (c[j] * w[j]) * (g * G[-1] - G[j])
        dp -= c[j] * g
    out[0] = y.item(1) / m
    out[1] = dp
    return MomentState._wrap(out, s.order)


def _affine_rows(s0: MomentState, V: PolynomialPotential, m: float, dt: float, rows):
    """Fill rows[1:] with the exact flow from rows[0], for degree <= 2.

    moment_eom is then y' = A y + b (b on the zero state, A e_j + b on e_j;
    the trailing zero slot is not probed).  L steps add D y + c, [[D, c],
    [0, 0]] = exp(L dt [[A, b], [0, 0]]) - I: Taylor at norm <= 1/2, then
    D_2L = 2 D_L + D_L^2; apart from I, D keeps its relative precision.
    einsum keeps the products off BLAS (threads, work buffer).
    """
    def f(y):
        return moment_eom(MomentState._wrap(y, s0.order), V, m)._y

    k = rows.shape[1]
    b = f(np.zeros(k))
    M = np.zeros((k + 1, k + 1))
    M[:k] = np.array([f(e) - b for e in np.eye(k)[:-1]] + [np.zeros(k), b]).T
    s = max(0, math.frexp(dt * np.abs(M).sum(axis=0).max())[1] + 1)
    D = term = M = np.ldexp(dt * M, -s)
    for j in range(2, 17):  # terms past the 16th are below eps/10 of D
        term = np.einsum("ij,jk->ik", term, M) / j
        D = D + term
    for i in range(-s, (len(rows) - 1).bit_length()):  # D moves a row 2^i steps
        if i > -s:
            D = 2.0 * D + np.einsum("ij,jk->ik", D, D)
        if i >= 0:
            block = rows[2**i:2**(i + 1)]
            n = len(block)
            np.einsum("ij,kj->ik", rows[:n], D[:k, :k], out=block)
            block += D[:k, k]
            block += rows[:n]


class _StateRows(SequenceABC):
    """MomentState views of the rows of a (T, k) trajectory array, built on
    access; row 0 is the initial state object itself."""

    def __init__(self, first: MomentState, rows: np.ndarray):
        self._first, self._rows = first, rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        j = range(len(self))[i]
        return self._first if j == 0 else MomentState._wrap(self._rows[j], self._first.order)

    def __iter__(self) -> Iterator[MomentState]:
        yield self._first
        for row in self._rows[1:]:
            yield MomentState._wrap(row, self._first.order)


@dataclass(frozen=True, eq=False)
class MomentTrajectory:
    """Sampled output of integrate(); iterating yields (t, MomentState).

    states is backed by one (T, k) array; its MomentState objects are views
    of its rows, built when they are read.  worst_uncertainty_deficit is the
    largest relative drop of the uncertainty product below its reference
    over the samples after the first (0 when it never drops past its
    rounding error): the number behind the warning.
    """

    times: np.ndarray
    states: Sequence[MomentState]
    warnings: tuple[str, ...] = field(default=())
    worst_uncertainty_deficit: float = 0.0

    def __iter__(self) -> Iterator[tuple[float, MomentState]]:
        return zip(self.times, self.states)

    def __len__(self) -> int:
        return len(self.states)


def integrate(
    s0: MomentState,
    V: PolynomialPotential,
    m: float,
    t_end: float,
    dt: float,
    hbar: float | None = None,
) -> MomentTrajectory:
    """The moment trajectory at k*dt for k = 0..round(t_end/dt).

    For degree <= 2 the equations are affine and the rows are their exact
    flow, to rounding.  Otherwise each step is classical RK4 (moment_eom once
    per stage) added by compensated (Kahan) sums, so conserved combinations
    hold to ~1e-13 relative over 1e4 steps.

    A drop of the uncertainty product G^{0,2} G^{2,0} - (G^{1,1})^2 more than
    1e-6 (relative) below its reference (hbar^2/4 when hbar is given, else the
    initial product) and past its rounding error 4 eps (G^{0,2} G^{2,0} +
    (G^{1,1})^2) attaches a warning, not an error.  NumericalError names the
    step and time of the first non-finite state, or of the first whose
    G^{0,2} G^{2,0} + (G^{1,1})^2 overflows.  More than _MAX_STEPS steps
    (t_end/dt, also when it overflows) is refused before allocation.
    """
    for name, value in (("dt", dt), ("t_end", t_end)):
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be finite and > 0, got {value!r}")
    if not t_end / dt <= _MAX_STEPS:
        raise DomainError(f"t_end/dt = {t_end / dt:.3g} steps exceeds the limit of {_MAX_STEPS:.0e}")
    order = s0.order
    n_steps = max(1, int(round(t_end / dt)))
    times = dt * np.arange(n_steps + 1)
    rows = np.empty((n_steps + 1, s0._y.size))
    rows[0] = y = s0._y
    step = n_steps
    if V.degree <= 2:
        _affine_rows(s0, V, m, dt, rows)
    else:
        comp = np.zeros_like(y)
        half, sixth = 0.5 * dt, dt / 6.0
        for step in range(1, n_steps + 1):
            k1 = moment_eom(MomentState._wrap(y, order), V, m)._y
            k2 = moment_eom(MomentState._wrap(y + half * k1, order), V, m)._y
            k3 = moment_eom(MomentState._wrap(y + half * k2, order), V, m)._y
            k4 = moment_eom(MomentState._wrap(y + dt * k3, order), V, m)._y
            term = sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            # Kahan: add term - comp, keep what the sum dropped in comp
            term -= comp
            total = np.add(y, term, out=rows[step])
            np.subtract(np.subtract(total, y, out=comp), term, out=comp)
            y = total
            if not np.isfinite(y).all():
                break
    bad = np.flatnonzero(~np.isfinite(rows[1:step + 1]).all(axis=1))
    if bad.size:
        step = bad[0] + 1
        raise NumericalError(f"moment state is not finite at step {step} (t = {times[step]:.6g})")
    rows.flags.writeable = False
    # uncertainty product G02 G20 - G11^2 of every sample (slots 2, 3, 4)
    g02, g11, g20 = rows[:, 2], rows[:, 3], rows[:, 4]
    # finite states can still overflow the product's terms (alpha far from 1)
    with np.errstate(over="ignore"):
        scale = g02 * g20 + g11 ** 2
    overflow = np.flatnonzero(~np.isfinite(scale))
    if overflow.size:
        k = int(overflow[0])
        raise NumericalError(f"uncertainty product overflows at step {k} (t = {times[k]:.6g})")
    product = g02 * g20 - g11 ** 2
    reference = hbar * hbar / 4.0 if hbar is not None else product[0]
    worst = 0.0
    if reference > 0:
        # rounding moves the product by about eps (G02 G20 + G11^2) (up to 1.5x
        # under gravity), which can exceed 1e-6 of it: count drops past 4x that
        drop = (reference - product)[1:]
        drop[drop <= 4.0 * _EPS * scale[1:]] = 0.0
        worst = max(0.0, float((drop / reference).max()))
    warnings = ()
    if worst > 1e-6:
        warnings = (
            f"uncertainty product fell {worst:.2e} (relative) below its reference; "
            "likely a truncation artifact of the closed hierarchy",
        )
    return MomentTrajectory(times=times, states=_StateRows(s0, rows), warnings=warnings,
                            worst_uncertainty_deficit=worst)


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
