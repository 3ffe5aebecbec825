"""Semiclassical moment dynamics: equations of motion for <x>, <p> and the
central moments G^{a,b} = <(p-<p>)^a (x-<x>)^b> (Weyl-ordered), truncated at
a configurable order.

For a linear potential the second-order moments decouple from everything
else and solve in closed form; saturated initial data keep the uncertainty
product at hbar^2/4 for all times.  Those closed forms, integrate (the exact
flow of the hierarchy) and the dispersion envelope around the classical
bounce live here.  The potential has degree <= 2: from degree 3 on the
hierarchy needs hbar^2 (Moyal) terms that it lacks, and is refused.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence as SequenceABC
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

import numpy as np

from ._record import FrozenRecord, ValueRecord
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


# integrate's step cap: 1e8 steps would take 12-32 s at orders 2-6 on a 2-core
# x86_64 host (100 times a 1e6-step run), into a trajectory of
# 8e8 (order + 1)(order + 2)/2 bytes.
_MAX_STEPS = 10**8
_EPS = float(np.finfo(float).eps)
# _affine_rows' Taylor blocks Q_r: row r weighs X^i (i < 4) by 1/(4r + i)! for
# 1 <= 4r + i <= 16 (at norm <= 1/2 the terms past the 16th are below eps/10)
_TAYLOR_BLOCKS = np.array([[1 / math.factorial(j) if 1 <= j <= 16 else 0.0 for j in range(r, r + 4)]
                           for r in range(0, 20, 4)])


class PolynomialPotential(ValueRecord):
    """V(x) = sum_k coefficients[k] * x^k, exactly differentiable to any order."""

    _fields = ("coefficients",)

    def __init__(self, coefficients: Sequence[float]):
        if not coefficients:
            raise DomainError("potential needs at least one coefficient")
        # a tuple keeps the potential immutable and hashable
        self.__dict__["coefficients"] = tuple(coefficients)

    @functools.cached_property
    def degree(self) -> int:
        """Index of the highest nonzero coefficient (0 for V = 0)."""
        return max((k for k, c in enumerate(self.coefficients) if c != 0), default=0)

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


def _slot(a: int, b: int, order: int) -> int:
    """Position of G^{a,b} in the flat state vector [x, p, G..., 0] (moment_pairs
    order); first moments, moments beyond the order and negative indices
    close to the trailing zero slot, just past G^{order,0}."""
    if a < 0 or b < 0 or not 2 <= a + b <= order:
        a, b = 0, order + 1
    return (a + b) * (a + b + 1) // 2 - 1 + a


@functools.lru_cache(maxsize=64, typed=True)
def _slots(order: int) -> Mapping[tuple[int, int], int]:
    """{(a, b): _slot(a, b, order)} over moment_pairs(order), read-only."""
    return MappingProxyType({key: i for i, key in enumerate(moment_pairs(order), 2)})


class _MomentReader:
    """x, p, order and moment(a, b) of one state or of every sample of a
    trajectory: a subclass reads slot i of [x, p, G..., 0] with _read(i)."""

    __slots__ = ()
    x = property(lambda self: self._read(0))
    p = property(lambda self: self._read(1))
    order = property(lambda self: self._order)

    def moment(self, a: int, b: int):
        """G^{a,b} with the closure convention: first moments and moments
        beyond the truncation order read as zero."""
        if a < 0 or b < 0:
            raise DomainError("moment indices must be >= 0")
        return self._read(_slot(a, b, self._order))


class MomentState(_MomentReader):
    """Expectation values (x, p) plus central moments up to a truncation order.

    The values live in one read-only float vector [x, p, G..., 0] with G in
    moment_pairs(order) order; G is a read-only mapping view of it.  The
    trailing slot is always 0: first moments (G^{1,0} = G^{0,1} = 0 by
    construction) and moments beyond the order read from it.  moment_eom
    returns a time derivative in the same container.
    """

    __slots__ = ("_y", "_order")

    def __init__(self, x: float, p: float, G: Mapping[tuple[int, int], float], order: int = 2):
        """Every moment up to `order` not in G is 0; keys outside it are rejected."""
        slots = _slots(order)
        y = np.zeros(len(slots) + 3)
        y[0], y[1] = x, p
        for key, val in G.items():
            if key not in slots:
                raise DomainError(f"moment index {key} outside 2 <= a+b <= {order}")
            y[slots[key]] = val
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

    def _read(self, i: int) -> float:
        return float(self._y[i])

    @property
    def G(self) -> Mapping[tuple[int, int], float]:
        return MappingProxyType(dict(zip(moment_pairs(self._order), self._y[2:-1].tolist())))

    def __eq__(self, other):
        if not isinstance(other, MomentState):
            return NotImplemented
        return self._order == other._order and np.array_equal(self._y, other._y)

    def __repr__(self):
        return f"MomentState(x={self.x!r}, p={self.p!r}, G={dict(self.G)!r}, order={self._order})"


class SaturatedIC(ValueRecord):
    """Uncorrelated second-moment initial data saturating c0*c2 = hbar^2/4:
    c0 = G^{2,0}(0), the momentum variance; c1 = G^{1,1}(0), always 0 here;
    c2 = G^{0,2}(0) = alpha * l_g^2."""

    _fields = ("alpha", "c0", "c1", "c2")

    def __init__(self, alpha: float, c0: float, c1: float, c2: float):
        self.__dict__.update(alpha=alpha, c0=c0, c1=c1, c2=c2)


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


def effective_hamiltonian(s, V: PolynomialPotential, m: float):
    """<p^2/2m + V(x)> of a MomentState, or of every sample of traj.states:

        H(x, p) + G^{2,0}/(2m) + sum_{b=2..order} V^(b)(x)/b! * G^{0,b}

    (mixed p-x derivatives of a separable Hamiltonian vanish, and the kinetic
    term contributes only at a = 2).
    """
    h = s.p * s.p / (2.0 * m) + V.value(s.x) + s.moment(2, 0) / (2.0 * m)
    for b in range(2, min(s.order, V.degree) + 1):
        h += V.derivative(s.x, b) / math.factorial(b) * s.moment(0, b)
    return h


@functools.lru_cache(maxsize=64)
def _eom_tables(order: int, m: float) -> np.ndarray:
    """moment_eom's weights for one (order, m): a read-only (2, k, k) array W
    over the slots [x, p, G..., 0].  Row G^{a,b} of W[0] holds b/m at
    G^{a+1,b-1}, and of W[1] holds -a at G^{a-1,b+1}; a weight that points
    outside G (b = 0 or a = 0) lands on the trailing zero slot.  It owns the
    mass rule: DomainError unless m is finite and > 0 with order/m finite."""
    if not (math.isfinite(m) and m > 0 and math.isfinite(order / m)):
        raise DomainError(f"m must be finite and > 0 with order/m finite, got {m!r}")
    pairs = moment_pairs(order)
    W = np.zeros((2, len(pairs) + 3, len(pairs) + 3))
    for i, (a, b) in enumerate(pairs, 2):
        W[0, i, _slot(a + 1, b - 1, order)] = b / m
        W[1, i, _slot(a - 1, b + 1, order)] = -a
    W.flags.writeable = False
    return W


def moment_eom(s: MomentState, V: PolynomialPotential, m: float) -> MomentState:
    """Time derivative of a MomentState (packed in the same container), for
    V = c_0 + c_1 x + c_2 x^2 of degree <= 2:

        dx/dt = p/m,   dp/dt = -V'(x) = -(V'' x + c_1)
        dG^{a,b}/dt = (b/m) G^{a+1,b-1} - a V'' G^{a-1,b+1}

    Moments outside the truncation are closed to zero.  The G rows are
    W[0] y plus (V'' W[1]) y, W from _eom_tables: no row of either matrix
    holds two weights, so each product rounds once and so does their sum, as
    the term-by-term sum does (one product of W[0] + V'' W[1] could fuse
    them).  From degree 3 on these classical brackets miss
    the hbar^2 (Moyal) terms of dG^{a,b}/dt for a >= 3, such as
    -(hbar^2/4) V''' in dG^{3,0}/dt, so such a potential raises DomainError,
    as do an m that is not finite and > 0, a c_1 or an order * V'' (the
    largest weight of V'' W[1]) that is not finite and a state that is not
    finite (named by its first such entry, which the products' zero weights
    would spread as nan).
    """
    if V.degree > 2:
        raise DomainError(
            f"a potential of degree {V.degree} needs the hbar^2 (Moyal) terms of the moment "
            "equations, which this hierarchy lacks; only degree <= 2 is supported"
        )
    W = _eom_tables(s.order, m)
    _, c1, c2 = (V.coefficients + (0.0, 0.0))[:3]
    v2 = c2 * 2  # V''
    # V'' W[1] weighs G^{a-1,b+1} by -a V'', a up to the order
    if not (math.isfinite(s.order * v2) and math.isfinite(c1)):
        raise DomainError(f"V'' = 2 c_2 and c_1 must be finite, as must order * V'' = {s.order} * V'', "
                          f"got c_2 = {c2!r}, c_1 = {c1!r}")
    y = s._y
    finite = np.isfinite(y)
    if not finite.all():
        i = int(np.argmin(finite))
        name = ["x", "p", *(f"G^{{{a},{b}}}" for a, b in moment_pairs(s.order))][i]
        raise DomainError(f"the moment state must be finite, got {name} = {y.item(i)!r}")
    out = W[0] @ y
    out += (v2 * W[1]) @ y
    out[0] = y.item(1) / m
    out[1] = -(v2 * y.item(0) + c1)
    return MomentState._wrap(out, s.order)


def _generator(order: int, V: PolynomialPotential, m: float) -> np.ndarray:
    """[[A, b], [0, 0]] of moment_eom = A y + b: b is its one call, on the zero
    state, which runs its refusals; A is read off its weights as W[0] + V'' W[1]
    (x' = p/m, p' = -V'' x, so V'' is not rounded against c_1), zeros signed as on e_j."""
    b = moment_eom(MomentState._wrap(np.zeros(len(moment_pairs(order)) + 3), order), V, m)._y
    k, v2 = b.size, (V.coefficients + (0.0, 0.0))[2] * 2  # V''
    W, M = _eom_tables(order, m), np.zeros((k + 1, k + 1))
    M[:k, :k] = W[0] + v2 * W[1]
    M[0, 1], M[1, :k - 1], M[1, 0], M[:k, k] = 1.0 / m, -0.0, -(v2 + 0.0), b
    return M


def _affine_rows(s0: MomentState, V: PolynomialPotential, m: float, dt: float, n_steps: int) -> np.ndarray:
    """Rows 0..n_steps of the exact flow from s0, allocated once moment_eom has
    taken V: L steps add y E + c, [[E, 0], [c, 0]] = exp(L dt M^T) - I for
    M = _generator, transposed so that fill products take C-ordered operands:
    sum_{j<=16} X^j/j! at X = dt M^T scaled to norm <= 1/2 in seven products
    (Paterson & Stockmeyer, SIAM J. Comput. 2, 60 (1973)), then E_2L = 2 E_L +
    E_L^2; apart from I, E keeps its relative precision.  Fills go in chunks of
    at most 2^18 // k^2 rows, which OpenBLAS multiplies on the calling thread.
    """
    # an overflow leaves rows that are not finite, which integrate refuses
    with np.errstate(over="ignore", invalid="ignore"):
        k, M = s0._y.size, _generator(s0.order, V, m)
        s = max(0, math.frexp(dt * np.abs(M).sum(axis=0).max())[1] + 1)
        X = np.ldexp(dt * M, -s).T.copy()
        X2 = X @ X
        X4 = X2 @ X2
        powers = np.stack((np.eye(k + 1), X, X2, X2 @ X)).reshape(4, -1)
        Q = (_TAYLOR_BLOCKS @ powers).reshape(5, k + 1, k + 1)
        E = Q[4]
        for r in (3, 2, 1, 0):  # E = Q_0 + X^4 (Q_1 + X^4 (Q_2 + X^4 (Q_3 + X^4 Q_4)))
            E = Q[r] + X4 @ E
        rows = np.empty((n_steps + 1, k))
        rows[0] = s0._y
        chunk = max(1, 2**18 // k**2)
        for i in range(-s, n_steps.bit_length()):  # E moves a row 2^i steps
            if i > -s:
                E = 2.0 * E + E @ E
            if i >= 0:
                top = min(2**(i + 1), n_steps + 1)
                for lo in range(2**i, top, chunk):  # row 2^i + r is rows[r] moved
                    block = rows[lo:min(lo + chunk, top)]
                    src = rows[lo - 2**i:][:len(block)]
                    np.matmul(src, E[:k, :k], out=block)
                    block += E[k, :k]
                    block += src
    return rows


class _StateRows(_MomentReader, SequenceABC):
    """MomentState views of the rows of a read-only (T, k) trajectory array, built
    on access (row 0 is the initial state object itself); x, p, moment read columns."""

    def __init__(self, first: MomentState, rows: np.ndarray):
        self._first, self._rows, self._order = first, rows, first.order

    def _read(self, i: int) -> np.ndarray:
        return self._rows[:, i]

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        j = range(len(self))[i]
        return self._first if j == 0 else MomentState._wrap(self._rows[j], self._order)

    def __iter__(self) -> Iterator[MomentState]:
        yield self._first
        for row in self._rows[1:]:
            yield MomentState._wrap(row, self._order)


class MomentTrajectory(FrozenRecord):
    """Sampled output of integrate(); iterating yields (t, MomentState).

    states is backed by one (T, k) array; its MomentState objects are views
    of its rows, built when they are read; its x, p and moment(a, b) are
    read-only columns, which uncertainty_product and effective_hamiltonian
    take as they take a state.  worst_uncertainty_deficit is the
    largest relative drop of the uncertainty product below its reference
    over the samples after the first (0 when it never drops past its
    rounding error): the number behind the warning.
    """

    _fields = ("times", "states", "warnings", "worst_uncertainty_deficit")

    def __init__(self, times: np.ndarray, states: Sequence[MomentState], warnings: tuple[str, ...] = (),
                 worst_uncertainty_deficit: float = 0.0):
        self.__dict__.update(times=times, states=states, warnings=warnings,
                             worst_uncertainty_deficit=worst_uncertainty_deficit)

    def __iter__(self) -> Iterator[tuple[float, MomentState]]:
        return zip(self.times, self.states)

    def __len__(self) -> int:
        return len(self.states)


def _time_grid(t_end: float, dt: float) -> np.ndarray:
    """k*dt for k = 0..round(t_end/dt), one step at least for t_end > 0: the times of integrate and every CLI
    table.  DomainError refuses a dt not finite and > 0, a t_end not finite and >= 0, then over _MAX_STEPS steps."""
    if not (math.isfinite(dt) and dt > 0):
        raise DomainError(f"dt must be finite and > 0, got {dt!r}")
    if not (math.isfinite(t_end) and t_end >= 0):
        raise DomainError(f"t_end must be finite and >= 0, got {t_end!r}")
    if not t_end / dt <= _MAX_STEPS:
        raise DomainError(f"t_end/dt = {t_end / dt:.3g} steps exceeds the limit of {_MAX_STEPS:.0e}")
    n_steps = max(1, int(round(t_end / dt))) if t_end > 0 else 0
    return dt * np.arange(n_steps + 1)


def integrate(
    s0: MomentState,
    V: PolynomialPotential,
    m: float,
    t_end: float,
    dt: float,
    hbar: float | None = None,
) -> MomentTrajectory:
    """The moment trajectory at k*dt for k = 0..round(t_end/dt), t_end >= 0
    (at least one step for t_end > 0; t_end = 0 gives the one sample s0).

    The rows are the exact flow of moment_eom, to rounding: for the degree
    <= 2 it takes the equations are affine.  Its one call, on the zero state,
    refuses degree >= 3 (DomainError) before any row is allocated.

    A drop of the uncertainty product G^{0,2} G^{2,0} - (G^{1,1})^2 more than
    1e-6 (relative) below its reference (hbar^2/4 when hbar is given, else the
    initial product) and past its rounding error 4 eps (G^{0,2} G^{2,0} +
    (G^{1,1})^2) attaches a warning, not an error.  NumericalError names the
    step and time of the first non-finite state (step 0 when s0 is not
    finite), or of the first whose G^{0,2} G^{2,0} + (G^{1,1})^2 overflows.
    DomainError refuses, before allocation, an m that _eom_tables refuses, then an hbar
    whose square is not finite and > 0, then the dt, t_end or step count _time_grid refuses.
    """
    _eom_tables(s0.order, m)  # refuses a bad m
    if hbar is not None and not (hbar > 0 and 0 < hbar * hbar < math.inf):
        raise DomainError(f"hbar must be > 0 with a finite, nonzero square, got {hbar!r}")
    times = _time_grid(t_end, dt)
    rows = _affine_rows(s0, V, m, dt, times.size - 1)
    if not np.isfinite(rows).all():
        step = int(np.argmin(np.isfinite(rows).all(axis=1)))
        raise NumericalError(f"moment state is not finite at step {step} (t = {times[step]:.6g})")
    rows.flags.writeable = False
    states = _StateRows(s0, rows)
    # finite states can still overflow the product's terms (alpha far from 1);
    # the terms are those of uncertainty_product, formed once for both
    g11 = states.moment(1, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        diag, cross = states.moment(0, 2) * states.moment(2, 0), g11 * g11
        scale = diag + cross
    if not np.isfinite(scale).all():
        k = int(np.argmin(np.isfinite(scale)))
        raise NumericalError(f"uncertainty product overflows at step {k} (t = {times[k]:.6g})")
    product = diag - cross
    reference = hbar * hbar / 4.0 if hbar is not None else product[0]
    worst = 0.0
    if reference > 0:
        # rounding moves the product by about eps (G02 G20 + G11^2) (up to 1.5x
        # under gravity), which can exceed 1e-6 of it: count drops past 4x that;
        # a drop that overflows is an infinite deficit
        with np.errstate(over="ignore"):
            drop = (reference - product)[1:]
            drop[drop <= 4.0 * _EPS * scale[1:]] = 0.0
            worst = float((drop / reference).max(initial=0.0))
    warnings = ()
    if worst > 1e-6:
        warnings = (
            f"uncertainty product fell {worst:.2e} (relative) below its reference; "
            "likely a truncation artifact of the closed hierarchy",
        )
    return MomentTrajectory(times=times, states=states, warnings=warnings, worst_uncertainty_deficit=worst)


def closed_form_linear(ic, m: float, t):
    """(G^{2,0}, G^{1,1}, G^{0,2}) at time t for a linear potential:

        G^{2,0} = c0,  G^{1,1} = c0 t / m + c1,
        G^{0,2} = c0 t^2 / m^2 + 2 c1 t / m + c2.

    ic is a SaturatedIC or a plain (c0, c1, c2) triple; t may be an array;
    t = 0 gives (c0, c1, c2) exactly.  DomainError names an m whose square is
    0 or nan, or the first t at which a moment is not finite.
    """
    c0, c1, c2 = (ic.c0, ic.c1, ic.c2) if isinstance(ic, SaturatedIC) else ic
    t = _check_times(t)
    if not m * m > 0:
        raise DomainError(f"the closed form divides by m*m = {m * m!r} (m={m!r})")
    g20 = np.broadcast_to(c0, t.shape).copy() if t.ndim else c0
    with np.errstate(over="ignore", invalid="ignore"):
        # at t = 0 an overflowing c0/m would give inf * 0 = nan
        g11 = np.where(t == 0, c1, (c0 / m) * t + c1)
        g02 = np.where(t == 0, c2, (c0 / (m * m)) * t * t + (2.0 * c1 / m) * t + c2)
    bad = ~(np.isfinite(g20) & np.isfinite(g11) & np.isfinite(g02))
    if bad.any():
        raise DomainError(f"the closed form is not finite at t={float(t[bad][0])!r} (m={m!r}, ic={ic!r})")
    if t.ndim == 0:
        return float(g20), float(g11), float(g02)
    return g20, g11, g02


def uncertainty_product(s):
    """G^{0,2} G^{2,0} - (G^{1,1})^2 of a MomentState, or of every sample of
    traj.states; compare against hbar^2/4.  G^{1,1} is squared as g11 * g11,
    which rounds alike on floats and arrays (float ** 2 is libm pow)."""
    g11 = s.moment(1, 1)
    return s.moment(0, 2) * s.moment(2, 0) - g11 * g11


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
    band identical in each arc (x0 > 0 then).  DomainError names the first t
    at which the band is not finite.
    """
    spec = BounceSpec(x0=x0, g=g)
    t = np.asarray(t, dtype=float)
    x_cl = bounce_trajectory(spec, t)
    if reset_each_period and spec.drop_time == 0.0:
        raise DomainError(f"x0={x0!r}, g={g!r} give no bounce period 2T to reset the clock at")
    clock = np.mod(t, 2.0 * spec.drop_time) if reset_each_period else t
    _, _, g02 = closed_form_linear(ic, m, clock)
    with np.errstate(over="ignore", invalid="ignore"):
        width = np.sqrt(g02)
        lower, upper = x_cl - width, x_cl + width
    bad = ~(np.isfinite(lower) & np.isfinite(upper))
    if bad.any():
        raise DomainError(f"the envelope is not finite at t={float(t[bad][0])!r} (x0={x0!r}, m={m!r}, g={g!r})")
    if t.ndim == 0:
        return float(lower), float(upper)
    return lower, upper
