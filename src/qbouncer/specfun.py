"""Special functions and quadrature: Airy Ai, Ai', its zeros, and an
adaptive Gauss-Legendre integrator.

Everything here is self-contained (no scipy): Ai and Ai' are evaluated
piecewise from the power series of the defining ODE y'' = x*y, from Taylor
expansions about precomputed anchor points, and from the standard large-|x|
asymptotic expansions.  All functions are pure and accept either scalars or
numpy arrays.  airy_ai_smoothed gives Ai convolved with a Gaussian in closed
form, as another Airy function.

The zeros come from one array Newton kernel: every requested index starts
from the asymptotic seed [3 pi/2 (n - 1/4)]^(2/3) (the leading term of
DLMF 9.9.6 and 9.9.18), and each sweep is one airy() call on all the
entries still moving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NumericalError, QuadratureError

__all__ = [
    "AiryValue",
    "QuadratureSpec",
    "DEFAULT_QUAD",
    "airy_ai",
    "airy_ai_prime",
    "airy",
    "airy_ai_smoothed",
    "airy_zero",
    "airy_zero_asymptotic",
    "integrate_1d",
]


@dataclass(frozen=True)
class AiryValue:
    """Ai and Ai' at one point (floats), or at every point of an array
    (arrays of its shape)."""

    ai: float | np.ndarray
    ai_prime: float | np.ndarray


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for integrate_1d."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 4000

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


DEFAULT_QUAD = QuadratureSpec()

# Ai(0) and Ai'(0): 3^(-2/3)/Gamma(2/3) and -3^(-1/3)/Gamma(1/3).
_AI0 = 0.3550280538878172
_AIP0 = -0.2588194037928068

# Power series of y'' = x*y works in doubles down to x ~ -4.5 before the
# cancellation between the two fundamental solutions costs more than ~1e-13
# absolutely.  For x > 0, where Ai decays and callers scale it by e^(a x),
# the same cancellation costs *relative* accuracy (9e-11 at x = 4.49), so the
# series stops at 1.5.  Beyond that, Taylor steps from tabulated anchors;
# beyond |x| = 9, the asymptotic expansions are past their optimal-truncation
# point.
_SERIES_CUT = 4.5
_SERIES_CUT_POSITIVE = 1.5
_ASYMP_CUT = 9.0

# Anchor values (x, Ai(x), Ai'(x)) on a 0.75-spaced grid covering the Taylor
# bands [-9, -4.5) and (1.5, 9], precomputed in 40-digit arithmetic.
_ANCHORS = (
    (-8.625, -0.30454420433149104, -0.3758542688656525),
    (-7.875, 0.06508085382051565, 0.9295117784036155),
    (-7.125, 0.2688490542067818, -0.5690230085326955),
    (-6.375, -0.30907297438308345, -0.4530622357717545),
    (-5.625, -0.08944937021646834, 0.8389589649551079),
    (-4.875, 0.37763603253447076, 0.10099285574363498),
    (1.875, 0.04212963624499835, -0.062388280684420545),
    (2.625, 0.012735929874768289, -0.02171156948415664),
    (3.375, 0.0032853966210555307, -0.006258914271870555),
    (4.125, 0.0007343405663568322, -0.001533111012308941),
    (4.875, 0.0001438943695320532, -0.0003247105484552747),
    (5.625, 2.4950024118502626e-05, -6.023613298159355e-05),
    (6.375, 3.857360451522611e-06, -9.885234323287339e-06),
    (7.125, 5.351484226254018e-07, -1.4466590399568004e-06),
    (7.875, 6.698647510681967e-08, -1.900504494274465e-07),
    (8.625, 7.60106734778057e-09, -2.2538261188997648e-08),
)
_ANCHOR_X = np.array([a[0] for a in _ANCHORS])
# x takes the anchor of the interval between consecutive midpoints it falls in
_ANCHOR_SPLIT = 0.5 * (_ANCHOR_X[1:] + _ANCHOR_X[:-1])

_N_MAC = 36


def _maclaurin_coefficients():
    # f solves y''=xy with (1, 0) initial data, g with (0, 1);
    # f = sum fc[k] x^{3k}, g = sum gc[k] x^{3k+1}.
    fc = np.empty(_N_MAC)
    gc = np.empty(_N_MAC)
    fc[0] = gc[0] = 1.0
    for k in range(1, _N_MAC):
        fc[k] = fc[k - 1] / ((3 * k) * (3 * k - 1))
        gc[k] = gc[k - 1] / ((3 * k + 1) * (3 * k))
    return fc, gc


_F_C, _G_C = _maclaurin_coefficients()

_K_ANCHOR = 26


def _anchor_coefficients():
    # Taylor coefficients of Ai about each anchor via the ODE recurrence
    # c[j] = (x0*c[j-2] + c[j-3]) / (j*(j-1)).
    coef = np.zeros((len(_ANCHORS), _K_ANCHOR))
    for i, (x0, ai, aip) in enumerate(_ANCHORS):
        c = coef[i]
        c[0], c[1] = ai, aip
        for j in range(2, _K_ANCHOR):
            c[j] = (x0 * c[j - 2] + (c[j - 3] if j >= 3 else 0.0)) / (j * (j - 1))
    return coef


_ANCHOR_COEF = _anchor_coefficients()

_K_ASYMP = 26


def _asymptotic_coefficients():
    u = np.empty(_K_ASYMP)
    v = np.empty(_K_ASYMP)
    u[0] = v[0] = 1.0
    for k in range(1, _K_ASYMP):
        u[k] = u[k - 1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1))
        v[k] = u[k] * (6 * k + 1) / (1.0 - 6 * k)
    return u, v


_U_AS, _V_AS = _asymptotic_coefficients()
_SQRT_PI = math.sqrt(math.pi)


def _eval_maclaurin(x):
    w = x * x * x
    f = np.zeros_like(x)
    fp = np.zeros_like(x)
    g = np.zeros_like(x)
    gp = np.zeros_like(x)
    for k in range(_N_MAC - 1, -1, -1):
        f = f * w + _F_C[k]
        fp = fp * w + _F_C[k] * (3 * k)
        g = g * w + _G_C[k]
        gp = gp * w + _G_C[k] * (3 * k + 1)
    xsafe = np.where(x == 0.0, 1.0, x)
    fp = np.where(x == 0.0, 0.0, fp / xsafe)
    g = g * x
    return _AI0 * f + _AIP0 * g, _AI0 * fp + _AIP0 * gp


def _eval_anchor(x):
    rows = np.searchsorted(_ANCHOR_SPLIT, x)
    h = x - _ANCHOR_X[rows]
    val = np.zeros_like(x)
    der = np.zeros_like(x)
    for j in range(_K_ANCHOR - 1, -1, -1):
        c = _ANCHOR_COEF[rows, j]
        val = val * h + c
        der = der * h + c * j
    hsafe = np.where(h == 0.0, 1.0, h)
    der = np.where(h == 0.0, _ANCHOR_COEF[rows, 1], der / hsafe)
    return val, der


def _asymptotic_positive_undamped(x):
    """zeta = (2/3) x^(3/2) and the large-x expansions of e^zeta Ai(x) and
    e^zeta Ai'(x): Ai and Ai' without their factor e^(-zeta)."""
    zeta = (2.0 / 3.0) * x**1.5
    z = 1.0 / zeta
    s_ai = np.zeros_like(x)
    s_aip = np.zeros_like(x)
    for k in range(_K_ASYMP - 1, -1, -1):
        sgn = -1.0 if k % 2 else 1.0
        s_ai = s_ai * z + sgn * _U_AS[k]
        s_aip = s_aip * z + sgn * _V_AS[k]
    root4 = x**0.25
    return zeta, s_ai / (2.0 * _SQRT_PI * root4), -root4 * s_aip / (2.0 * _SQRT_PI)


def _eval_asymptotic_positive(x):
    zeta, ai, aip = _asymptotic_positive_undamped(x)
    damp = np.exp(-zeta)
    return damp * ai, damp * aip


def _eval_asymptotic_negative(x):
    zmag = -x
    zeta = (2.0 / 3.0) * zmag**1.5
    w = 1.0 / (zeta * zeta)
    p_ai = np.zeros_like(x)
    q_ai = np.zeros_like(x)
    p_aip = np.zeros_like(x)
    q_aip = np.zeros_like(x)
    for k in range((_K_ASYMP + 1) // 2 - 1, -1, -1):
        sgn = -1.0 if k % 2 else 1.0
        p_ai = p_ai * w + sgn * _U_AS[2 * k]
        p_aip = p_aip * w + sgn * _V_AS[2 * k]
    for k in range(_K_ASYMP // 2 - 1, -1, -1):
        sgn = -1.0 if k % 2 else 1.0
        q_ai = q_ai * w + sgn * _U_AS[2 * k + 1]
        q_aip = q_aip * w + sgn * _V_AS[2 * k + 1]
    chi = zeta - 0.25 * math.pi
    c, s = np.cos(chi), np.sin(chi)
    root4 = zmag**0.25
    ai = (c * p_ai + s * q_ai / zeta) / (_SQRT_PI * root4)
    aip = (root4 / _SQRT_PI) * (s * p_aip - c * q_aip / zeta)
    return ai, aip


def _airy_core(x: np.ndarray):
    ai = np.empty_like(x)
    aip = np.empty_like(x)
    small = (x >= -_SERIES_CUT) & (x <= _SERIES_CUT_POSITIVE)
    mid = (np.abs(x) <= _ASYMP_CUT) & ~small
    pos = x > _ASYMP_CUT
    neg = x < -_ASYMP_CUT
    if small.any():
        ai[small], aip[small] = _eval_maclaurin(x[small])
    if mid.any():
        ai[mid], aip[mid] = _eval_anchor(x[mid])
    if pos.any():
        ai[pos], aip[pos] = _eval_asymptotic_positive(x[pos])
    if neg.any():
        ai[neg], aip[neg] = _eval_asymptotic_negative(x[neg])
    return ai, aip


def _checked_array(x):
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError("Airy functions require finite arguments")
    return arr


def airy_ai(x):
    """Ai(x).  Absolute error below 1e-12 for |x| <= 15; for x >= 0, relative
    error below 1e-14 up to x = 9 and below 1e-13 up to x = 40."""
    arr = _checked_array(x)
    ai, _ = _airy_core(np.atleast_1d(arr))
    return float(ai[0]) if arr.ndim == 0 else ai.reshape(arr.shape)


def airy_ai_prime(x):
    """Ai'(x).  Absolute error below 1e-10 for |x| <= 15; for x >= 0, relative
    error below 1e-14 up to x = 9 and below 1e-13 up to x = 40."""
    arr = _checked_array(x)
    _, aip = _airy_core(np.atleast_1d(arr))
    return float(aip[0]) if arr.ndim == 0 else aip.reshape(arr.shape)


def airy(x) -> AiryValue:
    """Ai and Ai' together (one shared evaluation), for a scalar or an array."""
    arr = _checked_array(x)
    ai, aip = _airy_core(np.atleast_1d(arr))
    if arr.ndim == 0:
        return AiryValue(float(ai[0]), float(aip[0]))
    return AiryValue(ai.reshape(arr.shape), aip.reshape(arr.shape))


def airy_ai_smoothed(y, a: float):
    """Ai smoothed by the heat kernel of variance 2a, for a scalar a >= 0 and
    a scalar or an array y:

        (4 pi a)^(-1/2) * integral Ai(u) exp(-(u - y)^2 / (4a)) du
            = exp(a y + 2 a^3 / 3) * Ai(y + a^2)

    (Vallee & Soares, Airy Functions and Applications to Physics, 2004; it
    follows from shifting the contour of Ai's Fourier integral).  The value
    never exceeds max|Ai|, but exp(2 a^3 / 3) alone overflows past a ~ 10,
    so with z = y + a^2 the exponent is taken as a z - a^3 / 3, at most 18
    for z <= 9, and past z = 9 is merged with Ai's own exp(-(2/3) z^(3/2))
    into -(sqrt(z) - a)^2 (2 sqrt(z) + a) / 3, which cancels nothing.
    """
    arr = _checked_array(y)
    if not (a >= 0 and math.isfinite(a * a * a)):
        raise DomainError(f"smoothing parameter must be >= 0 with a**3 finite, got a = {a!r}")
    z = np.atleast_1d(arr) + a * a
    out = np.empty_like(z)
    far = z > _ASYMP_CUT
    near = ~far
    if near.any():
        zn = z[near]
        out[near] = np.exp(a * zn - a * a * a / 3.0) * _airy_core(zn)[0]
    if far.any():
        zf = z[far]
        _, ai, _ = _asymptotic_positive_undamped(zf)
        root = np.sqrt(zf)
        out[far] = np.exp(-((root - a) ** 2) * (2.0 * root + a) / 3.0) * ai
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def airy_zero_asymptotic(n: int) -> float:
    """Large-n estimate [3*pi/2 * (n - 1/4)]^(2/3) of the n-th zero magnitude."""
    if n < 1:
        raise DomainError("zero index must be >= 1")
    return (1.5 * math.pi * (n - 0.25)) ** (2.0 / 3.0)


_NEWTON_CAP = 50
_NEWTON_STEP_TOL = 1e-13


def _newton_zeros(indices) -> np.ndarray:
    """Zero magnitudes x_n for every index n in indices, by Newton on all of
    them at once.

    Each sweep is one airy() call on the entries still moving; an entry
    retires once its step is below max(_NEWTON_STEP_TOL, 4 ulp(x_n)) (past
    x_n ~ 450 the absolute tolerance is below one ulp).  The seed is within
    1% already, so three sweeps reach ~1e-15.  Raises NumericalError naming
    the first index still moving after _NEWTON_CAP sweeps.
    """
    # one libm pow per index: numpy's array ** rounds some seeds an ulp apart
    # (n = 12, 79, 88, ...), and that ulp survives Newton in x_176, x_187, ...
    x = np.array([airy_zero_asymptotic(n) for n in indices], dtype=float)
    active = np.arange(x.size)
    for _ in range(_NEWTON_CAP):
        if not active.size:
            break
        v = airy(-x[active])
        step = v.ai / v.ai_prime
        x[active] += step
        # negated "<", so that a NaN step never retires its entry
        done = np.abs(step) < np.maximum(_NEWTON_STEP_TOL, 4 * np.spacing(x[active]))
        active = active[~done]
    if active.size:
        raise NumericalError(f"Airy zero Newton iteration did not converge for n={indices[active[0]]}")
    return x


def airy_zero(n: int) -> float:
    """Magnitude x_n > 0 of the n-th zero of Ai (Ai(-x_n) = 0)."""
    return float(_newton_zeros([n])[0])


def airy_zeros(n_max: int) -> np.ndarray:
    """First n_max zero magnitudes, ascending."""
    return _newton_zeros(range(1, n_max + 1))


# 15-point Gauss-Legendre rule used on every panel.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


def _panel_values(f, lo, hi):
    """Gauss-Legendre sums of f over each panel: shape (panels, *component_shape)."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    flat = nodes.ravel()
    vals = np.asarray(f(flat), dtype=float)
    if vals.shape[:1] != flat.shape:
        raise DomainError(
            f"integrand returned shape {vals.shape} for {flat.size} points; "
            "its leading axis must run over the points"
        )
    tail = vals.shape[1:]
    vals = np.moveaxis(vals.reshape(nodes.shape + tail), 1, -1)
    return half.reshape(half.shape + (1,) * len(tail)) * (vals @ _GL_WEIGHTS)


def integrate_1d(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_QUAD,
    initial_panels: int = 1,
) -> float | np.ndarray:
    """Adaptive composite 15-point Gauss-Legendre integral of f on [a, b].

    f takes an ndarray of P evaluation points and returns an array of shape
    (P, *shape); the result has that trailing shape (a float for shape ()).
    Panels are bisected until, for every component k, the change under
    refinement is below the locally apportioned tolerance
    max(abs_tol, rel_tol*|result_k|) * panel_width / (b - a).  Deterministic
    for fixed inputs.

    Raises DomainError if f's result does not have the points on its leading
    axis, and QuadratureError (carrying the best estimate and its error
    bound, both of the component shape) if max_subdivisions panel splits are
    not enough.
    """
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise DomainError("integration interval must satisfy a < b and be finite")
    span = b - a
    edges = np.linspace(a, b, max(1, initial_panels) + 1)
    lo = edges[:-1]
    hi = edges[1:]
    parent = _panel_values(f, lo, hi)

    accepted_sum = 0.0
    accepted_err = 0.0
    splits = 0
    while lo.size:
        estimate = accepted_sum + parent.sum(axis=0)
        tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(estimate))
        mid = 0.5 * (lo + hi)
        child_lo = np.concatenate([lo, mid])
        child_hi = np.concatenate([mid, hi])
        child = _panel_values(f, child_lo, child_hi)
        refined = child[: lo.size] + child[lo.size :]
        err = np.abs(refined - parent)
        ok = (err.reshape(lo.size, -1) <= tol.reshape(-1) * (hi - lo)[:, None] / span).all(axis=1)
        accepted_sum += refined[ok].sum(axis=0)
        accepted_err += err[ok].sum(axis=0)
        bad = ~ok
        splits += int(bad.sum())
        if splits > spec.max_subdivisions:
            best = accepted_sum + refined[bad].sum(axis=0)
            bound = accepted_err + err[bad].sum(axis=0)
            raise QuadratureError(
                f"subdivision cap {spec.max_subdivisions} exceeded on [{a}, {b}]",
                best_estimate=best,
                error_bound=bound,
            )
        lo = np.concatenate([lo[bad], mid[bad]])
        hi = np.concatenate([mid[bad], hi[bad]])
        parent = np.concatenate([child[: len(ok)][bad], child[len(ok) :][bad]])
    return accepted_sum
