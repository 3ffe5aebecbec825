"""Special functions and quadrature: Airy Ai, Ai', its zeros, and a fixed
composite Gauss-Legendre rule that checks each panel against its halves.

Everything here is self-contained (no scipy): Ai and Ai' come from three
regions.  On |x| <= 9, Taylor series of the defining ODE y'' = x*y about 24
anchors tabulated in 40-digit arithmetic, none more than 0.375 away
(measured against mpmath: absolute error <= 1.1e-16 for Ai, 2.2e-16 for
Ai'); beyond, on either side, the standard large-|x| asymptotic expansions
(Vallee & Soares, Airy Functions and Applications to Physics, 2004).  Each
region's series is one coefficient table built at import, Ai's rows first;
Ai' is computed only when asked for.  All functions are pure and accept
either scalars or numpy arrays.  airy_ai_smoothed gives Ai convolved with a
Gaussian in closed form, as another Airy function.

The zeros come from one array Newton kernel: every requested index starts
from the asymptotic seed [3 pi/2 (n - 1/4)]^(2/3) (the leading term of
DLMF 9.9.6 and 9.9.18), and each sweep is one airy() call on all the
entries still moving.

integrate_1d takes one fixed rule: no panel is refined, and a panel whose
halves disagree with it raises NumericalError.  The tests hold it to an
adaptive engine of their own (tests/quadrature_oracle.py).
"""

from __future__ import annotations

import math
import operator
from typing import Callable

import numpy as np

from ._record import ValueRecord
from .errors import DomainError, NumericalError

__all__ = [
    "AiryValue",
    "airy_ai",
    "airy_ai_prime",
    "airy",
    "airy_ai_smoothed",
    "airy_zero",
    "airy_zero_asymptotic",
    "integrate_1d",
]


class AiryValue(ValueRecord):
    """Ai and Ai' at one point (floats), or at every point of an array
    (arrays of its shape)."""

    _fields = ("ai", "ai_prime")

    def __init__(self, ai: float | np.ndarray, ai_prime: float | np.ndarray):
        self.__dict__.update(ai=ai, ai_prime=ai_prime)


# Beyond |x| = 9 the asymptotic expansions are past their optimal-truncation
# point; inside, Taylor steps of at most 0.375 from tabulated anchors.
_ASYMP_CUT = 9.0

# Anchor values (x, Ai(x), Ai'(x)) on a 0.75-spaced grid covering [-9, 9],
# precomputed in 40-digit arithmetic (mpmath airyai at mp.dps = 40).
_ANCHORS = (
    (-8.625, -0.30454420433149104, -0.3758542688656525),
    (-7.875, 0.06508085382051565, 0.9295117784036155),
    (-7.125, 0.2688490542067818, -0.5690230085326955),
    (-6.375, -0.30907297438308345, -0.4530622357717545),
    (-5.625, -0.08944937021646834, 0.8389589649551079),
    (-4.875, 0.37763603253447076, 0.10099285574363498),
    (-4.125, 0.02972777436684795, -0.8008454063061511),
    (-3.375, -0.40798010467638945, -0.17439523323668546),
    (-2.625, -0.19439353537659892, 0.6294581183027284),
    (-1.875, 0.3008300330020466, 0.5542266870425884),
    (-1.125, 0.5324750381207861, 0.0608579778044662),
    (-0.375, 0.44854446153764316, -0.22940458601462507),
    (0.375, 0.2606695731738953, -0.2383282018506552),
    (1.125, 0.11644642687889935, -0.1424780150682703),
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

_K_ANCHOR = 26


def _anchor_table():
    # Taylor coefficients c[j] of Ai about every anchor at once, a column per
    # power, via the ODE recurrence c[j] = (x0*c[j-2] + c[j-3]) / (j*(j-1))
    # (no c[j-3] at j = 2); rows Ai (c[j]) and h Ai' (c[j] j), each
    # (anchors, powers).
    x0, ai, aip = np.array(_ANCHORS).T
    c = np.empty((len(_ANCHORS), _K_ANCHOR))
    c[:, 0], c[:, 1], c[:, 2] = ai, aip, x0 * ai / 2
    for j in range(3, _K_ANCHOR):
        c[:, j] = (x0 * c[:, j - 2] + c[:, j - 3]) / (j * (j - 1))
    return np.stack((c, c * np.arange(_K_ANCHOR)))


_ANCHOR_TABLE = _anchor_table()

_K_ASYMP = 26


def _asymptotic_tables():
    # (-1)^k u_k and (-1)^k v_k as rows in powers of 1/zeta (x > 0), and their
    # even (P) and odd (Q) terms as rows in powers of 1/zeta^2 (x < 0).
    u = np.empty(_K_ASYMP)
    v = np.empty(_K_ASYMP)
    u[0] = v[0] = 1.0
    for k in range(1, _K_ASYMP):
        u[k] = u[k - 1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1))
        v[k] = u[k] * (6 * k + 1) / (1.0 - 6 * k)
    sign = np.where(np.arange(_K_ASYMP) % 2, -1.0, 1.0)
    even_odd = np.stack((u[0::2], u[1::2], v[0::2], v[1::2]))
    return sign * np.stack((u, v)), sign[: _K_ASYMP // 2] * even_odd


_ASYMP_POSITIVE, _ASYMP_NEGATIVE = _asymptotic_tables()
_SQRT_PI = math.sqrt(math.pi)


def _horner(table, t):
    """Each row of table (one column per power) as a polynomial at t; Horner from zeros."""
    acc = np.zeros((len(table), t.size))
    for col in table.T[::-1]:
        acc *= t
        acc += col[:, None]
    return acc


def _eval_anchor(x, prime):
    # each point has its own anchor, so each power gathers its own column
    idx = np.searchsorted(_ANCHOR_SPLIT, x)
    h = x - _ANCHOR_X[idx]
    table = _ANCHOR_TABLE if prime else _ANCHOR_TABLE[:1]
    acc = np.zeros((len(table), x.size))
    for j in range(_K_ANCHOR - 1, -1, -1):
        acc *= h
        acc += table[:, idx, j]
    if not prime:
        return (acc[0],)
    return acc[0], np.where(h == 0.0, table[0, idx, 1], acc[1] / np.where(h == 0.0, 1.0, h))


def _asymptotic_positive_undamped(x, prime):
    """zeta = (2/3) x^(3/2) and the large-x expansions of e^zeta Ai(x) and,
    if prime, of e^zeta Ai'(x): Ai and Ai' without their factor e^(-zeta)."""
    # past x ~ 3e205 zeta overflows; e^-inf = 0 and 1/inf = 0 are its limits
    with np.errstate(over="ignore"):
        zeta = (2.0 / 3.0) * x**1.5
    s = _horner(_ASYMP_POSITIVE if prime else _ASYMP_POSITIVE[:1], 1.0 / zeta)
    root4 = x**0.25
    ai = s[0] / (2.0 * _SQRT_PI * root4)
    return zeta, ((ai, -root4 * s[1] / (2.0 * _SQRT_PI)) if prime else (ai,))


def _eval_asymptotic_positive(x, prime):
    zeta, undamped = _asymptotic_positive_undamped(x, prime)
    damp = np.exp(-zeta)
    return [damp * v for v in undamped]


def _eval_asymptotic_negative(x, prime):
    zmag = -x
    zeta = (2.0 / 3.0) * zmag**1.5
    p_ai, q_ai, *pq = _horner(_ASYMP_NEGATIVE if prime else _ASYMP_NEGATIVE[:2], 1.0 / (zeta * zeta))
    chi = zeta - 0.25 * math.pi
    c, s = np.cos(chi), np.sin(chi)
    root4 = zmag**0.25
    ai = (c * p_ai + s * q_ai / zeta) / (_SQRT_PI * root4)
    if not prime:
        return (ai,)
    p_aip, q_aip = pq
    return ai, (root4 / _SQRT_PI) * (s * p_aip - c * q_aip / zeta)


def _airy_core(x: np.ndarray, prime=True):
    """[Ai] on an array, or [Ai, Ai'] if prime: anchors on |x| <= 9, the
    asymptotic expansions beyond.  Each region's table has Ai's rows first;
    Ai-only calls take those rows, which read no Ai' row, so prime leaves
    Ai's bits."""
    out = [np.empty_like(x) for _ in range(2 if prime else 1)]
    near = np.abs(x) <= _ASYMP_CUT
    pos = x > _ASYMP_CUT
    neg = x < -_ASYMP_CUT
    for where, evaluate in ((near, _eval_anchor), (pos, _eval_asymptotic_positive),
                            (neg, _eval_asymptotic_negative)):
        if where.any():
            for dst, val in zip(out, evaluate(x[where], prime)):
                dst[where] = val
    return out


# below -1e8 rounding the phase (2/3)|x|^(3/2) alone costs more than 1e-4 rad
_X_MIN = -1e8


def _checked_array(x):
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError("Airy functions require finite arguments")
    if (arr < _X_MIN).any():
        raise DomainError(f"Airy functions need x >= {_X_MIN:g}, where the phase is still resolved")
    return arr


def airy_ai(x):
    """Ai(x).  Absolute error below 5e-16 for |x| <= 9 and 1e-14 for
    |x| <= 40; for x >= 0, relative error below 1.5e-15 up to x = 9 and
    1e-13 up to x = 40.  DomainError for x < -1e8 or not finite."""
    arr = _checked_array(x)
    (ai,) = _airy_core(np.atleast_1d(arr), prime=False)
    return float(ai[0]) if arr.ndim == 0 else ai.reshape(arr.shape)


def airy_ai_prime(x):
    """Ai'(x).  Absolute error below 1e-15 for |x| <= 9 and 1e-13 for
    |x| <= 40; for x >= 0, relative error below 1.5e-15 up to x = 9 and
    1e-13 up to x = 40.  DomainError for x < -1e8 or not finite."""
    return airy(x).ai_prime


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
    DomainError for y < -1e8, as for Ai itself.
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
        out[near] = np.exp(a * zn - a * a * a / 3.0) * _airy_core(zn, prime=False)[0]
    if far.any():
        zf = z[far]
        _, (ai,) = _asymptotic_positive_undamped(zf, prime=False)
        root = np.sqrt(zf)
        with np.errstate(over="ignore"):  # an exponent past -1.8e308 is e^-inf = 0
            out[far] = np.exp(-((root - a) ** 2) * (2.0 * root + a) / 3.0) * ai
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _index(n, what="zero index") -> int:
    try:
        return operator.index(n)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {n!r}") from None


def airy_zero_asymptotic(n: int) -> float:
    """Large-n estimate [3*pi/2 * (n - 1/4)]^(2/3) of the n-th zero magnitude."""
    n = _index(n)
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
    """First n_max zero magnitudes, ascending; DomainError unless n_max >= 1."""
    n_max = _index(n_max)
    if n_max < 1:
        raise DomainError(f"number of zeros must be >= 1, got {n_max}")
    return _newton_zeros(range(1, n_max + 1))


# 15-point Gauss-Legendre rule on [-1, 1]: (node, weight) from the centre out.
# The rule is its own mirror image, so these 8 pairs give all 15, equal to
# numpy's leggauss(15) bit for bit without importing numpy.polynomial.
_GL_HALF = (
    (0.0, 0.2025782419255613),
    (0.20119409399743451, 0.1984314853271116),
    (0.3941513470775634, 0.1861610000155622),
    (0.5709721726085388, 0.16626920581699398),
    (0.7244177313601701, 0.13957067792615444),
    (0.8482065834104272, 0.10715922046717141),
    (0.9372733924007058, 0.0703660474881084),
    (0.9879925180204854, 0.030753241996117203),
)
_GL_NODES = np.array([-x for x, _ in _GL_HALF[:0:-1]] + [x for x, _ in _GL_HALF])
_GL_WEIGHTS = np.array([w for _, w in _GL_HALF[:0:-1]] + [w for _, w in _GL_HALF])
# absolute and relative tolerance of every component of an integral
_QUAD_TOL = 1e-10
# refused before any array is sized: 200 000 panels take 6e6 nodes per call.
# The projection needs at most 133 333 (its 4e6-value table at one state);
# the tests and benchmark workloads use at most 49.
_MAX_PANELS = 200_000


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
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float, panels: int
) -> float | np.ndarray:
    """Composite 15-point Gauss-Legendre integral of f on [a, b], on `panels`
    equal panels and on their halves.

    f takes an ndarray of P evaluation points and returns an array of shape
    (P, *shape); the result, the sum of the half-panel values, has that
    trailing shape (a float for shape ()).  Every panel must pass, for every
    component k, |halves - whole| <= max(1e-10, 1e-10 |estimate_k|) *
    panel_width / (b - a), where estimate is the sum of the whole-panel
    values; no panel is refined further.  Deterministic for fixed inputs.

    Raises DomainError unless a < b with b - a finite, for a panel count
    that is not an integer in 1.._MAX_PANELS (checked before any array is
    sized), or if f's result does not have the points
    on its leading axis, and NumericalError naming the first panel that
    fails the test.
    """
    if not (math.isfinite(b - a) and a < b):
        raise DomainError("integration interval must satisfy a < b and have a finite width")
    panels = _index(panels, "panel count")
    if not panels >= 1:
        raise DomainError(f"integrate_1d needs panels >= 1, got {panels!r}")
    if panels > _MAX_PANELS:
        raise DomainError(f"integrate_1d takes at most {_MAX_PANELS} panels, got {panels!r}")
    edges = np.linspace(a, b, panels + 1)
    lo = edges[:-1]
    hi = edges[1:]
    mid = 0.5 * (lo + hi)
    whole = _panel_values(f, lo, hi)
    halves = _panel_values(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]))
    refined = halves[:panels] + halves[panels:]
    tol = np.maximum(_QUAD_TOL, _QUAD_TOL * np.abs(whole.sum(axis=0)))
    err = np.abs(refined - whole).reshape(panels, -1)
    bad = np.flatnonzero(~(err <= tol.reshape(-1) * (hi - lo)[:, None] / (b - a)).all(axis=1))
    if bad.size:
        k = int(bad[0])
        raise NumericalError(
            f"quadrature panel {k + 1} of {panels}, [{float(lo[k])!r}, {float(hi[k])!r}], "
            f"changed by up to {float(err[k].max()):.3g} on halving, above its tolerance"
        )
    # 0.0 + turns a -0.0 sum into 0.0, as the oracle's accumulated sum does
    return 0.0 + refined.sum(axis=0)
