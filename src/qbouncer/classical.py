"""Exact classical bouncer: free fall, the folded bounce train, and its
Fourier-series representation."""

from __future__ import annotations

import math
import sys

import numpy as np

from ._record import ValueRecord
from .errors import DomainError
from .specfun import _index

__all__ = ["BounceSpec", "free_fall", "bounce_trajectory", "bounce_fourier"]


class BounceSpec(ValueRecord):
    """Drop from rest at height x0 in field g (v0 shifts the release point)."""

    _fields = ("x0", "g", "v0")

    def __init__(self, x0: float, g: float, v0: float = 0.0):
        self.__dict__.update(x0=x0, g=g, v0=v0)
        if not (self.x0 >= 0 and math.isfinite(self.x0)):
            raise DomainError("x0 must be >= 0")
        if not (self.g > 0 and math.isfinite(self.g)):
            raise DomainError("g must be > 0")
        if not math.isfinite(self.drop_time):  # 2 x0 / g overflows
            raise DomainError(f"x0={self.x0!r}, g={self.g!r} give an infinite drop time sqrt(2 x0/g)")

    @property
    def drop_time(self) -> float:
        """Time T from the apex to mirror contact; the bounce period is 2T."""
        return math.sqrt(2.0 * self.x0 / self.g)


def _check_times(t):
    """t as a float array; raises DomainError for negative or non-finite times."""
    t = np.asarray(t, dtype=float)
    if (t < 0).any() or not np.isfinite(t).all():
        raise DomainError("time must be finite and >= 0")
    return t


def free_fall(spec: BounceSpec, t):
    """x0 + v0*t - (g/2)*t^2, no mirror; DomainError where it overflows."""
    t = _check_times(t)
    with np.errstate(over="ignore", invalid="ignore"):
        out = spec.x0 + spec.v0 * t - 0.5 * spec.g * t * t
    bad = ~np.isfinite(out)
    if bad.any():
        raise DomainError(f"free fall overflows at t={float(t[bad][0])!r} (x0={spec.x0!r}, "
                          f"v0={spec.v0!r}, g={spec.g!r})")
    return float(out) if out.ndim == 0 else out


def bounce_trajectory(spec: BounceSpec, t):
    """Height of the perfectly reflected bounce train (v0 = 0 only).

    Folds time modulo the period 2T instead of accumulating parabola
    segments, so arbitrarily late times cost O(1) and do not drift.
    """
    if spec.v0 != 0.0:
        raise DomainError("bounce_trajectory supports only v0 = 0")
    t = _check_times(t)
    T = spec.drop_time
    if T == 0.0:
        out = np.zeros_like(t)
        return float(out) if out.ndim == 0 else out
    # distance in time from the nearest apex, in [0, T]
    tau = np.abs(np.mod(t + T, 2.0 * T) - T)
    out = spec.x0 - 0.5 * spec.g * tau * tau
    return float(out) if out.ndim == 0 else out


def _bounce_series(x0: float, T: float, t, n_terms: int, damping: float = 0.0):
    """(2/3) x0 + (4 x0 / pi^2) * sum_{n=1..n_terms} (-1)^(n+1)/n^2
                 * exp(-damping n^2) * cos(pi n t / T)

    The bounce Fourier series (damping = 0) and its Gaussian-damped
    semiclassical form; T > 0 is the drop time.  The coefficients
    a_n = (-1)^(n+1) exp(-damping n^2)/n^2 fall with n, so they stop at the
    first one below 2^-1022 (subnormals slow every Clenshaw operation): then
    they fall faster than geometrically, so the dropped terms move the result
    by less than 2^-1022 (4 x0/pi^2), below half its ulp unless it is within
    1e-290 x0 of 0.  The sum of a_n cos(n theta), with
    theta = pi t/T, is Clenshaw's backward recurrence (Math. Comp. 9, 118
    (1955)) on c = cos(theta):

        b_n = a_n + 2 c b_(n+1) - b_(n+2),   sum = c b_1 - b_2,

    one cos per time and three array operations per term.  Raises
    DomainError when 4 x0/pi^2 or pi max(t)/T overflows.
    """
    if _index(n_terms, "n_terms") < 1:
        raise DomainError("n_terms must be >= 1")
    t = _check_times(t)
    amplitude = 4.0 * x0 / math.pi**2
    if not math.isfinite(amplitude):
        raise DomainError(f"x0={x0!r} overflows the series amplitude 4 x0/pi^2")
    t_max = float(np.max(t, initial=0.0))
    if not math.isfinite(math.pi / T * t_max):
        raise DomainError(f"the series phase pi t/T overflows at T={T!r}, t={t_max!r}")
    coeffs = []
    for n in range(1, n_terms + 1):
        a = (1.0 if n % 2 else -1.0) / (n * n) * math.exp(-damping * n * n)
        if abs(a) < sys.float_info.min:
            break
        coeffs.append(a)
    c = np.cos((math.pi / T) * t)
    two_c = 2.0 * c
    # b_N = 2 c 0 - 0 + a_N is exactly a_N; arrays are taken, then reused, as needed
    b1, b2, spare = (coeffs.pop() if coeffs else 0.0), 0.0, None
    for a in reversed(coeffs):
        b0 = np.multiply(two_c, b1, out=spare)
        b0 -= b2
        b0 += a
        spare = b2 if isinstance(b2, np.ndarray) else None
        b1, b2 = b0, b1
    out = (2.0 / 3.0) * x0 + amplitude * (c * b1 - b2)
    return float(out) if out.ndim == 0 else out


def bounce_fourier(spec: BounceSpec, t, n_terms: int):
    """Truncated Fourier series of the bounce train.

        x(t) = (2/3) x0 + (4 x0 / pi^2) * sum_{n>=1} (-1)^(n+1)/n^2 cos(pi n t / T)

    The bounce has period 2T and its apex sits at t = 0; matching the series
    against the folded trajectory pins the cosine argument to 2*pi*n*t/(2T)
    and the sign of the sum (see the fold-oracle test).  The time average of
    the series over a period is (2/3) x0.
    """
    if spec.v0 != 0.0:
        raise DomainError("bounce_fourier supports only v0 = 0")
    # x0 = 0 zeroes every term, so any T > 0 serves for its zero drop time
    return _bounce_series(spec.x0, spec.drop_time or 1.0, t, n_terms)
