"""Exact classical bouncer: free fall, the folded bounce train, and its
Fourier-series representation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["BounceSpec", "free_fall", "bounce_trajectory", "bounce_fourier"]


@dataclass(frozen=True)
class BounceSpec:
    """Drop from rest at height x0 in field g (v0 shifts the release point)."""

    x0: float
    g: float
    v0: float = 0.0

    def __post_init__(self):
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
    """x0 + v0*t - (g/2)*t^2, no mirror."""
    t = _check_times(t)
    out = spec.x0 + spec.v0 * t - 0.5 * spec.g * t * t
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
    semiclassical form; T > 0 is the drop time.  The weights fall with n, so
    the sum stops at the first one that underflows to 0: every later term is
    +-0.0 and leaves the accumulator (never -0.0) unchanged.
    """
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    t = _check_times(t)
    acc = np.zeros_like(t)
    for n in range(1, n_terms + 1):
        weight = math.exp(-damping * n * n)
        if weight == 0.0:
            break
        sign = 1.0 if n % 2 else -1.0
        acc += sign / (n * n) * weight * np.cos((math.pi * n / T) * t)
    out = (2.0 / 3.0) * x0 + (4.0 * x0 / math.pi**2) * acc
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
