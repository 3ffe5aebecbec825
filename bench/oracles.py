"""Independent reference values for the benchmark's correctness checks.

Nothing here imports qbouncer: every oracle is a tabulated value or a closed
form derived separately from the package's own formulas, so no check compares
a package formula with itself.
"""

from __future__ import annotations

import math

import numpy as np

# |a_s|, the magnitudes of the first ten zeros of Ai (DLMF 9.9, Table 9.9.1).
AIRY_ZEROS = (
    2.338107410459767,
    4.087949444130971,
    5.520559828095551,
    6.786708090071759,
    7.944133587120853,
    9.022650853340980,
    10.04017434155809,
    11.00852430373326,
    11.93601556323626,
    12.82877675286576,
)


def airy_zero_seed(n: int) -> float:
    """Leading asymptotic term [3 pi/2 (n - 1/4)]^(2/3) of the n-th zero (DLMF 9.9.6)."""
    return (1.5 * math.pi * (n - 0.25)) ** (2.0 / 3.0)


def folded_bounce(x0: float, g: float, t: np.ndarray) -> np.ndarray:
    """Height of a ball dropped from rest at x0 onto a mirror, by unfolding
    time onto the parabola of the nearest apex (apexes at multiples of 2T)."""
    period = 2.0 * math.sqrt(2.0 * x0 / g)
    tau = t - period * np.round(t / period)
    return x0 - 0.5 * g * tau * tau


def fourier_truncation_sup(x0: float, nterms: int) -> float:
    """Exact sup over t of |bounce - its nterms-term Fourier series|:
    (4 x0 / pi^2) * sum_{n > nterms} 1/n^2, attained at the contact kink."""
    head = math.fsum(1.0 / (n * n) for n in range(1, nterms + 1))
    return 4.0 * x0 / math.pi**2 * (math.pi**2 / 6.0 - head)


def damped_series_bound(x0: float, sigma: float, nterms: int) -> float:
    """Bound on |<x>_series(t) - (2/3) x0| for a Gaussian packet in
    gravitational units: every cosine term has modulus at most its damping
    factor exp(-pi^2 n^2 x0 / (2 sigma^2)) / n^2."""
    d = math.pi**2 * x0 / (2.0 * sigma**2)
    return 4.0 * x0 / math.pi**2 * math.fsum(math.exp(-d * n * n) / (n * n) for n in range(1, nterms + 1))


def virial_mean_height(x0: float, sigma: float) -> float:
    """Long-time mean of <x> for a packet of width sigma (Var x = sigma^2/4)
    released at rest at x0, in gravitational units.  The diagonal ensemble
    gives (2/3)<H> by the virial theorem for a linear potential, with
    <H> = x0 + <p^2> = x0 + 1/sigma^2."""
    return (2.0 / 3.0) * (x0 + 1.0 / sigma**2)


def _double_factorial(k: int) -> int:
    """k!! for odd k >= -1 ((-1)!! = 1)."""
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def isserlis(spp, spx, sxx, a: int, b: int):
    """E[P^a X^b] for a zero-mean bivariate normal with covariance
    [[spp, spx], [spx, sxx]] (Isserlis/Wick): sum over the number k of
    P-X pairs of C(a,k) C(b,k) k! spx^k (a-k-1)!! spp^((a-k)/2)
    (b-k-1)!! sxx^((b-k)/2).  Arguments may be arrays."""
    total = 0.0
    for k in range(min(a, b) + 1):
        if (a - k) % 2 or (b - k) % 2:
            continue
        weight = math.comb(a, k) * math.comb(b, k) * math.factorial(k)
        weight *= _double_factorial(a - k - 1) * _double_factorial(b - k - 1)
        total = total + weight * spx**k * spp ** ((a - k) // 2) * sxx ** ((b - k) // 2)
    return total


def gaussian_moment_scale(spp, sxx, a: int, b: int):
    """Cauchy-Schwarz bound sqrt(E[P^2a] E[X^2b]) on |E[P^a X^b]|, used to
    normalise errors of moments that may vanish."""
    return np.sqrt(_double_factorial(2 * a - 1) * spp**a * _double_factorial(2 * b - 1) * sxx**b)


def linear_potential_moments(cov, m: float, t):
    """(G20, G11, G02)(t) in a uniform field, where every particle keeps its
    acceleration: p(t) = p + F t and x(t) = x + p t/m + F t^2/2m, so the
    spread evolves as for a free particle.  cov = (G20, G11, G02) at t = 0."""
    spp, spx, sxx = cov
    return spp + 0.0 * t, spx + spp * t / m, sxx + 2.0 * spx * t / m + spp * t * t / (m * m)


def harmonic_flow(m: float, omega: float, t: np.ndarray):
    """Phase-space flow of H = p^2/2m + m omega^2 x^2/2 as the entries of
    (p, x)(t) = [[app, apx], [axp, axx]] (p, x)(0)."""
    c, s = np.cos(omega * t), np.sin(omega * t)
    return c, -m * omega * s, s / (m * omega), c


def harmonic_moments(x0, p0, cov, m, omega, t, pairs):
    """Exact means and Gaussian central moments under the harmonic flow.

    cov = (spp, spx, sxx) at t = 0; returns x(t), p(t), covariance arrays
    and {(a, b): G^{a,b}(t)} for the requested pairs.
    """
    app, apx, axp, axx = harmonic_flow(m, omega, t)
    spp0, spx0, sxx0 = cov
    x = axp * p0 + axx * x0
    p = app * p0 + apx * x0
    spp = app * app * spp0 + 2.0 * app * apx * spx0 + apx * apx * sxx0
    spx = app * axp * spp0 + (app * axx + apx * axp) * spx0 + apx * axx * sxx0
    sxx = axp * axp * spp0 + 2.0 * axp * axx * spx0 + axx * axx * sxx0
    return x, p, (spp, spx, sxx), {(a, b): isserlis(spp, spx, sxx, a, b) for a, b in pairs}
