"""Classical-ensemble oracle for the packet width past the first bounce.

The Wigner function of the Gaussian packet (2/(pi sigma^2))^(1/4)
exp(-(x - x0)^2 / sigma^2) is a product of Gaussians: x ~ N(x0, sigma^2/4),
p ~ N(0, hbar^2/sigma^2).  Each phase-space point is pushed through the exact
folded bounce of its own energy, and the moments of the height are summed on
a tensor Gauss-Hermite rule.  Nodes below the mirror (x < 0) are dropped:
they have no bounce, and their weight is negligible wherever the packet is
far enough from the mirror to be projected.  Written with numpy only,
independent of qbouncer.
"""

import math

import numpy as np


def ensemble_width(x0: float, sigma: float, m: float, g: float, hbar: float, times):
    """(mean, sqrt(Var)) of the height over the classical ensemble at times,
    on the 120 x 120 Gauss-Hermite rule."""
    z, w = np.polynomial.hermite_e.hermegauss(120)  # weight exp(-z^2/2)
    x, v = np.meshgrid(x0 + 0.5 * sigma * z, hbar / (sigma * m) * z, indexing="ij")
    weight = np.outer(w, w) / (2.0 * math.pi)
    keep = x >= 0.0
    x, v, weight = x[keep], v[keep], weight[keep]
    apex = x + v * v / (2.0 * g)        # height of the bounce through (x, v)
    drop = np.sqrt(2.0 * apex / g)      # its apex-to-contact time
    t = np.asarray(times, dtype=float)[:, None]
    # time from the nearest apex, folded into [0, drop]; the point is v/g
    # before its apex at t = 0
    tau = np.abs(np.mod(t - v / g + drop, 2.0 * drop) - drop)
    height = apex - 0.5 * g * tau * tau
    mean = height @ weight
    var = (height - mean[:, None]) ** 2 @ weight
    return mean, np.sqrt(var)
