"""Airy-basis matrices and Gaussian projections by adaptive quadrature: the
oracle that the closed-form position matrices, the orthonormality of the
basis, the closed-form packet coefficients and the package's fixed
Gauss-Legendre rule (specfun.integrate_1d) are checked against.

The eigenfunctions are evaluated here from the zeros and norms directly, not
through the package's projection table, and the adaptive engine takes its
own Gauss-Legendre nodes from numpy.
"""

import math

import numpy as np

from qbouncer.errors import NumericalError
from qbouncer.quantum import _TAIL_MARGIN
from qbouncer.specfun import airy_ai

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


def _panel_values(f, lo, hi):
    """15-point Gauss-Legendre sums of f over each panel: shape (panels, *component_shape)."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = np.asarray(f(nodes.ravel()), dtype=float)
    tail = vals.shape[1:]
    vals = np.moveaxis(vals.reshape(nodes.shape + tail), 1, -1)
    return half.reshape(half.shape + (1,) * len(tail)) * (vals @ _GL_WEIGHTS)


def integrate(f, a, b, tol=1e-10, initial_panels=1, max_subdivisions=4000):
    """Adaptive composite 15-point Gauss-Legendre integral of f on [a, b].

    f maps P points to an array of shape (P, *shape); the result has the
    trailing shape.  Panels are bisected until, for every component k, the
    change under refinement is below max(tol, tol |result_k|) *
    panel_width / (b - a); NumericalError once more than max_subdivisions
    panels have been split.  When every starting panel passes at once this
    is specfun.integrate_1d on initial_panels panels, operation for
    operation.
    """
    span = b - a
    edges = np.linspace(a, b, initial_panels + 1)
    lo = edges[:-1]
    hi = edges[1:]
    parent = _panel_values(f, lo, hi)

    accepted_sum = 0.0
    splits = 0
    while lo.size:
        estimate = accepted_sum + parent.sum(axis=0)
        allowed = np.maximum(tol, tol * np.abs(estimate))
        mid = 0.5 * (lo + hi)
        child = _panel_values(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        refined = child[: lo.size] + child[lo.size :]
        err = np.abs(refined - parent)
        ok = (err.reshape(lo.size, -1) <= allowed.reshape(-1) * (hi - lo)[:, None] / span).all(axis=1)
        accepted_sum += refined[ok].sum(axis=0)
        bad = ~ok
        splits += int(bad.sum())
        if splits > max_subdivisions:
            raise NumericalError(f"subdivision cap {max_subdivisions} exceeded on [{a}, {b}]")
        lo = np.concatenate([lo[bad], mid[bad]])
        hi = np.concatenate([mid[bad], hi[bad]])
        parent = np.concatenate([child[: len(ok)][bad], child[len(ok) :][bad]])
    return accepted_sum


def _initial_panels(span):
    """Starting panels of at most 0.6 (in l_g), at least 8: placed
    independently of the package's rule, which follows the top state's
    oscillation."""
    return max(8, math.ceil(span / 0.6))


def weighted_matrix(basis, power):
    """Dimensionless matrix of integral psi_m psi_n (x*)^power on [0, inf),
    every entry m <= n from one vector-valued quadrature."""
    rows, cols = np.triu_indices(basis.n_max)

    def integrand(x):
        psi = basis.norms * airy_ai(x[:, None] - basis.zeros)
        return psi[:, rows] * psi[:, cols] * (x**power)[:, None]

    upper = float(basis.zeros[-1]) + _TAIL_MARGIN
    values = integrate(integrand, 0.0, upper, initial_panels=_initial_panels(upper))
    out = np.empty((basis.n_max, basis.n_max))
    out[rows, cols] = out[cols, rows] = values
    return out


def overlap_matrix(basis):
    """Gram matrix <m|n> (identity up to quadrature error)."""
    return weighted_matrix(basis, 0)


def norm_integrals(basis):
    """Integral of psi_n^2 on [0, x_N + margin] for every state, one scalar
    adaptive quadrature each."""
    upper = float(basis.zeros[-1]) + _TAIL_MARGIN
    panels = _initial_panels(upper)
    return np.array([
        integrate(lambda x, n=n: (basis.norms[n] * airy_ai(x - basis.zeros[n])) ** 2,
                  0.0, upper, initial_panels=panels)
        for n in range(basis.zeros.size)
    ])


def gaussian_projection(packet, basis):
    """Coefficients of the Gaussian packet clipped to x >= 0 and renormalized,
    integrated over [max(0, x0 - 9 sigma), x0 + 9 sigma] by one vector-valued
    adaptive quadrature over all states."""
    l_g = basis.units.l_g
    lo = max(0.0, packet.x0 - 9.0 * packet.sigma)
    hi = packet.x0 + 9.0 * packet.sigma
    rescale = 1.0 / math.sqrt(1.0 - packet.clipped_mass())

    def integrand(x):
        psi = basis.norms / math.sqrt(l_g) * airy_ai(x[:, None] / l_g - basis.zeros)
        return psi * (rescale * packet.wavefunction(x))[:, None]

    return integrate(integrand, lo, hi, initial_panels=_initial_panels((hi - lo) / l_g))
