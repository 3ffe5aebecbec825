"""Airy-basis matrices and Gaussian projections by adaptive quadrature: the
oracle that the closed-form position matrices, the orthonormality of the
basis and the closed-form packet coefficients are checked against.

The eigenfunctions are evaluated here from the zeros and norms directly, not
through the package's projection table.
"""

import math

import numpy as np

from qbouncer.quantum import _TAIL_MARGIN
from qbouncer.specfun import airy_ai, integrate_1d


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
    values = integrate_1d(integrand, 0.0, upper, initial_panels=_initial_panels(upper))
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
        integrate_1d(lambda x, n=n: (basis.norms[n] * airy_ai(x - basis.zeros[n])) ** 2,
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

    return integrate_1d(integrand, lo, hi, initial_panels=_initial_panels((hi - lo) / l_g))
