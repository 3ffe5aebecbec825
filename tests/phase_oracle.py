"""Exact-phase oracle for spectral evolution: the <x> and <x^2> rows of a
state at durations t, with every phase exp(-i E_n t/hbar) taken from the
double E_n, t and hbar in 40-digit mpmath.

At 40 digits the product E_n t of two doubles is exact, so each phase is
reduced mod 2 pi without the rounding that the package's rows carry: the
direct rows round E_n t, the NUFFT kernel each pair's (E_n - E_m) h/hbar.
Only the evolved coefficients are rounded back to doubles; the quadratic
forms conj(c) M c are then summed in doubles, which costs a few ulps of the
largest row value.
"""

import mpmath
import numpy as np


def exact_rows(state, times) -> np.ndarray:
    """(2, T) rows <x>, <x^2> of state at the durations times."""
    basis = state.basis
    hbar = mpmath.mpf(basis.units.hbar)
    mats = (basis.x_matrix, basis.x2_matrix())
    out = []
    with mpmath.workdps(40):
        for t in np.asarray(times, dtype=float):
            c = np.array([
                complex(mpmath.mpc(cn.real, cn.imag) * mpmath.expj(-mpmath.mpf(e) * mpmath.mpf(t) / hbar))
                for cn, e in zip(state.coefficients, basis.energies)
            ])
            out.append([(np.conj(c) @ m @ c).real for m in mats])
    return np.array(out).reshape(-1, 2).T
