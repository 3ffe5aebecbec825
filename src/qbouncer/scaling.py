"""Physical constants and the gravitational characteristic scales.

A particle of mass m in a uniform field g (with hbar) defines a length
l_g = (hbar^2 / (2 g m^2))^(1/3), an energy e_g = m*g*l_g and a time
t_g = hbar / e_g.  Dimensionless ("starred") variables divide by these.
"""

from __future__ import annotations

import math

from ._record import ValueRecord
from .errors import DomainError

__all__ = [
    "UnitSystem",
    "make_units",
    "neutron_units",
    "natural_units",
    "units_from_preset",
]

# CODATA / SI exact values.
HBAR_SI = 1.054571817e-34  # J s
EV_IN_JOULE = 1.602176634e-19
SPEED_OF_LIGHT = 299792458.0  # m / s
MEV_C2_IN_KG = 1e6 * EV_IN_JOULE / SPEED_OF_LIGHT**2

NEUTRON_MASS_MEV = 940.0
STANDARD_GRAVITY = 9.81  # m / s^2


class UnitSystem(ValueRecord):
    """Mass, gravity and hbar plus the derived gravitational scales."""

    _fields = ("m", "g", "hbar", "l_g", "e_g", "t_g")

    def __init__(self, m: float, g: float, hbar: float, l_g: float, e_g: float, t_g: float):
        self.__dict__.update(m=m, g=g, hbar=hbar, l_g=l_g, e_g=e_g, t_g=t_g)


def make_units(m: float, g: float, hbar: float) -> UnitSystem:
    """Build a UnitSystem from mass, gravitational acceleration and hbar."""
    for name, v in (("m", m), ("g", g), ("hbar", hbar)):
        if not (math.isfinite(v) and v > 0):
            raise DomainError(f"{name} must be positive and finite, got {v!r}")
    den = 2.0 * g * m * m  # 0 or inf where the product leaves doubles
    l_g = (hbar * hbar / den) ** (1.0 / 3.0) if den > 0 else math.inf
    e_g = m * g * l_g
    t_g = hbar / e_g if e_g > 0 else math.inf
    for name, v in (("l_g", l_g), ("e_g", e_g), ("t_g", t_g)):
        if not 0 < v < math.inf:
            raise DomainError(f"m={m!r}, g={g!r}, hbar={hbar!r} give {name} = {v!r}, not positive and finite")
    return UnitSystem(m=m, g=g, hbar=hbar, l_g=l_g, e_g=e_g, t_g=t_g)


def neutron_units() -> UnitSystem:
    """SI units for a neutron (940 MeV/c^2) in standard gravity."""
    return make_units(NEUTRON_MASS_MEV * MEV_C2_IN_KG, STANDARD_GRAVITY, HBAR_SI)


def natural_units() -> UnitSystem:
    """Gravitational natural units: m=1/2, g=2, hbar=1 give l_g = e_g = t_g = 1.

    In these units the stationary equation is psi'' = (x - E) psi and the
    classical fall obeys d^2x/dt^2 = -2.
    """
    return make_units(0.5, 2.0, 1.0)


_PRESETS = {"neutron": neutron_units, "natural": natural_units}


def units_from_preset(name: str) -> UnitSystem:
    try:
        return _PRESETS[name]()
    except KeyError:
        raise DomainError(f"unknown unit preset {name!r}; known: {sorted(_PRESETS)}") from None
