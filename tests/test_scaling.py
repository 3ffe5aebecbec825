"""Unit systems and the gravitational scales."""

import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qbouncer.errors import DomainError
from qbouncer.scaling import (
    EV_IN_JOULE,
    make_units,
    natural_units,
    neutron_units,
    units_from_preset,
)

positive = st.floats(min_value=1e-3, max_value=1e3)


def test_neutron_scales_match_tabulated():
    u = neutron_units()
    assert u.l_g * 1e6 == pytest.approx(5.87, rel=5e-3)
    e_g_pev = u.e_g / EV_IN_JOULE * 1e12
    assert e_g_pev == pytest.approx(0.602, rel=5e-3)


def test_natural_choices():
    # m = 1/sqrt(2), g = 1, hbar = 1 puts l_g exactly at 1
    u = make_units(1.0 / math.sqrt(2.0), 1.0, 1.0)
    assert u.l_g == pytest.approx(1.0, rel=1e-14)
    # the package-wide natural units make all three scales 1
    n = natural_units()
    assert (n.l_g, n.e_g, n.t_g) == (1.0, 1.0, 1.0)


def test_presets():
    assert units_from_preset("neutron") == neutron_units()
    with pytest.raises(DomainError):
        units_from_preset("imperial")


@given(positive, positive, positive)
def test_derived_scale_identities(m, g, hbar):
    u = make_units(m, g, hbar)
    assert u.l_g == pytest.approx((hbar**2 / (2 * g * m**2)) ** (1 / 3), rel=1e-14)
    # two closed forms of the energy scale
    assert u.e_g == pytest.approx((hbar**2 * g**2 * m / 2) ** (1 / 3), rel=1e-12)
    assert u.e_g / (u.m * u.g) == pytest.approx(u.l_g, rel=1e-12)
    assert u.t_g == pytest.approx(hbar / u.e_g, rel=1e-14)
    assert u.t_g > 0


@pytest.mark.parametrize("bad", [(0, 1, 1), (1, -2, 1), (1, 1, 0), (math.nan, 1, 1)])
def test_rejects_nonpositive(bad):
    with pytest.raises(DomainError):
        make_units(*bad)


@pytest.mark.parametrize("m,g,hbar", [
    (1e-300, 1.0, 1.0),    # m*m underflows: l_g would divide by 0
    (1.0, 1e-320, 1.0),    # hbar^2/(2 g m^2) overflows: l_g = inf
    (1e200, 1e200, 1.0),   # 2 g m^2 overflows: l_g = 0
])
def test_rejects_scales_outside_doubles(m, g, hbar):
    # every input is positive and finite, but the length scale is 0 or inf
    with pytest.raises(DomainError, match=re.escape(f"m={m!r}, g={g!r}, hbar={hbar!r} give l_g")):
        make_units(m, g, hbar)
