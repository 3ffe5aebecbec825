"""Cross-validation between the three descriptions.

A Gaussian packet is exactly a saturated moment state (c2 = sigma^2/4,
c0 = hbar^2/sigma^2, c1 = 0), so before the mirror interferes the spectral
solver and the linear-potential moment closed form must agree on Var(x)(t)
through entirely different code paths.

Every entry point that takes times shares one check, so the rejection of
negative and non-finite times is tested here across all three.
"""

import math

import numpy as np
import pytest

from qbouncer.classical import BounceSpec, bounce_fourier, bounce_trajectory, free_fall
from qbouncer.errors import DomainError
from qbouncer.moments import SaturatedIC, closed_form_linear, envelope
from qbouncer.quantum import (
    PacketSpec,
    build_basis,
    evolve,
    expectation_x_evolution,
    expectation_x_series,
    project_packet,
    variance_x_evolution,
)

X0 = 10.0
SIGMA = 1.5


@pytest.fixture(scope="module")
def packet_state(basis26):
    return project_packet(PacketSpec(x0=X0, sigma=SIGMA), basis26)


def matched_ic(units):
    c2 = SIGMA**2 / 4.0
    return SaturatedIC(alpha=c2 / units.l_g**2, c0=units.hbar**2 / SIGMA**2, c1=0.0, c2=c2)


def test_spectral_variance_tracks_moment_closed_form(packet_state, units):
    ic = matched_ic(units)
    ts = np.linspace(0.0, 1.2, 25)  # wall effects stay negligible here
    var = variance_x_evolution(packet_state, ts)
    _, _, g02 = closed_form_linear(ic, units.m, ts)
    assert np.abs(var / g02 - 1).max() < 1e-4


def test_mirror_squeezes_variance_below_free_flight(packet_state, units):
    ic = matched_ic(units)
    spec = BounceSpec(X0, units.g)
    t_contact = spec.drop_time
    ts = np.linspace(0.8 * t_contact, t_contact, 9)
    var = variance_x_evolution(packet_state, ts)
    _, _, g02 = closed_form_linear(ic, units.m, ts)
    assert (var < g02).all()


def test_spectral_mean_follows_classical_arc(packet_state, units):
    ts = np.linspace(0.0, 1.9, 40)  # packet well above the mirror throughout
    mean = expectation_x_evolution(packet_state, ts)
    classic = bounce_trajectory(BounceSpec(X0, units.g), ts)
    assert np.abs(mean / classic - 1).max() < 3e-3


def test_envelope_brackets_spectral_mean(packet_state, units):
    ic = matched_ic(units)
    period = 2.0 * BounceSpec(X0, units.g).drop_time
    ts = np.linspace(0.0, 2.0 * period, 300)
    mean = expectation_x_evolution(packet_state, ts)
    lo, hi = envelope(X0, ic, units.m, units.g, ts)
    assert ((lo <= mean) & (mean <= hi)).all()


def test_half_revival_at_half_the_revival_time(units):
    # criterion 09's packet (N = 64, x0 = 25, sigma = 2): its <x> amplitude
    # recovers where the quadratic dephasing of the spectrum around
    # n_bar = sum n |c_n|^2 rephases half-way, T_rev / 2 with
    # T_rev = 4 pi hbar / |E''(n_bar)| (Gea-Banacloche, Am. J. Phys. 67, 776
    # (1999)); E'' is the second difference of the energies e_g x_n at the
    # state nearest n_bar.  Measured: n_bar = 27.19, T_rev = 160.9 periods,
    # amplitude peak in period 81 (criterion 09's count)
    state = project_packet(PacketSpec(x0=25.0, sigma=2.0), build_basis(64, units))
    weights = np.abs(state.coefficients) ** 2
    n_bar = float(np.arange(1, 65) @ weights / weights.sum())
    k = round(n_bar) - 1
    energies = state.basis.energies
    curvature = energies[k + 1] - 2.0 * energies[k] + energies[k - 1]
    period = 2.0 * BounceSpec(25.0, units.g).drop_time
    half_revival = 2.0 * math.pi * units.hbar / abs(curvature) / period

    ts = np.linspace(0.0, 100 * period, 20001)
    per_period = expectation_x_evolution(state, ts)[:20000].reshape(100, 200)
    amps = per_period.max(axis=1) - per_period.min(axis=1)
    i_min = int(amps.argmin())
    i_rev = i_min + int(amps[i_min:].argmax())
    assert abs(i_rev - half_revival) <= 1.0


TIME_ENTRY_POINTS = {
    "free_fall": lambda state, units, t: free_fall(BounceSpec(X0, units.g), t),
    "bounce_trajectory": lambda state, units, t: bounce_trajectory(BounceSpec(X0, units.g), t),
    "bounce_fourier": lambda state, units, t: bounce_fourier(BounceSpec(X0, units.g), t, 20),
    "evolve": lambda state, units, t: evolve(state, t),
    "expectation_x_evolution": lambda state, units, t: expectation_x_evolution(state, [0.0, t]),
    "variance_x_evolution": lambda state, units, t: variance_x_evolution(state, [0.0, t]),
    "expectation_x_series": lambda state, units, t: expectation_x_series(PacketSpec(X0, SIGMA), t, 20),
    "closed_form_linear": lambda state, units, t: closed_form_linear(matched_ic(units), units.m, t),
    "envelope": lambda state, units, t: envelope(X0, matched_ic(units), units.m, units.g, [0.0, t]),
}


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("entry", sorted(TIME_ENTRY_POINTS))
def test_bad_times_rejected(packet_state, units, entry, t):
    with pytest.raises(DomainError, match="finite and >= 0"):
        TIME_ENTRY_POINTS[entry](packet_state, units, t)
