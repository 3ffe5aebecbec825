"""Cross-validation between the three descriptions.

A Gaussian packet is exactly a saturated moment state (c2 = sigma^2/4,
c0 = hbar^2/sigma^2, c1 = 0), so before the mirror interferes the spectral
solver and the linear-potential moment closed form must agree on Var(x)(t)
through entirely different code paths.

Every entry point that takes times shares one check, so the rejection of
negative and non-finite times is tested here across all three; so is the
refusal of a non-integer where an integer argument is due.
"""

import math

import numpy as np
import pytest
from bounce_ensemble import ensemble_width

from qbouncer.classical import BounceSpec, bounce_fourier, bounce_trajectory, free_fall
from qbouncer.errors import DomainError
from qbouncer.moments import (
    MomentState,
    PolynomialPotential,
    SaturatedIC,
    closed_form_linear,
    envelope,
    initial_state,
    moment_pairs,
)
from qbouncer.quantum import (
    PacketSpec,
    build_basis,
    evolve,
    expectation_x_evolution,
    expectation_x_series,
    project_packet,
    variance_x_evolution,
)
from qbouncer.specfun import airy_zeros

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


@pytest.fixture(scope="module")
def revival_state(units):
    """Criterion 09's packet: N = 64, x0 = 25, sigma = 2 (bounce period 10)."""
    return project_packet(PacketSpec(x0=25.0, sigma=2.0), build_basis(64, units))


def test_width_at_apexes_past_the_first_bounce(revival_state, units):
    # sqrt(Var(x)) at the apexes t = 10 k, k = 0..5.  Each contact undoes the
    # free-flight shear of the fall; what is left comes from the energy
    # dependence of the period, second order in the phase-space offset, so no
    # second-moment map reproduces it.  The continuous moment clock overstates
    # the width about 10-fold per period, the per-period reset misses its
    # growth, and the classical ensemble through the exact fold follows the
    # spectral width (and its mean the spectral <x> to 1e-3)
    x0, sigma = 25.0, 2.0
    ts = 10.0 * np.arange(6)
    spectral = np.sqrt(variance_x_evolution(revival_state, ts))
    np.testing.assert_allclose(spectral, [1.000, 1.041, 1.178, 1.436, 1.828, 2.340], atol=5e-4)

    c2 = sigma**2 / 4.0
    ic = SaturatedIC(alpha=c2 / units.l_g**2, c0=units.hbar**2 / sigma**2, c1=0.0, c2=c2)
    lo, hi = envelope(x0, ic, units.m, units.g, ts)
    # sqrt(c2 + c0 t^2 / m^2) = sqrt(1 + t^2): 1.000, 10.05, 20.02, 30.02, 40.01, 50.01
    np.testing.assert_allclose((hi - lo) / 2, np.sqrt(1.0 + ts**2), rtol=1e-12)
    lo, hi = envelope(x0, ic, units.m, units.g, ts, reset_each_period=True)
    np.testing.assert_allclose((hi - lo) / 2, 1.0, atol=5e-4)

    mean, width = ensemble_width(x0, sigma, units.m, units.g, units.hbar, ts)
    np.testing.assert_allclose(width, [1.000, 1.022, 1.112, 1.319, 1.679, 2.184], atol=5e-4)
    assert np.abs(mean / expectation_x_evolution(revival_state, ts) - 1).max() < 1e-3
    # at x0 = 10, sigma = 1.5 the rule reaches below the mirror, where a node
    # has no bounce (NaN) and is dropped
    assert np.isfinite(ensemble_width(X0, SIGMA, units.m, units.g, units.hbar, ts)[1]).all()


def test_half_revival_at_half_the_revival_time(revival_state, units):
    # criterion 09's packet (N = 64, x0 = 25, sigma = 2): its <x> amplitude
    # recovers where the quadratic dephasing of the spectrum around
    # n_bar = sum n |c_n|^2 rephases half-way, T_rev / 2 with
    # T_rev = 4 pi hbar / |E''(n_bar)| (Gea-Banacloche, Am. J. Phys. 67, 776
    # (1999)); E'' is the second difference of the energies e_g x_n at the
    # state nearest n_bar.  Measured: n_bar = 27.19, T_rev = 160.9 periods,
    # amplitude peak in period 81 (criterion 09's count)
    state = revival_state
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


# each integer argument and the name its refusal gives it, as calls on
# (basis, units, n)
INTEGER_ENTRY_POINTS = {
    "moment_pairs": ("moment truncation order", lambda b, u, n: moment_pairs(n)),
    "MomentState.make": ("moment truncation order", lambda b, u, n: MomentState.make(1.0, 0.0, order=n)),
    "initial_state": ("moment truncation order", lambda b, u, n: initial_state(matched_ic(u), 1.0, order=n)),
    "MomentState.moment(n, 0)": ("moment index", lambda b, u, n: MomentState.make(1.0, 0.0).moment(n, 0)),
    "MomentState.moment(0, n)": ("moment index", lambda b, u, n: MomentState.make(1.0, 0.0).moment(0, n)),
    "PolynomialPotential.derivative": ("derivative order",
                                       lambda b, u, n: PolynomialPotential((1.0, 2.0)).derivative(1.0, n)),
    "bounce_fourier": ("n_terms", lambda b, u, n: bounce_fourier(BounceSpec(X0, u.g), [0.0, 1.0], n)),
    "expectation_x_series": ("n_terms", lambda b, u, n: expectation_x_series(PacketSpec(X0, SIGMA), 1.0, n)),
    "Eigenbasis.eigenfunction": ("eigenfunction index", lambda b, u, n: b.eigenfunction(n, [1.0, 2.0])),
    "build_basis": ("n_max", lambda b, u, n: build_basis(n, u)),
    "airy_zeros": ("number of zeros", lambda b, u, n: airy_zeros(n)),
}


@pytest.mark.parametrize("n", [2.0, 2.5, math.nan, "2"])
@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRY_POINTS))
def test_non_integer_arguments_rejected(basis26, units, entry, n):
    # refused by name before any range check; an np.int64 is an integer
    what, call = INTEGER_ENTRY_POINTS[entry]
    with pytest.raises(DomainError, match=f"^{what} must be an integer, got {n!r}$"):
        call(basis26, units, n)
    call(basis26, units, np.int64(2))
