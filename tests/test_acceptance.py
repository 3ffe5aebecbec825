"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 06 holds the sup-norm deviation of the pinned 200-term
Fourier series to the exact truncation sup at the contact kink,
(4 x0/pi^2) * sum_{n>200} n^-2, taken from `series_tail`.
"""

import math
import time

import numpy as np
import pytest

from qbouncer.classical import BounceSpec, bounce_fourier, bounce_trajectory
from qbouncer.cli import main
from qbouncer.moments import (
    MomentState,
    PolynomialPotential,
    closed_form_linear,
    initial_state,
    integrate,
    saturated_ic,
    uncertainty_product,
)
from qbouncer.quantum import (
    PacketSpec,
    build_basis,
    expectation_x_evolution,
    expectation_x_series,
    project_packet,
)
from qbouncer.scaling import EV_IN_JOULE, natural_units, neutron_units
from qbouncer.specfun import airy_zero, airy_zero_asymptotic
from quadrature_oracle import overlap_matrix
from series_tail import truncation_sup


def report(num, name, ok, elapsed, limit, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {name}: {status} ({elapsed:.2f}s / limit {limit:.0f}s) {detail}"
    print(line)
    assert ok, line
    assert elapsed < limit, line


@pytest.fixture(scope="module")
def revival_setup():
    """64-state basis and the x0 = 25 l_g, sigma = 2 l_g packet (natural units)."""
    t0 = time.perf_counter()
    basis = build_basis(64, natural_units())
    state = project_packet(PacketSpec(x0=25.0, sigma=2.0), basis)
    return state, time.perf_counter() - t0


def test_criterion_01_first_eigenvalue():
    t0 = time.perf_counter()
    x1 = airy_zero(1)
    seed = airy_zero_asymptotic(1)
    gap_pct = 100.0 * (x1 - seed) / x1
    ok = (
        abs(x1 - 2.33811) <= 1e-5
        and abs(seed - 2.32025) <= 1e-5
        and abs(gap_pct - 0.76372) <= 1e-3
    )
    report(1, "first eigenvalue", ok, time.perf_counter() - t0, 1.0,
           f"x1={x1:.7f} seed={seed:.7f} gap={gap_pct:.5f}%")


def test_criterion_02_neutron_scales():
    t0 = time.perf_counter()
    u = neutron_units()
    l_um = u.l_g * 1e6
    e_pev = u.e_g / EV_IN_JOULE * 1e12
    ok = 5.84 <= l_um <= 5.90 and 0.599 <= e_pev <= 0.605
    report(2, "neutron scales", ok, time.perf_counter() - t0, 1.0,
           f"l_g={l_um:.4f}um e_g={e_pev:.5f}peV")


def test_criterion_03_uncertainty_conservation():
    t0 = time.perf_counter()
    u = natural_units()
    ic = saturated_ic(1.0, u)
    quarter = u.hbar**2 / 4.0
    x0 = u.l_g
    T = BounceSpec(x0, u.g).drop_time
    span = 10 * 2 * T
    # closed form at 1000 times
    ts = np.linspace(0.0, span, 1000)
    g20, g11, g02 = closed_form_linear(ic, u.m, ts)
    closed_drift = np.abs((g02 * g20 - g11**2) / quarter - 1).max()
    # integrator over the same window
    V = PolynomialPotential.gravity(u.m, u.g)
    traj = integrate(initial_state(ic, x0=x0), V, u.m, span, T / 1000, hbar=u.hbar)
    num_drift = max(abs(uncertainty_product(s) / quarter - 1) for _, s in traj)
    ok = closed_drift <= 1e-12 and num_drift <= 1e-12
    report(3, "uncertainty conservation", ok, time.perf_counter() - t0, 5.0,
           f"closed={closed_drift:.2e} integrated={num_drift:.2e}")


def test_criterion_04_oracle_equivalence():
    t0 = time.perf_counter()
    u = natural_units()
    ic = saturated_ic(1.0, u)
    V = PolynomialPotential.gravity(u.m, u.g)
    T = BounceSpec(u.l_g, u.g).drop_time
    traj = integrate(initial_state(ic, x0=u.l_g), V, u.m, 10 * 2 * T, 2 * T / 100, hbar=u.hbar)
    times = traj.times
    assert len(times) >= 1000
    g20, g11, g02 = closed_form_linear(ic, u.m, times)
    got = np.array([[s.moment(2, 0), s.moment(1, 1), s.moment(0, 2)] for _, s in traj])
    worst = max(
        np.abs(got[:, 0] / g20 - 1).max(),
        np.abs(got[1:, 1] / g11[1:] - 1).max(),
        np.abs(got[:, 2] / g02 - 1).max(),
    )
    ok = worst <= 1e-10
    report(4, "moment integrator vs closed form", ok, time.perf_counter() - t0, 5.0,
           f"worst rel err={worst:.2e} at {len(times)} samples")


def test_criterion_05_decoupling():
    t0 = time.perf_counter()
    u = natural_units()
    worst = 0.0
    for V in (PolynomialPotential.gravity(u.m, u.g), PolynomialPotential.harmonic(u.m, 2.0)):
        with_m = integrate(initial_state(saturated_ic(1.0, u), x0=2.0), V, u.m, 5.0, 0.005)
        without = integrate(MomentState.make(2.0, 0.0), V, u.m, 5.0, 0.005)
        dx = max(abs(a.x - b.x) for (_, a), (_, b) in zip(with_m, without))
        dp = max(abs(a.p - b.p) for (_, a), (_, b) in zip(with_m, without))
        worst = max(worst, dx, dp)
    ok = worst <= 1e-12
    report(5, "classical variables decouple", ok, time.perf_counter() - t0, 5.0,
           f"max |delta(x,p)|={worst:.2e}")


def test_criterion_06_fourier_convergence():
    t0 = time.perf_counter()
    spec = BounceSpec(x0=1.0, g=2.0)
    period = 2 * spec.drop_time
    # 4000 intervals over one period: t = T is a grid point, the mirror-contact
    # kink, where the truncation tail (4/pi^2) sum_{n>200} n^-2 adds
    # coherently to its sup.  Matching that sup from both sides fails for a
    # series that converges worse than the truncation allows, for the wrong
    # number of terms, and for a grid that misses the kink.
    ts = np.linspace(0.0, period, 4001)
    dev = np.abs(bounce_fourier(spec, ts, 200) - bounce_trajectory(spec, ts)).max()
    sup = truncation_sup(spec.x0, 200)
    gap = abs(dev / sup - 1)
    samples = np.arange(1024) * (period / 1024)
    avg = bounce_fourier(spec, samples, 200).mean()
    avg_ok = abs(avg / (2.0 / 3.0 * spec.x0) - 1) <= 1e-6
    ok = gap <= 1e-9 and avg_ok
    report(
        6, "classical Fourier convergence", ok, time.perf_counter() - t0, 1.0,
        f"sup dev={dev:.10e} S_200={sup:.10e} |dev/S_200-1|={gap:.1e} "
        f"(bound 1e-9) avg={avg:.12f} ok={avg_ok}",
    )


def test_criterion_07_semiclassical_series_limit():
    t0 = time.perf_counter()
    x0 = 10.0
    worst = 0.0
    for exponent, n_terms in ((1e-4, 20), (1e-6, 200)):
        sigma = math.sqrt(math.pi**2 * x0 / (2.0 * exponent))
        packet = PacketSpec(x0=x0, sigma=sigma)
        ts = np.linspace(0.0, 4.0 * math.sqrt(x0), 4001)
        dev = np.abs(
            expectation_x_series(packet, ts, n_terms)
            - bounce_fourier(BounceSpec(x0=packet.x0, g=2.0), ts, n_terms)
        ).max()
        worst = max(worst, dev)
    ok = worst <= 1e-3 * x0
    report(7, "semiclassical limit of the series", ok, time.perf_counter() - t0, 1.0,
           f"max dev={worst:.2e} (bound {1e-3 * x0:.0e})")


def test_criterion_08_spectral_sanity(revival_setup):
    state, build_s = revival_setup
    t0 = time.perf_counter()
    u = natural_units()
    basis10 = build_basis(10, u)
    ortho_err = np.abs(overlap_matrix(basis10) - np.eye(10)).max()
    mean_err = np.abs(
        basis10.x_matrix.diagonal() / (2.0 / 3.0 * basis10.zeros * u.l_g) - 1
    ).max()
    recovered = 1.0 - state.truncation_loss
    ok = ortho_err <= 1e-8 and mean_err <= 1e-6 and recovered >= 0.999
    report(8, "spectral solver sanity", ok, time.perf_counter() - t0 + build_s, 60.0,
           f"ortho={ortho_err:.2e} eigen-mean={mean_err:.2e} norm={recovered:.6f}")


def test_criterion_09_collapse_and_revival(revival_setup):
    state, build_s = revival_setup
    t0 = time.perf_counter()
    period = 2 * math.sqrt(25.0)  # classical bounce period for x0 = 25 l_g
    ts = np.linspace(0.0, 100 * period, 20001)
    xs = expectation_x_evolution(state, ts)
    per_period = xs[: 20000].reshape(100, 200)
    amps = per_period.max(axis=1) - per_period.min(axis=1)
    amp0 = amps[0]
    i_min = int(amps.argmin())
    collapsed = amps[i_min] < 0.2 * amp0
    revived = amps[i_min:].max() > 0.5 * amp0
    i_rev = i_min + int(amps[i_min:].argmax())
    ok = collapsed and revived and i_min < i_rev
    report(9, "collapse and revival of <x>", ok, time.perf_counter() - t0 + build_s, 120.0,
           f"amp floor={amps[i_min] / amp0:.3f} at period {i_min}, "
           f"recovery={amps[i_rev] / amp0:.3f} at period {i_rev}")


def test_criterion_10_saturation_prefactor_regression():
    t0 = time.perf_counter()
    worst = 0.0
    for u in (natural_units(), neutron_units()):
        for alpha in (1.0, 0.4277):
            exact = u.hbar**2 / (4.0 * alpha * u.l_g**2)
            quoted = (u.hbar * u.g * u.m**2) ** (2.0 / 3.0) / (4.0 * alpha)
            worst = max(worst, abs(exact / (2.0 ** (2.0 / 3.0) * quoted) - 1))
            worst = max(worst, abs(saturated_ic(alpha, u).c0 / exact - 1))
    ok = worst <= 1e-12
    report(10, "exact-saturation prefactor pinned", ok, time.perf_counter() - t0, 1.0,
           f"worst rel dev={worst:.2e} (exact c0 = 2^(2/3) * quoted closed form)")


def test_criterion_11_envelope_table(tmp_path):
    t0 = time.perf_counter()
    u = natural_units()
    ok = True
    details = []
    for alpha in (1.0, 0.4277):
        out = tmp_path / f"compare_{alpha}.csv"
        rc = main([
            "compare", "--x0", "10", "--nmax", "0", "--alpha", str(alpha),
            "--tend", "12", "--dt", "0.05", "--out", str(out),
        ])
        ok = ok and rc == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        i_up = header.index("env_upper")
        i_lo = header.index("env_lower")
        i_cl = header.index("x_classical")
        rows = [line.split(",") for line in lines[1:]]
        half0 = float(rows[0][i_up]) - float(rows[0][i_cl])
        widths = np.array([float(r[i_up]) - float(r[i_lo]) for r in rows])
        ok = ok and abs(half0 - math.sqrt(alpha) * u.l_g) <= 1e-12
        ok = ok and bool((np.diff(widths) > 0).all())
        details.append(f"alpha={alpha}: width0/2={half0:.6f}")
    report(11, "envelope table for overlay", ok, time.perf_counter() - t0, 5.0,
           "; ".join(details))
