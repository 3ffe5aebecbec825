"""Classical bounce: free fall, fold, Heaviside-sum oracle, Fourier series."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbouncer.classical import BounceSpec, bounce_fourier, bounce_trajectory, free_fall
from qbouncer.errors import DomainError
from series_tail import truncation_sup


def heaviside_sum(x0, g, t):
    """Bounce train as a free-fall parabola plus one kick per mirror contact."""
    T = math.sqrt(2 * x0 / g)
    x = x0 - 0.5 * g * t * t
    n = 1
    while (2 * n - 1) * T < t:
        x += 2 * g * T * (t - (2 * n - 1) * T)
        n += 1
    return x


class TestFreeFall:
    def test_initial_condition(self):
        assert free_fall(BounceSpec(x0=1.0, g=2.0), 0.0) == 1.0

    def test_reaches_mirror_at_drop_time(self):
        spec = BounceSpec(x0=1.0, g=2.0)
        assert spec.drop_time == 1.0
        assert free_fall(spec, 1.0) == 0.0

    def test_thrown_up_returns(self):
        assert free_fall(BounceSpec(x0=0.0, g=2.0, v0=3.0), 3.0) == 0.0

    def test_energy_conserved(self):
        spec = BounceSpec(x0=7.0, g=9.81, v0=-1.3)
        ts = np.linspace(0, spec.drop_time * 0.9, 50)
        v = spec.v0 - spec.g * ts
        energy = 0.5 * v**2 + spec.g * free_fall(spec, ts)
        assert np.abs(energy / energy[0] - 1).max() < 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            free_fall(BounceSpec(x0=1.0, g=2.0), -0.1)


@pytest.mark.parametrize("x0,g", [(1.0, 1e-320), (1.7e308, 2.0)])
def test_spec_with_infinite_drop_time_rejected(x0, g):
    # 2 x0 / g overflows: the fold would divide by an infinite period
    with pytest.raises(DomainError, match="drop time"):
        BounceSpec(x0=x0, g=g)


class TestBounceTrajectory:
    spec = BounceSpec(x0=1.0, g=2.0)  # T = 1

    def test_apex_after_full_period(self):
        assert bounce_trajectory(self.spec, 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_contact_at_drop_time(self):
        assert bounce_trajectory(self.spec, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert bounce_trajectory(self.spec, 3.0) == pytest.approx(0.0, abs=1e-15)

    def test_half_drop(self):
        assert bounce_trajectory(self.spec, 0.5) == pytest.approx(0.75, abs=1e-15)

    def test_matches_heaviside_sum(self):
        rng = np.random.default_rng(7)
        for x0, g in [(1.0, 2.0), (3.7, 9.81), (0.4, 1.3)]:
            spec = BounceSpec(x0=x0, g=g)
            for t in rng.uniform(0, 12 * spec.drop_time, 200):
                assert bounce_trajectory(spec, t) == pytest.approx(
                    heaviside_sum(x0, g, t), abs=1e-9 * x0
                )

    def test_exactly_periodic(self):
        # dyadic times and T = 1 make t + 2T exact, so folding is bit-stable
        ts = np.arange(0, 2, 0.125)
        assert (bounce_trajectory(self.spec, ts + 2.0) == bounce_trajectory(self.spec, ts)).all()
        assert (bounce_trajectory(self.spec, ts + 2000.0) == bounce_trajectory(self.spec, ts)).all()

    def test_nonzero_v0_unsupported(self):
        with pytest.raises(DomainError):
            bounce_trajectory(BounceSpec(x0=1.0, g=2.0, v0=0.5), 0.0)

    @given(st.floats(min_value=0, max_value=1e6))
    @settings(max_examples=200)
    def test_stays_in_band(self, t):
        x = bounce_trajectory(self.spec, t)
        assert 0.0 <= x <= self.spec.x0 + 1e-12


class TestBounceFourier:
    spec = BounceSpec(x0=1.0, g=2.0)

    def test_apex_value(self):
        assert bounce_fourier(self.spec, 0.0, 200) == pytest.approx(1.0, abs=2e-3)

    def test_zero_height(self):
        assert bounce_fourier(BounceSpec(x0=0.0, g=2.0), 0.37, 50) == 0.0

    def test_time_average_is_two_thirds(self):
        # sampling a full period at 1024 points kills every cosine exactly
        ts = np.arange(1024) * (2.0 / 1024)
        avg = bounce_fourier(self.spec, ts, 200).mean()
        assert avg == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_convergence_is_monotone_inverse_n(self):
        ts = np.linspace(0, 2.0, 4001)
        exact = bounce_trajectory(self.spec, ts)
        devs = []
        for n in (10, 20, 40, 80, 160):
            devs.append(np.abs(bounce_fourier(self.spec, ts, n) - exact).max())
        assert all(a > b for a, b in zip(devs, devs[1:]))
        measured_c = max(d * n for d, n in zip(devs, (10, 20, 40, 80, 160)))
        assert measured_c < 0.45  # deviation <= C / n_terms with C ~ 4/pi^2

    def test_truncation_constant_at_200_terms(self):
        # the sup sits at the contact kink where the tail adds coherently:
        # (4/pi^2) * sum_{n>200} n^-2 = 2.0214e-3 per unit height
        ts = np.linspace(0, 2.0, 4001)  # includes t = T
        dev = np.abs(bounce_fourier(self.spec, ts, 200) - bounce_trajectory(self.spec, ts)).max()
        assert dev == pytest.approx(truncation_sup(self.spec.x0, 200), abs=2e-6)

    def test_invalid_args(self):
        with pytest.raises(DomainError):
            bounce_fourier(self.spec, 0.0, 0)
        with pytest.raises(DomainError):
            bounce_fourier(BounceSpec(x0=1.0, g=2.0, v0=1.0), 0.0, 5)

    @given(st.floats(min_value=0.1, max_value=50.0), st.floats(min_value=0, max_value=40.0))
    @settings(max_examples=100)
    def test_series_tracks_fold(self, x0, t):
        spec = BounceSpec(x0=x0, g=9.81)
        err = abs(bounce_fourier(spec, t, 400) - bounce_trajectory(spec, t))
        assert err <= 2e-3 * x0
