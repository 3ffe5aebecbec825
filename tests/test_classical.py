"""Classical bounce: free fall, fold, Heaviside-sum oracle, Fourier series."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbouncer.classical import BounceSpec, bounce_fourier, bounce_trajectory, free_fall
from qbouncer.errors import DomainError
from qbouncer.quantum import PacketSpec, expectation_x_series
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

    @pytest.mark.parametrize("v0,g,t", [(0.0, 2.0, 1e200), (1e300, 1e300, 1e10)], ids=["overflow", "inf-minus-inf"])
    def test_overflowing_height_rejected(self, v0, g, t):
        # g t^2 (and v0 t) overflow: once a numpy warning and an inf or nan
        with pytest.raises(DomainError, match=re.escape(f"free fall overflows at t={t!r}")):
            free_fall(BounceSpec(x0=1.0, g=g, v0=v0), [0.0, t])


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

    def test_overflowing_amplitude_rejected(self):
        # 4 x0 overflows before the division by pi^2: once [inf, inf], silently
        with pytest.raises(DomainError, match="x0=5e\\+307 overflows the series amplitude"):
            bounce_fourier(BounceSpec(5e307, 10.0), [0.0, 1.0], 5)

    def test_overflowing_phase_rejected(self):
        # pi t/T overflows (T = 1e-150 here): once numpy overflow warnings and nan
        with pytest.raises(DomainError, match=re.escape("pi t/T overflows at T=1e-150, t=1e+300")):
            bounce_fourier(BounceSpec(1e-300, 2.0), [0.0, 1e300], 5)

    @given(st.floats(min_value=0.1, max_value=50.0), st.floats(min_value=0, max_value=40.0))
    @settings(max_examples=100)
    def test_series_tracks_fold(self, x0, t):
        spec = BounceSpec(x0=x0, g=9.81)
        err = abs(bounce_fourier(spec, t, 400) - bounce_trajectory(spec, t))
        assert err <= 2e-3 * x0


# any float at all, and the same in short lists (arrays)
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
ANY_TIMES = st.one_of(ANY_FLOAT, st.lists(ANY_FLOAT, min_size=1, max_size=6))
ANY_TERMS = st.integers(min_value=-2, max_value=400)


def _finite_or_refused(f, *args):
    try:
        out = f(*args)
    except DomainError:
        return
    assert np.isfinite(out).all(), (args, out)


class TestEntryPointsProperty:
    """free_fall, bounce_trajectory, bounce_fourier and expectation_x_series,
    on arbitrary inputs, return finite values or raise DomainError: never a
    NaN, a numpy warning (an error under this suite's filterwarnings) or
    another exception."""

    @given(x0=ANY_FLOAT, g=ANY_FLOAT, v0=ANY_FLOAT, t=ANY_TIMES)
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_free_fall(self, x0, g, v0, t):
        _finite_or_refused(lambda: free_fall(BounceSpec(x0, g, v0), t))

    @given(x0=ANY_FLOAT, g=ANY_FLOAT, v0=ANY_FLOAT, t=ANY_TIMES)
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_bounce_trajectory(self, x0, g, v0, t):
        _finite_or_refused(lambda: bounce_trajectory(BounceSpec(x0, g, v0), t))

    @given(x0=ANY_FLOAT, g=ANY_FLOAT, v0=ANY_FLOAT, t=ANY_TIMES, n_terms=ANY_TERMS)
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_bounce_fourier(self, x0, g, v0, t, n_terms):
        _finite_or_refused(lambda: bounce_fourier(BounceSpec(x0, g, v0), t, n_terms))

    @given(x0=ANY_FLOAT, sigma=ANY_FLOAT, t=ANY_TIMES, n_terms=ANY_TERMS)
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_expectation_x_series(self, x0, sigma, t, n_terms):
        _finite_or_refused(lambda: expectation_x_series(PacketSpec(x0, sigma), t, n_terms))
