"""Moment hierarchy: equations of motion, closed forms, saturation, envelope."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import moment_oracle
from qbouncer.classical import BounceSpec, bounce_trajectory
from qbouncer.errors import DomainError, NumericalError
from qbouncer.moments import (
    MomentState,
    PolynomialPotential,
    closed_form_linear,
    effective_hamiltonian,
    envelope,
    initial_state,
    integrate,
    moment_eom,
    moment_pairs,
    saturated_ic,
    uncertainty_product,
)
from qbouncer.scaling import natural_units, neutron_units


class TestPolynomialPotential:
    def test_value_and_derivatives(self):
        V = PolynomialPotential((1.0, -2.0, 0.5, 3.0))  # 1 - 2x + x^2/2 + 3x^3
        x = 1.7
        assert V.value(x) == pytest.approx(1 - 2 * x + 0.5 * x**2 + 3 * x**3, rel=1e-15)
        assert V.derivative(x, 1) == pytest.approx(-2 + x + 9 * x**2, rel=1e-15)
        assert V.derivative(x, 2) == pytest.approx(1 + 18 * x, rel=1e-15)
        assert V.derivative(x, 3) == 18.0
        assert V.derivative(x, 4) == 0.0
        assert V.derivative(x, 0) == V.value(x)

    def test_factories(self):
        g = PolynomialPotential.gravity(2.0, 9.81)
        assert g.coefficients == (0.0, 19.62) and g.degree == 1
        h = PolynomialPotential.harmonic(2.0, 3.0)
        assert h.derivative(0.0, 2) == 2.0 * 9.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            PolynomialPotential(())


class TestMomentState:
    def test_pair_ordering(self):
        assert moment_pairs(3) == [(0, 2), (1, 1), (2, 0), (0, 3), (1, 2), (2, 1), (3, 0)]
        with pytest.raises(DomainError):
            moment_pairs(1)

    def test_make_fills_and_validates(self):
        s = MomentState.make(1.0, 2.0, order=3, G={(0, 2): 0.5})
        assert s.moment(0, 2) == 0.5 and s.moment(3, 0) == 0.0
        assert list(s.G) == moment_pairs(3) and s.G[(0, 2)] == 0.5
        with pytest.raises(TypeError):
            s.G[(0, 2)] = 1.0
        with pytest.raises(DomainError):
            MomentState.make(0.0, 0.0, order=2, G={(0, 3): 1.0})

    def test_closure_convention(self):
        s = MomentState.make(0.0, 0.0, order=2, G={(1, 1): 0.3})
        assert s.moment(1, 0) == 0.0
        assert s.moment(0, 1) == 0.0
        assert s.moment(0, 4) == 0.0  # beyond truncation reads as zero
        with pytest.raises(DomainError):
            s.moment(-1, 2)


class TestEffectiveHamiltonian:
    def test_linear_is_three_terms(self):
        u = natural_units()
        V = PolynomialPotential.gravity(u.m, u.g)
        s = MomentState.make(3.0, 0.7, G={(2, 0): 0.25, (1, 1): 0.1, (0, 2): 1.0})
        want = s.p**2 / (2 * u.m) + u.m * u.g * s.x + s.moment(2, 0) / (2 * u.m)
        assert effective_hamiltonian(s, V, u.m) == want

    def test_zero_moments_reduce_to_classical(self):
        V = PolynomialPotential((0.0, 0.0, 1.0, 0.0, 0.25))
        s = MomentState.make(1.3, -0.4, order=4)
        assert effective_hamiltonian(s, V, 2.0) == pytest.approx(
            s.p**2 / 4 + V.value(s.x), rel=1e-15
        )

    def test_quadratic_correction_term(self):
        m, omega = 1.5, 2.0
        V = PolynomialPotential.harmonic(m, omega)
        s = MomentState.make(0.5, 0.0, G={(2, 0): 0.2, (0, 2): 0.3})
        want = s.p**2 / (2 * m) + V.value(s.x) + 0.2 / (2 * m) + 0.5 * m * omega**2 * 0.3
        assert effective_hamiltonian(s, V, m) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("alpha", [1.0, 0.4277, 3.3])
    def test_saturated_ground_shift(self, alpha):
        # exact saturation puts the correction at e_g/(4 alpha); the widely
        # quoted m*g*(x + l_g/alpha) form is 4x larger.  Pinned on purpose.
        u = natural_units()
        V = PolynomialPotential.gravity(u.m, u.g)
        s = initial_state(saturated_ic(alpha, u), x0=5.0)
        shift = effective_hamiltonian(s, V, u.m) - (s.p**2 / (2 * u.m) + V.value(s.x))
        assert shift == pytest.approx(u.e_g / (4.0 * alpha), rel=1e-12)
        quoted = u.m * u.g * u.l_g / alpha
        assert quoted / shift == pytest.approx(4.0, rel=1e-12)


class TestEquationsOfMotion:
    def test_linear_potential_decouples(self):
        u = natural_units()
        V = PolynomialPotential.gravity(u.m, u.g)
        s = MomentState.make(2.0, -0.3, G={(2, 0): 0.4, (1, 1): 0.1, (0, 2): 0.9})
        d = moment_eom(s, V, u.m)
        assert d.x == s.p / u.m
        assert d.p == -u.m * u.g
        assert d.moment(0, 2) == 2.0 * s.moment(1, 1) / u.m
        assert d.moment(1, 1) == s.moment(2, 0) / u.m
        assert d.moment(2, 0) == 0.0

    def test_harmonic_potential(self):
        m, omega = 0.7, 1.9
        V = PolynomialPotential.harmonic(m, omega)
        s = MomentState.make(0.4, 1.1, G={(2, 0): 0.6, (1, 1): -0.2, (0, 2): 0.5})
        d = moment_eom(s, V, m)
        k = m * omega**2
        assert d.moment(1, 1) == pytest.approx(s.moment(2, 0) / m - k * s.moment(0, 2), rel=1e-15)
        assert d.moment(2, 0) == pytest.approx(-2 * k * s.moment(1, 1), rel=1e-15)
        assert d.moment(0, 2) == pytest.approx(2 * s.moment(1, 1) / m, rel=1e-15)
        assert d.p == pytest.approx(-k * s.x, rel=1e-15)

    def test_quartic_classical_limit(self):
        V = PolynomialPotential((0.0, 0.0, 0.0, 0.0, 0.125))
        s = MomentState.make(1.2, 0.5, order=2)  # all moments zero
        d = moment_eom(s, V, 1.0)
        assert d.p == -V.derivative(1.2, 1)
        assert all(d.moment(a, b) == 0.0 for a, b in moment_pairs(2))

    def test_quartic_couples_moments_to_momentum(self):
        V = PolynomialPotential((0.0, 0.0, 0.0, 0.0, 0.125))
        s = MomentState.make(1.2, 0.0, G={(0, 2): 0.3})
        d = moment_eom(s, V, 1.0)
        # dp/dt = -V'(x) - V'''(x)/2 * G02
        assert d.p == pytest.approx(-V.derivative(1.2, 1) - 0.5 * V.derivative(1.2, 3) * 0.3, rel=1e-14)

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize(
        "coefficients",
        [(0.3, -1.2), (0.1, 0.4, 0.9), (0.0, -0.2, 0.5, 0.35), (0.2, 0.1, -0.3, 0.25, 0.125)],
        ids=["linear", "quadratic", "cubic", "quartic"],
    )
    def test_matches_dict_loop_oracle(self, order, coefficients):
        # random non-Gaussian states: odd moments and G^{0,n-1} for n >= 3 are
        # nonzero, so the quadratic closure term G^{0,n-1} G^{a-1,b} and the
        # index (a-1, b+n-1) both show; the harmonic and gravity tests above
        # cannot see them (G^{0,1} = 0 and V''' = 0 there).  Measured: equal.
        rng = np.random.default_rng(order)
        V = PolynomialPotential(coefficients)
        for _ in range(5):
            G = {key: rng.uniform(-1.0, 1.0) for key in moment_pairs(order)}
            s = MomentState.make(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), order, G)
            got = moment_oracle.as_vector(moment_eom(s, V, 0.7))
            want = moment_oracle.as_vector(moment_oracle.moment_eom(s, V, 0.7))
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


class TestClosedForm:
    def test_initial_values(self):
        g20, g11, g02 = closed_form_linear((0.3, 0.1, 0.8), m=2.0, t=0.0)
        assert (g20, g11, g02) == (0.3, 0.1, 0.8)

    def test_polynomial_time_dependence(self):
        c0, c1, c2, m = 0.3, 0.1, 0.8, 2.0
        t = np.array([0.0, 1.0, 2.5])
        g20, g11, g02 = closed_form_linear((c0, c1, c2), m, t)
        assert np.allclose(g20, c0, rtol=0, atol=0)
        assert np.allclose(g11, c0 / m * t + c1, rtol=1e-15)
        assert np.allclose(g02, c0 / m**2 * t**2 + 2 * c1 / m * t + c2, rtol=1e-15)

    @pytest.mark.parametrize("alpha", [1.0, 0.4277])
    def test_saturation_is_conserved(self, alpha):
        u = neutron_units()
        ic = saturated_ic(alpha, u)
        quarter = u.hbar**2 / 4.0
        for t in np.linspace(0.0, 0.2, 50):
            g20, g11, g02 = closed_form_linear(ic, u.m, float(t))
            assert g02 * g20 - g11**2 == pytest.approx(quarter, rel=1e-12)

    def test_alpha_one_neutron_width(self):
        # exact saturation gives G02(t) = l_g^2 + (g l_g / 2) t^2
        u = neutron_units()
        ic = saturated_ic(1.0, u)
        t = 0.013
        _, _, g02 = closed_form_linear(ic, u.m, t)
        assert g02 == pytest.approx(u.l_g**2 + 0.5 * u.g * u.l_g * t**2, rel=1e-12)


class TestSaturatedIC:
    def test_alpha_values(self):
        u = neutron_units()
        assert saturated_ic(1.0, u).c2 == pytest.approx(u.l_g**2, rel=1e-15)
        assert saturated_ic(0.4277, u).c2 == pytest.approx(0.4277 * u.l_g**2, rel=1e-15)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_product_saturates(self, alpha):
        u = natural_units()
        ic = saturated_ic(alpha, u)
        assert ic.c0 * ic.c2 == pytest.approx(u.hbar**2 / 4.0, rel=1e-15)
        assert ic.c1 == 0.0

    def test_prefactor_discrepancy_pinned(self):
        # hbar^2/(4 alpha l_g^2) equals 2^(2/3) * (hbar g m^2)^(2/3) / (4 alpha):
        # the exact saturation value carries a 2^(2/3) the popular closed form
        # drops.  The implementation is bound to exact saturation.
        for u in (natural_units(), neutron_units()):
            for alpha in (1.0, 0.4277):
                exact = u.hbar**2 / (4.0 * alpha * u.l_g**2)
                quoted = (u.hbar * u.g * u.m**2) ** (2.0 / 3.0) / (4.0 * alpha)
                assert exact == pytest.approx(2.0 ** (2.0 / 3.0) * quoted, rel=1e-12)
                assert saturated_ic(alpha, u).c0 == pytest.approx(exact, rel=1e-12)

    def test_invalid_alpha(self):
        with pytest.raises(DomainError):
            saturated_ic(0.0, natural_units())


class TestIntegrate:
    u = natural_units()

    def linear_setup(self, x0=1.0, alpha=1.0):
        ic = saturated_ic(alpha, self.u)
        V = PolynomialPotential.gravity(self.u.m, self.u.g)
        return ic, V, initial_state(ic, x0=x0)

    def test_matches_closed_form(self):
        ic, V, s0 = self.linear_setup()
        T = BounceSpec(1.0, self.u.g).drop_time
        traj = integrate(s0, V, self.u.m, 10 * T, T / 500, hbar=self.u.hbar)
        assert not traj.warnings
        g20, g11, g02 = closed_form_linear(ic, self.u.m, traj.times)
        got02 = np.array([s.moment(0, 2) for _, s in traj])
        got11 = np.array([s.moment(1, 1) for _, s in traj])
        got20 = np.array([s.moment(2, 0) for _, s in traj])
        assert np.abs(got02 / g02 - 1).max() < 1e-10
        assert np.abs(got20 / g20 - 1).max() < 1e-10
        assert np.abs(got11[1:] / g11[1:] - 1).max() < 1e-10

    def test_uncertainty_drift(self):
        ic, V, s0 = self.linear_setup()
        T = BounceSpec(1.0, self.u.g).drop_time
        traj = integrate(s0, V, self.u.m, 10 * 2 * T, T / 1000, hbar=self.u.hbar)
        ups = np.array([uncertainty_product(s) for _, s in traj])
        assert np.abs(ups / (self.u.hbar**2 / 4.0) - 1).max() < 1e-12
        assert 0.0 <= traj.worst_uncertainty_deficit <= 1e-12

    def test_momentum_dispersion_constant(self):
        ic, V, s0 = self.linear_setup()
        T = BounceSpec(1.0, self.u.g).drop_time
        traj = integrate(s0, V, self.u.m, 10 * 2 * T, T / 200)
        g20 = np.array([s.moment(2, 0) for _, s in traj])
        assert np.abs(g20 / ic.c0 - 1).max() < 1e-12

    def test_covariance_affine_in_time(self):
        _, V, s0 = self.linear_setup()
        traj = integrate(s0, V, self.u.m, 3.0, 0.01)
        g11 = np.array([s.moment(1, 1) for _, s in traj])
        slope = (g11[-1] - g11[0]) / (traj.times[-1] - traj.times[0])
        fit = g11[0] + slope * traj.times
        assert np.abs(g11 - fit).max() < 1e-10

    def test_coherent_state_is_stationary(self):
        m, omega = self.u.m, 1.3
        V = PolynomialPotential.harmonic(m, omega)
        hb = self.u.hbar
        s0 = MomentState.make(
            0.8, 0.0,
            G={(2, 0): hb * m * omega / 2, (0, 2): hb / (2 * m * omega), (1, 1): 0.0},
        )
        traj = integrate(s0, V, m, 3 * 2 * math.pi / omega, 1e-3, hbar=hb)
        for key, want in [((2, 0), hb * m * omega / 2), ((0, 2), hb / (2 * m * omega)), ((1, 1), 0.0)]:
            got = np.array([s.moment(*key) for _, s in traj])
            assert np.abs(got - want).max() < 1e-8

    def test_rk4_order_on_harmonic(self):
        # linear-potential moments are polynomial in t and integrated exactly,
        # so the fourth-order error is measured on a harmonic potential where
        # the moment flow is a rotation with a matrix-exponential oracle
        m, omega = 1.0, 1.0
        V = PolynomialPotential.harmonic(m, omega)
        s0 = MomentState.make(1.0, 0.0, G={(2, 0): 0.7, (1, 1): 0.1, (0, 2): 0.4})
        k = m * omega**2
        A = np.array([[0.0, -2 * k, 0.0], [1 / m, 0.0, -k], [0.0, 2 / m, 0.0]])  # (G20, G11, G02)
        t_end = 2.0
        exact = scipy.linalg.expm(A * t_end) @ np.array([0.7, 0.1, 0.4])
        errs = []
        for dt in (0.02, 0.01):
            final = integrate(s0, V, m, t_end, dt).states[-1]
            got = np.array([final.moment(2, 0), final.moment(1, 1), final.moment(0, 2)])
            errs.append(np.abs(got - exact).max())
        ratio = errs[0] / errs[1]
        assert 10.0 < ratio < 22.0

    @pytest.mark.parametrize("potential", ["linear", "harmonic"])
    def test_decoupling_from_moments(self, potential):
        if potential == "linear":
            V = PolynomialPotential.gravity(self.u.m, self.u.g)
        else:
            V = PolynomialPotential.harmonic(self.u.m, 2.0)
        ic = saturated_ic(1.0, self.u)
        with_moments = integrate(initial_state(ic, x0=2.0), V, self.u.m, 4.0, 0.005)
        without = integrate(MomentState.make(2.0, 0.0), V, self.u.m, 4.0, 0.005)
        x_a = np.array([s.x for _, s in with_moments])
        x_b = np.array([s.x for _, s in without])
        p_a = np.array([s.p for _, s in with_moments])
        p_b = np.array([s.p for _, s in without])
        assert np.abs(x_a - x_b).max() <= 1e-12
        assert np.abs(p_a - p_b).max() <= 1e-12

    def test_truncation_order_does_not_leak(self):
        # for a linear potential the hierarchy closes at second order
        V = PolynomialPotential.gravity(self.u.m, self.u.g)
        ic = saturated_ic(1.0, self.u)
        results = []
        for order in (2, 3, 4):
            traj = integrate(initial_state(ic, x0=1.0, order=order), V, self.u.m, 2.0, 0.01)
            results.append(
                np.array([[s.moment(2, 0), s.moment(1, 1), s.moment(0, 2)] for _, s in traj])
            )
        assert np.abs(results[0] - results[1]).max() <= 1e-12
        assert np.abs(results[0] - results[2]).max() <= 1e-12

    @pytest.mark.parametrize("potential", ["linear", "harmonic"])
    def test_energy_conserved(self, potential):
        if potential == "linear":
            V = PolynomialPotential.gravity(self.u.m, self.u.g)
        else:
            V = PolynomialPotential.harmonic(self.u.m, 1.7)
        s0 = initial_state(saturated_ic(1.0, self.u), x0=2.0)
        traj = integrate(s0, V, self.u.m, 5.0, 0.002)
        h = np.array([effective_hamiltonian(s, V, self.u.m) for _, s in traj])
        assert np.abs(h / h[0] - 1).max() < 1e-10

    def test_warning_when_product_below_reference(self):
        _, V, s0 = self.linear_setup()
        # reference hbar chosen so hbar^2/4 exceeds the actual product
        traj = integrate(s0, V, self.u.m, 0.1, 0.01, hbar=2.0)
        assert traj.warnings and "uncertainty" in traj.warnings[0]
        assert traj.worst_uncertainty_deficit > 1e-6
        assert f"{traj.worst_uncertainty_deficit:.2e}" in traj.warnings[0]

    def test_invalid_steps(self):
        _, V, s0 = self.linear_setup()
        with pytest.raises(DomainError):
            integrate(s0, V, self.u.m, 1.0, 0.0)
        with pytest.raises(DomainError):
            integrate(s0, V, self.u.m, 0.0, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["t_end", "dt"])
    def test_non_finite_steps_rejected(self, name, bad):
        _, V, s0 = self.linear_setup()
        args = {"t_end": 1.0, "dt": 0.1, name: bad}
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            integrate(s0, V, self.u.m, args["t_end"], args["dt"])

    @pytest.mark.parametrize("t_end,dt", [(1e12, 1e-3), (1e300, 1e-10)], ids=["too-many", "overflow"])
    def test_step_count_capped(self, t_end, dt):
        # both allocated (7.11 PiB: MemoryError) or overflowed (OverflowError)
        # before the cap; the refusal comes before any allocation
        _, V, s0 = self.linear_setup()
        with pytest.raises(DomainError, match=r"^t_end/dt = .* exceeds"):
            integrate(s0, V, self.u.m, t_end, dt)

    def test_non_finite_state_raises(self):
        # V = x^2/2 + 0.1 x^4 at order 4 from Gaussian moments blows up; the
        # first non-finite state is the one after step 553 (t = 5.53)
        V = PolynomialPotential((0.0, 0.0, 0.5, 0.0, 0.1))
        G = {(2, 0): 0.25, (0, 2): 1.0, (4, 0): 0.1875, (0, 4): 3.0, (2, 2): 0.25}
        s0 = MomentState.make(x=1.0, p=0.0, order=4, G=G)
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match=r"step 553 \(t = 5\.53\)"):
            integrate(s0, V, 1.0, 10.0, 0.01)

    @pytest.mark.parametrize("order", [4, 6])
    def test_quartic_run_matches_oracle_rk4(self, order):
        # 200 steps of V = x^2/2 + 0.05 x^3 + 0.1 x^4 from Gaussian moments
        # against plain RK4 on the dict-loop equations; the compensated and
        # plain sums part by a few eps per step (measured 3e-15 at order 4,
        # 9e-15 at order 6, relative to each moment's largest value)
        V = PolynomialPotential((0.0, 0.0, 0.5, 0.05, 0.1))

        def gaussian(a, b, spp=0.25, sxx=1.0):
            if a % 2 or b % 2:
                return 0.0
            return math.prod(range(a - 1, 0, -2)) * spp ** (a // 2) * math.prod(range(b - 1, 0, -2)) * sxx ** (b // 2)

        s0 = MomentState.make(1.0, 0.0, order, {key: gaussian(*key) for key in moment_pairs(order)})
        traj = integrate(s0, V, 1.0, 2.0, 0.01)
        want = moment_oracle.rk4(s0, V, 1.0, 0.01, 200)
        got = np.array([moment_oracle.as_vector(s) for s in traj.states])
        assert got.shape == want.shape
        assert (np.abs(got - want) / np.abs(want).max(axis=0)).max() < 1e-13

    def test_trajectory_iterates_pairs(self):
        _, V, s0 = self.linear_setup()
        traj = integrate(s0, V, self.u.m, 0.1, 0.05)
        pairs = list(traj)
        assert len(pairs) == len(traj) == 3
        assert pairs[0][0] == 0.0 and pairs[0][1] is s0
        # states are built from the trajectory array on each read
        assert traj.states[0] is s0 and traj.states[-1] == pairs[-1][1]
        assert traj.states[1:] == [s for _, s in pairs[1:]]


class TestUncertaintyProduct:
    def test_saturated_initial(self):
        u = natural_units()
        s = initial_state(saturated_ic(1.0, u), x0=1.0)
        assert uncertainty_product(s) == u.hbar**2 / 4.0

    @given(
        st.floats(min_value=0.5, max_value=20.0),
        st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=100)
    def test_bound_holds_along_linear_flow(self, alpha, t):
        # window kept where rounding of the grown moments stays below the
        # 1e-12 absolute slack (G02*G20 reaches ~1e4 * hbar^2/4 at the edge)
        u = natural_units()
        ic = saturated_ic(alpha, u)
        g20, g11, g02 = closed_form_linear(ic, u.m, t)
        assert g02 * g20 - g11**2 >= u.hbar**2 / 4.0 - 1e-12


class TestEnvelope:
    u = natural_units()

    def test_width_at_release(self):
        ic = saturated_ic(1.0, self.u)
        lo, hi = envelope(2.0, ic, self.u.m, self.u.g, 0.0)
        assert hi - 2.0 == pytest.approx(self.u.l_g, rel=1e-14)
        assert 2.0 - lo == pytest.approx(self.u.l_g, rel=1e-14)

    def test_width_grows_monotonically(self):
        ic = saturated_ic(0.4277, self.u)
        t = np.linspace(0.0, 10.0, 400)
        lo, hi = envelope(2.0, ic, self.u.m, self.u.g, t)
        width = hi - lo
        assert (np.diff(width) > 0).all()

    def test_band_tracks_classical_bounce(self):
        ic = saturated_ic(1.0, self.u)
        t = np.linspace(0.0, 8.0, 200)
        lo, hi = envelope(1.0, ic, self.u.m, self.u.g, t)
        x_cl = bounce_trajectory(BounceSpec(1.0, self.u.g), t)
        assert ((lo < x_cl) & (x_cl < hi)).all()

    def test_reset_mode_is_periodic(self):
        ic = saturated_ic(1.0, self.u)
        t = np.arange(0.0, 2.0, 0.125)  # T = 1 for x0 = 1, g = 2
        lo1, hi1 = envelope(1.0, ic, self.u.m, self.u.g, t, reset_each_period=True)
        lo2, hi2 = envelope(1.0, ic, self.u.m, self.u.g, t + 2.0, reset_each_period=True)
        assert np.array_equal(hi1 - lo1, hi2 - lo2)
        # continuous mode keeps growing instead
        _, hi3 = envelope(1.0, ic, self.u.m, self.u.g, t + 2.0)
        assert ((hi3 - lo2) > 0).all()
