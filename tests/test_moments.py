"""Moment hierarchy: equations of motion, closed forms, saturation, envelope."""

import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moment_oracle
import qbouncer.moments as moments
from qbouncer.classical import BounceSpec, bounce_trajectory
from qbouncer.errors import DomainError, NumericalError
from qbouncer.moments import (
    MomentState,
    PolynomialPotential,
    SaturatedIC,
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
from qbouncer.scaling import make_units, natural_units, neutron_units

EPS = np.finfo(float).eps


def _gaussian_moments(order, spp=0.25, sxx=1.0):
    """Central moments up to `order` of an uncorrelated Gaussian with
    momentum variance spp and position variance sxx (odd moments 0)."""

    def gaussian(a, b):
        if a % 2 or b % 2:
            return 0.0
        return math.prod(range(a - 1, 0, -2)) * spp ** (a // 2) * math.prod(range(b - 1, 0, -2)) * sxx ** (b // 2)

    return {key: gaussian(*key) for key in moment_pairs(order)}


def _exact_flow(s0, V, m, times):
    """Rows of the exact flow under V of degree <= 2 at the given times, from
    the 50-digit closed forms: free fall for degree <= 1, the rotation about
    the minimum for V = c0 + c1 x + c2 x^2."""
    if V.degree == 2:
        return np.array([moment_oracle.harmonic(s0, m, 2.0 * V.coefficients[2], t, V.coefficients[1])
                         for t in times])
    force = V.coefficients[1] if V.degree == 1 else 0.0
    return np.array([moment_oracle.free_fall(s0, m, force, t) for t in times])


def _count_moment_eom_calls(monkeypatch):
    # integrate reads moment_eom as a module global; the benchmark tracer
    # counts the kernel by patching that name
    calls = []
    kernel = moments.moment_eom

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(moments, "moment_eom", counting)
    return calls


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

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("coefficients", [(0.3, -1.2), (0.1, 0.4, 0.9)], ids=["linear", "quadratic"])
    def test_matches_dict_loop_oracle(self, order, coefficients):
        # random non-Gaussian states (odd moments nonzero) under potentials
        # with a constant and a linear term, which the gravity and harmonic
        # tests above lack.  Equal: the kernel rounds every entry as the loop
        # does, which keeps the CLI CSV bytes fixed.
        rng = np.random.default_rng(order)
        V = PolynomialPotential(coefficients)
        for _ in range(5):
            G = {key: rng.uniform(-1.0, 1.0) for key in moment_pairs(order)}
            s = MomentState.make(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), order, G)
            got = moment_oracle.as_vector(moment_eom(s, V, 0.7))
            want = moment_oracle.as_vector(moment_oracle.moment_eom(s, V, 0.7))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("coefficients", [(0.0, -0.2, 0.5, 0.35), (0.2, 0.1, -0.3, 0.25, 0.125)],
                             ids=["cubic", "quartic"])
    def test_degree_three_and_up_refused(self, coefficients, monkeypatch):
        # the classical brackets miss the hbar^2 (Moyal) terms from degree 3 on
        # (dG^{3,0}/dt is off by -(hbar^2/4) V'''): refused at every order, by
        # integrate on its first moment_eom probe, before any row is stepped
        V = PolynomialPotential(coefficients)
        message = rf"^a potential of degree {V.degree} needs the hbar\^2 \(Moyal\) terms"
        calls = _count_moment_eom_calls(monkeypatch)
        for order in (2, 4):
            s = MomentState.make(1.0, 0.3, order, _gaussian_moments(order))
            with pytest.raises(DomainError, match=message):
                moment_eom(s, V, 0.7)
            for t_end in (0.0, 1.0):
                calls.clear()
                with pytest.raises(DomainError, match=message):
                    integrate(s, V, 0.7, t_end, 0.01)
                assert len(calls) == 1

    @pytest.mark.parametrize("m", [0.0, -0.7, math.nan, math.inf, 1e-320])
    def test_bad_mass_refused(self, m):
        # m = 0 once raised ZeroDivisionError from the weights b/m, and
        # m = 1e-320 makes them overflow; each is refused at every order, also
        # by integrate's first probe
        V = PolynomialPotential.gravity(0.7, 1.3)
        for order in (2, 4):
            s = MomentState.make(1.0, 0.3, order, _gaussian_moments(order))
            with pytest.raises(DomainError, match=r"^m must be finite and > 0 with order/m finite"):
                moment_eom(s, V, m)
            with pytest.raises(DomainError, match=r"^m must be finite and > 0"):
                integrate(s, V, m, 1.0, 0.01)

    @pytest.mark.parametrize("coefficients", [(0.0, 0.0, 9e307), (0.0, 0.0, -1e308), (0.0, 0.0, math.nan),
                                              (0.0, math.inf, 0.5)], ids=["overflow", "negative", "nan", "c1"])
    def test_non_finite_curvature_refused(self, coefficients):
        # V'' = 2 c_2 overflows from |c_2| = 9e307 on and once turned the zero
        # weights into nan behind a numpy invalid-value warning (an error in
        # this suite); integrate's probes now refuse it the same way
        V = PolynomialPotential(coefficients)
        s = MomentState.make(1.0, 0.3, 4, _gaussian_moments(4))
        for run in (lambda: moment_eom(s, V, 0.7), lambda: integrate(s, V, 0.7, 1.0, 0.01)):
            with pytest.raises(DomainError, match=r"^V'' = 2 c_2 and c_1 must be finite"):
                run()

    @pytest.mark.parametrize("coefficients", [(0.3, -1.2), (0.1, 0.4, 0.9), (0.4,), (0.0,)],
                             ids=["linear", "quadratic", "constant", "zero"])
    def test_trailing_zero_coefficients_ignored(self, coefficients):
        # the degree is that of the highest nonzero coefficient, so a
        # quadratic written with zeros above it is still taken, row for row
        padded, V = PolynomialPotential(coefficients + (0.0, 0.0)), PolynomialPotential(coefficients)
        assert padded.degree == V.degree == len(coefficients) - 1
        s0 = MomentState.make(1.0, 0.3, 4, _gaussian_moments(4))
        assert moment_eom(s0, padded, 0.7) == moment_eom(s0, V, 0.7)
        rows = [[moment_oracle.as_vector(s) for s in integrate(s0, P, 0.7, 0.5, 0.01).states] for P in (padded, V)]
        assert _bits(rows[0]) == _bits(rows[1])

    @pytest.mark.parametrize("order", [2, 4, 6])
    @pytest.mark.parametrize("coefficients", [(0.3, -1.2), (0.1, 0.4, 0.9), (0.4,)],
                             ids=["linear", "quadratic", "constant"])
    def test_affine_for_degree_at_most_two(self, order, coefficients):
        # what integrate's exact flow rests on: for degree <= 2,
        # moment_eom(y) = A y + b, with b its value on the zero state and column
        # j of A its value on the unit vector e_j minus b
        V = PolynomialPotential(coefficients)
        pairs = moment_pairs(order)

        def rhs(x, p, G):
            return moment_oracle.as_vector(moment_eom(MomentState.make(x, p, order, G), V, 0.7))

        b = rhs(0.0, 0.0, {})
        units = [(1.0, 0.0, {}), (0.0, 1.0, {})] + [(0.0, 0.0, {key: 1.0}) for key in pairs]
        A = np.array([rhs(*unit) - b for unit in units]).T
        rng = np.random.default_rng(order)
        for _ in range(5):
            y = rng.uniform(-2.0, 2.0, len(pairs) + 2)
            got = rhs(y[0], y[1], dict(zip(pairs, y[2:])))
            assert np.all(np.abs(got - (A @ y + b)) <= 4 * EPS * (np.abs(A) @ np.abs(y) + np.abs(b)))


class TestClosedForm:
    def test_initial_values(self):
        g20, g11, g02 = closed_form_linear((0.3, 0.1, 0.8), m=2.0, t=0.0)
        assert (g20, g11, g02) == (0.3, 0.1, 0.8)
        # exactly, signed zeros too, also where c0/m = 1e310 overflows and
        # the formula's inf * 0 would be nan
        assert closed_form_linear((1e300, 0.0, 1.0), 1e-10, 0.0) == (1e300, 0.0, 1.0)
        g20, g11, g02 = closed_form_linear((1e300, -0.0, 1.0), 1e-10, [0.0, -0.0])
        assert _bits(g20) == _bits([1e300] * 2) and _bits(g11) == _bits([-0.0] * 2)
        assert _bits(g02) == _bits([1.0] * 2)

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

    def test_unrepresentable_results_refused(self):
        # m*m underflows to 0: once ZeroDivisionError
        with pytest.raises(DomainError, match=r"^the closed form divides by m\*m = 0\.0 \(m=1e-170\)"):
            closed_form_linear((0.25, 0.0, 1.0), 1e-170, 1.0)
        # c0/m and c0 t^2/m^2 overflow: once (1e300, inf, inf) without a warning
        with pytest.raises(DomainError, match=r"^the closed form is not finite at t=1\.0 \(m=1e-10, "):
            closed_form_linear((1e300, 0.0, 1.0), 1e-10, 1.0)
        # c0 t^2/m^2 overflows from t = 1000 on; the first such t is named
        with pytest.raises(DomainError, match=r"^the closed form is not finite at t=1000\.0 \(m=0\.01, "):
            closed_form_linear((1e300, 0.0, 1.0), 1e-2, [0.0, 1.0, 1e3, 1e4])


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

    @pytest.mark.parametrize("alpha,units", [
        (1e-320, natural_units()),   # c0 = hbar^2/(4 c2) overflows
        (1e-320, neutron_units()),   # c2 = alpha l_g^2 underflows to 0
        (1e300, neutron_units()),    # c0 underflows to 0
        (1e300, make_units(1.0, 1.0, 1e10)),  # c2 overflows
    ], ids=["c0-inf", "c2-zero", "c0-zero", "c2-inf"])
    def test_alpha_with_unrepresentable_widths_rejected(self, alpha, units):
        with pytest.raises(DomainError, match="alpha"):
            saturated_ic(alpha, units)


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

    def test_no_warning_from_rounding_of_a_cancelling_product(self):
        # qbouncer moments --preset neutron --x0 2.3 --alpha 0.7 --tend 50
        # --dt 0.003: at t = 45.9 G02 G20 is 3.6e9 times the product, so
        # rounding alone put it 1.08e-6 below hbar^2/4, a false warning
        u = neutron_units()
        ic = saturated_ic(0.7, u)
        V = PolynomialPotential.gravity(u.m, u.g)
        traj = integrate(initial_state(ic, x0=2.3), V, u.m, 50.0, 0.003, hbar=u.hbar)
        assert len(traj) == 16668
        assert not traj.warnings
        assert traj.worst_uncertainty_deficit == 0.0

    def test_invalid_steps(self):
        _, V, s0 = self.linear_setup()
        with pytest.raises(DomainError, match="^dt must be finite and > 0"):
            integrate(s0, V, self.u.m, 1.0, 0.0)
        with pytest.raises(DomainError, match="^t_end must be finite and >= 0"):
            integrate(s0, V, self.u.m, -0.1, 0.1)
        for m in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="^m must be finite and > 0"):
                integrate(s0, V, m, 1.0, 0.1)
        # hbar^2/4 is the reference of the deficit: it must be positive and finite
        for hbar in (0.0, -1.0, 1e-200, 1e200, math.nan):
            with pytest.raises(DomainError, match="^hbar must be > 0 with a finite, nonzero square"):
                integrate(s0, V, self.u.m, 1.0, 0.1, hbar=hbar)
        # t_end = 0 is the one-sample trajectory of s0 itself, k = 0..round(0/dt)
        traj = integrate(s0, V, self.u.m, 0.0, 0.1)
        assert len(traj) == 1 and traj.states[0] is s0 and traj.times.tolist() == [0.0]

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
        # gravity with m = 1e-4 from G^{2,0} = 1e300: G^{0,2} = G^{2,0} t^2/m^2
        # = 1e308 t^2 overflows between t = 1.34 and 1.35, mid-run, without a
        # numpy warning (an error in this suite)
        V = PolynomialPotential.gravity(1e-4, 1.0)
        s0 = MomentState.make(x=1.0, p=0.0, order=2, G={(2, 0): 1e300, (0, 2): 1.0})
        with pytest.raises(NumericalError, match=r"^moment state is not finite at step 135 \(t = 1\.35\)"):
            integrate(s0, V, 1e-4, 2.0, 0.01)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_initial_moment_raises_at_step_zero(self, bad):
        # the check reads the initial state too: a bad G^{0,4} is reported at
        # step 0 under gravity (no equation reads it) and the harmonic flow
        # (which feeds it to G^{1,3}), also at t_end = 0, where no step is taken
        s0 = MomentState.make(1.0, 0.0, 4, {**_gaussian_moments(4), (0, 4): bad})
        for V in (PolynomialPotential.gravity(self.u.m, self.u.g), PolynomialPotential.harmonic(self.u.m, 1.3)):
            for t_end in (1.0, 0.0):
                with pytest.raises(NumericalError, match=r"^moment state is not finite at step 0 \(t = 0\)"):
                    integrate(s0, V, self.u.m, t_end, 0.01)

    @pytest.mark.parametrize("hbar", [None, 1.0])
    def test_overflowing_uncertainty_product_raises(self, hbar):
        # alpha = 1e-300: every state stays finite, but G02 G20 overflows from
        # step 1 (G02 = 1e296, G20 = 2.5e299); the deficit check once read the
        # NaN product as no drop, behind numpy overflow warnings
        _, V, s0 = self.linear_setup(x0=41.7, alpha=1e-300)
        with pytest.raises(NumericalError, match=r"uncertainty product overflows at step 1 \(t = 0\.01\)"):
            integrate(s0, V, self.u.m, 10.0, 0.01, hbar=hbar)

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("coefficients", [
        (0.0, 0.7 * 1.3), (0.0, 0.0, 0.5 * 0.7 * 1.3**2), (0.4,),
    ], ids=["gravity", "harmonic", "constant"])
    def test_rows_equal_compensated_oracle_rk4(self, order, coefficients):
        # A Gaussian state (odd moments exactly 0) and a non-Gaussian one,
        # held to the all-order closed forms in 50-digit mpmath, which share
        # no code with integrate's probes, exponential or doubling: measured
        # <= 2.1 eps (gravity, constant) and 3.8 eps (harmonic) relative to
        # each column's max, bounded at about 3x.  A column that is 0
        # throughout must stay exactly 0.
        V = PolynomialPotential(coefficients)
        rng = np.random.default_rng(order)
        random = {key: rng.uniform(-1.0, 1.0) for key in moment_pairs(order)}
        for G in (_gaussian_moments(order), random):
            s0 = MomentState.make(1.0, 0.3, order, G)
            traj = integrate(s0, V, 0.7, 0.5, 0.01)
            got = np.array([moment_oracle.as_vector(s) for s in traj.states])
            exact = _exact_flow(s0, V, 0.7, traj.times)
            bound = (12 if V.degree == 2 else 6) * EPS * np.abs(exact).max(axis=0)
            assert np.all(np.abs(got - exact) <= bound)

    @pytest.mark.parametrize("coefficients", [
        (0.0, 0.7 * 1.3), (0.0, 0.0, 0.5 * 0.7 * 1.3**2),
    ], ids=["gravity", "harmonic"])
    def test_rows_at_product_seams_equal_closed_forms(self, coefficients):
        # The flow fills row 2^i + r from rows[r] in products of at most
        # 2^18 // k^2 rows (334 at order 6, k = 28); 3000 steps split levels
        # 9, 10 and 11 into 2, 4 and 3 products.  The rows on both sides of
        # every seam, between products and between levels, are held to the
        # 50-digit closed forms as in test_rows_equal_compensated_oracle_rk4:
        # measured <= 1.9 eps (gravity) and 3.2 eps (harmonic).
        order, steps = 6, 3000
        chunk = 2**18 // (len(moment_pairs(order)) + 3) ** 2
        seams = sorted({row for i in range(steps.bit_length())
                        for lo in range(2**i, min(2**(i + 1), steps + 1), chunk) for row in (lo - 1, lo)})
        assert chunk < 2**9  # levels 9 and 10 each take several products
        V = PolynomialPotential(coefficients)
        rng = np.random.default_rng(order)
        random = {key: rng.uniform(-1.0, 1.0) for key in moment_pairs(order)}
        for G in (_gaussian_moments(order), random):
            s0 = MomentState.make(1.0, 0.3, order, G)
            traj = integrate(s0, V, 0.7, steps * 0.0002, 0.0002)
            assert len(traj) == steps + 1
            got = np.array([moment_oracle.as_vector(traj.states[i]) for i in seams])
            exact = _exact_flow(s0, V, 0.7, traj.times[seams])
            bound = (12 if V.degree == 2 else 6) * EPS * np.abs(exact).max(axis=0)
            assert np.all(np.abs(got - exact) <= bound)

    @pytest.mark.parametrize("order,bound", [
        (2, 16 * EPS), (3, 16 * EPS), (4, 16 * EPS), (5, 36 * EPS), (6, 6 * EPS),
    ])
    def test_free_fall_matches_all_order_solution(self, order, bound):
        # V = m g x from non-Gaussian states (odd moments nonzero), held to the
        # exact G^{a,b}(t) = sum_k C(b, k) (t/m)^k G^{a+k,b-k}(0) in 50-digit
        # mpmath: every moment is fed by its (a+1, b-1) neighbour only.
        # Measured 1.3 / 1.9 / 1.5 / 11.4 / 2.1 eps at orders 2-6 (RK4 left
        # 1.2e7 eps at order 5), bounded at about 3x (orders 2-4 keep their
        # earlier 16 eps).  Relative to each component's largest value, on every 7th
        # row and the last.
        m, g = 0.7, 1.3
        V = PolynomialPotential.gravity(m, g)
        rng = np.random.default_rng(order)
        for _ in range(3):
            G = {key: rng.uniform(-1.0, 1.0) for key in moment_pairs(order)}
            s0 = MomentState.make(rng.uniform(1.0, 3.0), rng.uniform(-1.0, 1.0), order, G)
            traj = integrate(s0, V, m, 2.0, 0.01)
            picked = np.r_[0:len(traj):7, len(traj) - 1]
            got = np.array([moment_oracle.as_vector(traj.states[i]) for i in picked])
            want = _exact_flow(s0, V, m, traj.times[picked])
            assert (np.abs(got - want) / np.abs(want).max(axis=0)).max() < bound

    @pytest.mark.parametrize("order,bound", [
        (2, 12 * EPS), (3, 10 * EPS), (4, 30 * EPS), (5, 14 * EPS), (6, 20 * EPS),
    ])
    def test_harmonic_matches_all_order_rotation(self, order, bound):
        # V = m w^2 x^2 / 2 from non-Gaussian states, held to the exact
        # phase-space rotation of every central moment in 50-digit mpmath.
        # An order-k moment turns at up to k w; measured 3.8 / 3.4 / 9.7 /
        # 4.7 / 6.5 eps at orders 2-6 (RK4 left 8.6e7 to 1.8e10 eps), bounded
        # at about 3x.  Relative to each component's largest value, on every
        # 7th row and the last.
        m, w = 0.7, 1.3
        V = PolynomialPotential.harmonic(m, w)
        rng = np.random.default_rng(order)
        for _ in range(3):
            G = {key: rng.uniform(-1.0, 1.0) for key in moment_pairs(order)}
            s0 = MomentState.make(rng.uniform(1.0, 3.0), rng.uniform(-1.0, 1.0), order, G)
            traj = integrate(s0, V, m, 2.0, 0.01)
            picked = np.r_[0:len(traj):7, len(traj) - 1]
            got = np.array([moment_oracle.as_vector(traj.states[i]) for i in picked])
            want = _exact_flow(s0, V, m, traj.times[picked])
            assert (np.abs(got - want) / np.abs(want).max(axis=0)).max() < bound

    @pytest.mark.parametrize("ratio", [1.0, 1e6, 1e10])
    def test_shifted_quadratic_keeps_its_curvature(self, ratio):
        # V = c_1 x + (V''/2) x^2 with c_1/V'' = ratio (c_1 = 1, m = 1): x and
        # p rotate about -c_1/V'', up to 2e10 away, for half a period in 1000
        # steps.  Probing V itself would read A[1, 0] as -((V'' + c_1) - c_1)
        # and round V'' away: 5.8e5 eps (1e6) and 5.9e8 eps (1e10) off in p.
        # Probed on its homogeneous part: measured <= 5.1 eps, relative to
        # each column's largest value on every 7th row and the last, against
        # the rotation at the exact times k dt.
        m, curvature = 1.0, 1.0 / ratio
        V = PolynomialPotential((0.0, 1.0, curvature / 2))
        dt = math.pi * math.sqrt(m / curvature) / 1000
        rng = np.random.default_rng(2)
        s0 = MomentState.make(1.0, 0.3, 2, {key: rng.uniform(-1.0, 1.0) for key in moment_pairs(2)})
        traj = integrate(s0, V, m, 1000 * dt, dt)
        picked = np.r_[0:len(traj):7, len(traj) - 1]
        got = np.array([moment_oracle.as_vector(traj.states[i]) for i in picked])
        want = _exact_flow(s0, V, m, [k * mpmath.mpf(dt) for k in picked])
        assert (np.abs(got - want) / np.abs(want).max(axis=0)).max() < 12 * EPS

    @pytest.mark.parametrize("potential", ["gravity", "harmonic"])
    def test_degree_two_flow_does_not_depend_on_dt(self, potential):
        # the exact flow reaches t = 1 alike in 1, 10, 100 and 1000 steps
        # (the single step needs the exponential's scaling): measured <= 3.5
        # eps (gravity) and 9.2 eps (harmonic) at orders 2-6, relative to each
        # column's largest value on the 1000-step run.  RK4 would part them by
        # its truncation error (harmonic, and gravity past order 4)
        m = 0.7
        V = PolynomialPotential.gravity(m, 1.3) if potential == "gravity" else PolynomialPotential.harmonic(m, 1.3)
        for order in range(2, 7):
            rng = np.random.default_rng(order)
            G = {key: rng.uniform(-1.0, 1.0) for key in moment_pairs(order)}
            s0 = MomentState.make(rng.uniform(1.0, 3.0), rng.uniform(-1.0, 1.0), order, G)
            trajs = [integrate(s0, V, m, 1.0, dt) for dt in (1.0, 0.1, 0.01, 0.001)]
            scale = np.abs([moment_oracle.as_vector(s) for s in trajs[-1].states]).max(axis=0)
            finals = np.array([moment_oracle.as_vector(traj.states[-1]) for traj in trajs])
            assert (np.ptp(finals, axis=0) / scale).max() < 32 * EPS

    @pytest.mark.parametrize("order", [2, 4])
    def test_affine_moment_eom_calls_do_not_grow_with_steps(self, monkeypatch, order):
        # degree <= 2: moment_eom runs on the zero state and on each unit vector
        # but the trailing zero slot's, once per call of integrate, not per step
        calls = _count_moment_eom_calls(monkeypatch)
        s0 = MomentState.make(1.0, 0.0, order, _gaussian_moments(order))
        for V in (PolynomialPotential.gravity(self.u.m, self.u.g), PolynomialPotential.harmonic(self.u.m, 1.3)):
            for steps in (10, 1000):
                calls.clear()
                traj = integrate(s0, V, self.u.m, steps * 0.01, 0.01)
                assert len(traj) == steps + 1 and len(calls) == len(moment_pairs(order)) + 3

    def test_flow_stays_on_the_calling_thread(self):
        # The flow's BLAS products are kept at or below OpenBLAS's
        # single-thread size.  With the fill products left whole, worker
        # threads spent 165 ms of CPU beside the caller's 163 ms over these
        # 20 runs.
        # The CPU time of every other thread of the process must stay within
        # 5 % of this thread's own, plus 5 ms for what else runs.  Workers that
        # an earlier large product woke spin for about 0.1 s before they
        # sleep, so the test first waits (up to 2 s) for them to go quiet.
        order = 6
        s0 = MomentState.make(1.0, 0.0, order, _gaussian_moments(order))
        V = PolynomialPotential.harmonic(1.0, 1.3)
        for _ in range(100):
            idle = time.process_time() - time.thread_time()
            time.sleep(0.02)
            if time.process_time() - time.thread_time() - idle < 0.001:
                break
        process, thread = time.process_time(), time.thread_time()
        for _ in range(20):
            integrate(s0, V, 1.0, 40.0, 0.01)
        own = time.thread_time() - thread
        others = time.process_time() - process - own
        assert others <= 0.05 * own + 0.005, f"other threads {others:.4f} s beside {own:.4f} s"

    def test_trajectory_iterates_pairs(self):
        _, V, s0 = self.linear_setup()
        traj = integrate(s0, V, self.u.m, 0.1, 0.05)
        pairs = list(traj)
        assert len(pairs) == len(traj) == 3
        assert pairs[0][0] == 0.0 and pairs[0][1] is s0
        # states are built from the trajectory array on each read
        assert traj.states[0] is s0 and traj.states[-1] == pairs[-1][1]
        assert traj.states[1:] == [s for _, s in pairs[1:]]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestTrajectoryColumns:
    """traj.states reads x, p, order and moment(a, b) as a MomentState does,
    one read-only column over the samples, so uncertainty_product and
    effective_hamiltonian take it as they take one state."""

    m = 0.5
    potentials = {
        "gravity": PolynomialPotential.gravity(0.5, 2.0),
        "harmonic": PolynomialPotential.harmonic(0.5, 1.3),
    }

    def run(self, potential, order, t_end=0.5):
        s0 = MomentState.make(1.0, 0.3, order, _gaussian_moments(order))
        return integrate(s0, self.potentials[potential], self.m, t_end, 0.01, hbar=1.0)

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("potential", ["gravity", "harmonic"])
    def test_observables_equal_per_state_values(self, potential, order):
        V, states = self.potentials[potential], self.run(potential, order).states
        assert _bits(uncertainty_product(states)) == _bits([uncertainty_product(s) for s in states])
        assert _bits(effective_hamiltonian(states, V, self.m)) == _bits(
            [effective_hamiltonian(s, V, self.m) for s in states])

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("potential", ["gravity", "harmonic"])
    def test_columns_equal_per_state_values(self, potential, order):
        states = self.run(potential, order).states
        assert states.order == order and len(states) == 51
        assert _bits(states.x) == _bits([s.x for s in states])
        assert _bits(states.p) == _bits([s.p for s in states])
        # every pair up to a + b = order + 1: first moments and the pairs
        # beyond the order read the closure's zeros, as they do per state
        for a in range(order + 2):
            for b in range(order + 2 - a):
                column = states.moment(a, b)
                assert column.shape == (51,) and not column.flags.writeable
                assert _bits(column) == _bits([s.moment(a, b) for s in states])
        for a, b in [(-1, 2), (2, -1), (-1, -1)]:
            with pytest.raises(DomainError, match="moment indices must be >= 0"):
                states.moment(a, b)

    @pytest.mark.parametrize("potential", ["gravity", "harmonic"])
    def test_zero_duration_is_one_row(self, potential):
        traj = self.run(potential, 4, t_end=0.0)
        s0 = traj.states[0]
        assert len(traj) == 1 and traj.times.tolist() == [0.0] and list(traj) == [(0.0, s0)]
        assert traj.warnings == () and traj.worst_uncertainty_deficit == 0.0
        assert _bits(uncertainty_product(traj.states)) == _bits([uncertainty_product(s0)])
        with pytest.raises(DomainError, match="^t_end must be finite and >= 0"):
            integrate(s0, self.potentials[potential], self.m, -1e-300, 0.01)


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

    def test_reset_needs_a_period(self):
        # x0 = 0 has T = 0: the clock t mod 2T was nan behind a numpy warning
        ic = saturated_ic(1.0, self.u)
        assert envelope(0.0, ic, self.u.m, self.u.g, 1.0) == (-math.sqrt(2.0), math.sqrt(2.0))
        with pytest.raises(DomainError, match="no bounce period"):
            envelope(0.0, ic, self.u.m, self.u.g, 1.0, reset_each_period=True)

    def test_negative_position_variance_refused(self):
        # sqrt(G02) of a negative G02 was nan behind a numpy warning
        with pytest.raises(DomainError, match=r"^the envelope is not finite at t=0\.5 "):
            envelope(1.0, (1.0, -1.0, 0.1), 1.0, 2.0, [0.0, 0.5])


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
ANY_TIMES = st.one_of(ANY_FLOAT, st.lists(ANY_FLOAT, min_size=1, max_size=6))


def _finite_or_refused(f):
    try:
        out = f()
    except DomainError:
        return
    assert np.isfinite(out).all(), out


class TestEntryPointsProperty:
    """closed_form_linear and envelope, on arbitrary inputs, return finite
    values or raise DomainError: never a NaN, a numpy warning (an error under
    this suite's filterwarnings) or another exception."""

    @given(c0=ANY_FLOAT, c1=ANY_FLOAT, c2=ANY_FLOAT, m=ANY_FLOAT, t=ANY_TIMES)
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_closed_form_linear(self, c0, c1, c2, m, t):
        _finite_or_refused(lambda: closed_form_linear((c0, c1, c2), m, t))

    @given(x0=ANY_FLOAT, c0=ANY_FLOAT, c1=ANY_FLOAT, c2=ANY_FLOAT, m=ANY_FLOAT, g=ANY_FLOAT, t=ANY_TIMES,
           reset=st.booleans())
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_envelope(self, x0, c0, c1, c2, m, g, t, reset):
        ic = SaturatedIC(alpha=1.0, c0=c0, c1=c1, c2=c2)
        _finite_or_refused(lambda: envelope(x0, ic, m, g, t, reset_each_period=reset))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _moment_runs(draw, degree=st.integers(0, 2)):
    """(s0, V, m, t_end, dt, hbar) for integrate: a finite state of order 2-6,
    V = c, c x or c x^2 (constant, gravity, harmonic) for degree <= 2 and
    x^2/2 + c x^degree (c != 0) above, m > 0, and t_end = steps * dt with
    steps <= 200."""
    order, d = draw(st.integers(2, 6)), draw(degree)
    c = draw(FINITE.filter(bool) if d > 2 else FINITE)
    coefficients = (0.0, 0.0, 0.5) + (0.0,) * (d - 3) + (c,) if d > 2 else (0.0,) * d + (c,)
    pairs = moment_pairs(order)
    G = dict(zip(pairs, draw(st.lists(FINITE, min_size=len(pairs), max_size=len(pairs)))))
    s0 = MomentState.make(draw(FINITE), draw(FINITE), order, G)
    dt = draw(POSITIVE)
    return s0, PolynomialPotential(coefficients), draw(POSITIVE), draw(st.integers(0, 200)) * dt, dt, draw(
        st.none() | POSITIVE)


class TestIntegrateProperty:
    """integrate on finite inputs: all-finite rows, or DomainError or
    NumericalError; never a NaN, a numpy warning (an error under this
    suite's filterwarnings) or another exception."""

    @given(run=_moment_runs())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_finite_rows_or_refused(self, run):
        try:
            traj = integrate(*run)
        except (DomainError, NumericalError):
            return
        states = traj.states
        rows = np.column_stack([states.x, states.p] + [states.moment(a, b) for a, b in moment_pairs(states.order)])
        assert rows.shape[0] == len(traj.times) and np.isfinite(rows).all()
        assert traj.worst_uncertainty_deficit >= 0.0

    @given(run=_moment_runs(degree=st.integers(3, 6)))
    @settings(derandomize=True, max_examples=50, deadline=None)
    def test_degree_three_and_up_always_refused(self, run):
        with pytest.raises(DomainError):
            integrate(*run)
