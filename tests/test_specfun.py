"""Airy evaluation, zero finding, and quadrature: the fixed production rule
and the adaptive oracle it is held to."""

import decimal
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import qbouncer.specfun as specfun
import quadrature_oracle
from qbouncer.errors import DomainError, NumericalError
from qbouncer.specfun import (
    AiryValue,
    airy,
    airy_ai,
    airy_ai_prime,
    airy_ai_smoothed,
    airy_zero,
    airy_zero_asymptotic,
    airy_zeros,
    integrate_1d,
)

# Frozen oracle values: 60-term Maclaurin series evaluated at 50 decimal
# digits (Ai, Ai'), and 200-step bisection on sign changes of Ai (zeros).
AI_AT_0 = 0.35502805388781723926
AIP_AT_0 = -0.25881940379280679841
ZERO_1 = 2.3381074104597670385
ZERO_2 = 4.0879494441309706166
ZERO_50 = 38.021008677255254433
AIP_AT_MINUS_ZERO_1 = 0.70121082272069136249

REFERENCE_POINTS = [
    (1.0, 0.13529241631288141552, -0.15914744129679321279),
    (-1.0, 0.5355608832923521188, -0.010160567116645209395),
    (5.0, 0.00010834442813607441735, -0.000247413890868462476),
    (-5.0, 0.35076100902411431979, 0.32719281855444313679),
    (-10.0, 0.040241238486443190689, 0.9962650441327900559),
    (12.0, 1.393184688875360839e-13, -4.854736554985308463e-13),
]


class TestAiryValues:
    def test_at_zero(self):
        assert airy_ai(0.0) == pytest.approx(AI_AT_0, abs=1e-14)
        assert airy_ai_prime(0.0) == pytest.approx(AIP_AT_0, abs=1e-14)

    def test_airy_pair(self):
        v = airy(0.0)
        assert v.ai > 0 and v.ai_prime < 0
        assert v.ai == airy_ai(0.0)

    def test_airy_pair_on_arrays(self):
        xs = np.linspace(-20.0, 15.0, 36).reshape(6, 6)
        v = airy(xs)
        assert np.array_equal(v.ai, airy_ai(xs))
        assert np.array_equal(v.ai_prime, airy_ai_prime(xs))

    @pytest.mark.parametrize("lo,hi", [(-4.5, 1.5), (-9.0, 9.0), (9.0, 40.0), (-40.0, -9.0)],
                             ids=["near-origin", "anchor", "asymptotic+", "asymptotic-"])
    def test_single_functions_equal_the_pair_bitwise(self, lo, hi):
        # airy_ai skips the rows of Ai' in every region's table and no Ai row
        # reads them; airy_ai_prime is the pair's Ai'.  So the bits are the
        # pair's.  Ends, the anchors themselves (h = 0) and x = 0 included.
        xs = np.concatenate([np.linspace(lo, hi, 4001), [-7.875, 0.0, 4.125]])
        xs = xs[(xs >= lo) & (xs <= hi)]
        v = airy(xs)
        for got, want in ((airy_ai(xs), v.ai), (airy_ai_prime(xs), v.ai_prime)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_array_equals_scalar_bitwise(self):
        # every region, each cut with its neighbours, two anchors (h = 0) and 0
        cuts = [-9.0, 9.0]
        xs = [-30.0, -6.1, -4.5, -1.3, 0.7, 1.5, 5.2, 20.0, -7.875, 4.125, 0.0]
        xs += [y for c in cuts for y in (np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf))]
        v = airy(np.array(xs))
        w = [airy(float(x)) for x in xs]
        for got, want in ((v.ai, [p.ai for p in w]), (v.ai_prime, [p.ai_prime for p in w])):
            assert got.tobytes() == np.array(want).tobytes()

    def test_printed_first_zero_location(self):
        # the tabulated 6-digit zero gives |Ai| below 1e-5 there
        assert abs(airy_ai(-2.33811)) < 1e-5

    @pytest.mark.parametrize("x,ai,aip", REFERENCE_POINTS)
    def test_reference_points(self, x, ai, aip):
        assert airy_ai(x) == pytest.approx(ai, abs=1e-13)
        assert airy_ai_prime(x) == pytest.approx(aip, abs=1e-13)

    def test_monotone_decay_positive_axis(self):
        assert airy_ai(10.0) < airy_ai(5.0) < airy_ai(1.0)

    def test_decay_window(self):
        # 0 < Ai(x) < 0.1 and decreasing for x >= 3
        xs = np.linspace(3.0, 15.0, 200)
        vals = airy_ai(xs)
        assert (vals > 0).all() and (vals < 1e-1).all()
        assert (np.diff(vals) < 0).all()

    def test_entire_on_wide_interval(self):
        xs = np.linspace(-20.0, 5.0, 2001)
        assert np.isfinite(airy_ai(xs)).all()
        assert np.isfinite(airy_ai_prime(xs)).all()

    def test_array_shape_roundtrip(self):
        xs = np.linspace(-3, 3, 7).reshape(7, 1)
        assert airy_ai(xs).shape == (7, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(DomainError):
            airy_ai(bad)
        with pytest.raises(DomainError):
            airy_ai_prime(bad)

    @given(st.floats(min_value=-15.0, max_value=15.0))
    @settings(max_examples=200)
    def test_matches_scipy_within_contract(self, x):
        ref_ai, ref_aip, _, _ = scipy.special.airy(x)
        assert abs(airy_ai(x) - ref_ai) < 1e-12
        assert abs(airy_ai_prime(x) - ref_aip) < 1e-10

    def test_derivative_consistent_with_finite_differences(self):
        h = 1e-5
        xs = np.linspace(-10.0, 5.0, 301)
        fd = (airy_ai(xs + h) - airy_ai(xs - h)) / (2 * h)
        assert np.abs(fd - airy_ai_prime(xs)).max() < 1e-6


def _series_oracle(xs, mpmath):
    """Ai and Ai' at each x by the Maclaurin series of y'' = x y (DLMF 9.4.1),
    60 terms in x^3 summed in 40-digit decimal arithmetic from mpmath's Ai(0)
    and Ai'(0): at |x| <= 9 its cancellation costs at most 16 digits, and it
    is much faster than 14 402 mpmath.airyai calls."""
    with mpmath.workdps(45), decimal.localcontext() as ctx:
        ctx.prec = 40
        ai0, aip0 = (decimal.Decimal(mpmath.nstr(mpmath.airyai(0, derivative=d), 42)) for d in (0, 1))
        # f = sum f_k x^(3k) and g = sum g_k x^(3k+1) solve the ODE from (1, 0) and (0, 1)
        f, g = [decimal.Decimal(1)], [decimal.Decimal(1)]
        for k in range(1, 60):
            f.append(f[-1] / ((3 * k) * (3 * k - 1)))
            g.append(g[-1] / ((3 * k + 1) * (3 * k)))
        rows = (f, g, [c * 3 * k for k, c in enumerate(f)][1:], [c * (3 * k + 1) for k, c in enumerate(g)])
        out = []
        for x in xs:
            d = decimal.Decimal(float(x))
            t = d * d * d
            sums = []
            for row in rows:
                acc = decimal.Decimal(0)
                for c in reversed(row):
                    acc = acc * t + c
                sums.append(acc)
            sf, sg, sfp, sgp = sums
            out.append((float(ai0 * sf + aip0 * sg * d), float(ai0 * sfp * d * d + aip0 * sgp)))
    return np.array(out).T


class TestAiryAbsoluteAccuracy:
    def test_absolute_error_against_mpmath_on_anchor_band(self):
        # anchored Taylor steps on all of [-9, 9]: measured 1.1e-16 (Ai) and
        # 2.2e-16 (Ai'); a Maclaurin series in doubles on [-4.5, 1.5] gave
        # 4.2e-15 and 9.2e-15
        mpmath = pytest.importorskip("mpmath")
        xs = np.linspace(-9.0, 9.0, 7201)
        exact = _series_oracle(xs, mpmath)
        with mpmath.workdps(30):  # the oracle itself, at every 100th point
            for x, want in zip(xs[::100], exact.T[::100]):
                assert want.tolist() == [float(mpmath.airyai(x, derivative=d)) for d in (0, 1)]
        v = airy(xs)
        for got, want, bound in ((v.ai, exact[0], 5e-16), (v.ai_prime, exact[1], 1e-15)):
            err = np.abs(got - want).max()
            assert err <= bound, (bound, err)

    def test_anchor_table_equals_scalar_recurrence(self):
        # the table is built a column (one power of every anchor) at a time;
        # the scalar loop over anchors and powers it replaced is the oracle
        coef = np.zeros((len(specfun._ANCHORS), specfun._K_ANCHOR))
        for i, (x0, ai, aip) in enumerate(specfun._ANCHORS):
            c = coef[i]
            c[0], c[1] = ai, aip
            for j in range(2, specfun._K_ANCHOR):
                c[j] = (x0 * c[j - 2] + (c[j - 3] if j >= 3 else 0.0)) / (j * (j - 1))
        want = np.stack((coef, coef * np.arange(specfun._K_ANCHOR)))
        assert np.array_equal(specfun._ANCHOR_TABLE, want)


class TestAiryRelativeAccuracy:
    """Ai and Ai' on x >= 0 held to mpmath relatively: callers scale Ai by
    e^(a x), which multiplies its relative error, not its absolute one."""

    @pytest.mark.parametrize("lo,hi,step,bound", [(0.0, 9.0, 0.025, 1.5e-15), (9.0, 40.0, 0.1, 1e-13)])
    def test_relative_error_against_mpmath(self, lo, hi, step, bound):
        # on [0, 9] every point is within 0.375 of an anchor: measured
        # 6.7e-16 (Ai) and 6.0e-16 (Ai'); 2.8e-14 on (9, 40]
        mpmath = pytest.importorskip("mpmath")
        xs = np.linspace(lo, hi, int(round((hi - lo) / step)) + 1)[1 if lo else 0:]
        with mpmath.workdps(30):
            for got, deriv in ((airy_ai(xs), 0), (airy_ai_prime(xs), 1)):
                exact = [mpmath.airyai(x, derivative=deriv) for x in xs]
                rel = max(abs(float((g - e) / e)) for g, e in zip(got, exact))
                assert rel < bound, (deriv, rel)


class TestAirySmoothed:
    # (y, a): z = y + a^2 on both sides of the asymptotic cut z = 9
    @pytest.mark.parametrize("y,a", [(-2.0, 0.5), (3.0, 1.0), (8.0, 1.5), (2.0, 3.0)])
    def test_matches_mpmath_quadrature_of_its_integral(self, y, a):
        # (4 pi a)^(-1/2) * integral Ai(u) exp(-(u - y)^2 / (4a)) du over
        # y +- 18 sqrt(a) at 18 digits; measured relative gap <= 2.8e-16
        mpmath = pytest.importorskip("mpmath")
        half = 18.0 * math.sqrt(a)
        with mpmath.workdps(18):
            integral = mpmath.quad(lambda u: mpmath.airyai(u) * mpmath.exp(-((u - y) ** 2) / (4 * a)),
                                   mpmath.linspace(y - half, y + half, 9))
            exact = float(integral / mpmath.sqrt(4 * mpmath.pi * a))
        assert airy_ai_smoothed(y, a) == pytest.approx(exact, rel=1e-15)

    def test_zero_width_is_ai(self):
        xs = np.linspace(-15.0, 8.0, 47)
        assert np.array_equal(airy_ai_smoothed(xs, 0.0), airy_ai(xs))

    def test_array_shape_roundtrip(self):
        ys = np.linspace(-30.0, 10.0, 12).reshape(3, 4)
        out = airy_ai_smoothed(ys, 2.0)
        assert out.shape == (3, 4)
        assert out[1, 2] == airy_ai_smoothed(float(ys[1, 2]), 2.0)

    @pytest.mark.parametrize("a", [-1.0, math.nan, math.inf, 1e110])
    def test_bad_width_rejected(self, a):
        with pytest.raises(DomainError, match="smoothing"):
            airy_ai_smoothed(1.0, a)

    def test_nonfinite_argument_rejected(self):
        with pytest.raises(DomainError):
            airy_ai_smoothed(math.nan, 1.0)


class TestAiryZeros:
    def test_first_zero_matches_tabulated(self):
        assert abs(airy_zero(1) - 2.33811) <= 1e-5
        assert airy_zero(1) == pytest.approx(ZERO_1, abs=1e-12)

    def test_second_zero(self):
        x2 = airy_zero(2)
        assert 4.0 < x2 < 4.2
        assert abs(airy_ai(-x2)) < 1e-10
        assert x2 == pytest.approx(ZERO_2, abs=1e-12)

    def test_zero_50(self):
        assert airy_zero(50) == pytest.approx(ZERO_50, abs=1e-10)

    def test_derivative_nonzero_at_simple_zero(self):
        assert abs(airy_ai_prime(-airy_zero(1))) > 0.5
        assert airy_ai_prime(-ZERO_1) == pytest.approx(AIP_AT_MINUS_ZERO_1, abs=1e-12)

    def test_asymptotic_estimate(self):
        assert abs(airy_zero_asymptotic(1) - 2.32025) <= 1e-5
        est = [airy_zero_asymptotic(n) for n in range(1, 30)]
        assert all(a < b for a, b in zip(est, est[1:]))

    def test_printed_relative_gap(self):
        gap = (airy_zero(1) - airy_zero_asymptotic(1)) / airy_zero(1)
        assert 100 * gap == pytest.approx(0.76372, abs=1e-3)

    def test_high_n_seed_accuracy(self):
        x50 = airy_zero(50)
        assert abs(x50 - airy_zero_asymptotic(50)) / x50 < 1e-5

    def test_residuals_up_to_100(self):
        zs = airy_zeros(100)
        assert np.abs(airy_ai(-zs)).max() < 1e-10

    def test_ordering_and_interlacing(self):
        zs = airy_zeros(30)
        assert (np.diff(zs) > 0).all() and (zs > 0).all()
        seeds = np.array([airy_zero_asymptotic(n) for n in range(1, 32)])
        assert (seeds[:30] < zs).all()
        assert (zs < seeds[1:31]).all()

    def test_seed_gap_monotone(self):
        gaps = [(airy_zero(n) - airy_zero_asymptotic(n)) / airy_zero(n) for n in range(1, 21)]
        assert all(a > b > 0 for a, b in zip(gaps, gaps[1:]))

    def test_zero_30000_past_absolute_step_tolerance(self):
        # x_n ~ 2714: one ulp (4.5e-13) exceeds the absolute 1e-13 Newton step
        # tolerance.  Reference: mpmath.airyaizero(30000) at 30 digits,
        # -2713.76671576162658505030317223
        assert airy_zero(30000) == pytest.approx(2713.7667157616265851, rel=1e-16)

    def test_array_kernel_matches_scalar_newton_bytes(self):
        # one array Newton run over n = 1..2000, 2000 one-index runs and the
        # scalar loop (libm seed, one airy() call per step) give the same bits
        zeros = airy_zeros(2000).tobytes()
        assert zeros == np.array([airy_zero(n) for n in range(1, 2001)]).tobytes()
        assert zeros == np.array([_scalar_newton_zero(n) for n in range(1, 2001)]).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 100, 400, 1000, 3000, 10000])
    def test_zero_and_slope_match_mpmath(self, n):
        # the basis norms are 1/|Ai'(-x_n)| and its closed-form norm check
        # trusts both; measured relative errors <= 2.3e-16
        mpmath = pytest.importorskip("mpmath")
        a_n = mpmath.airyaizero(n)
        x_n = airy_zero(n)
        assert x_n == pytest.approx(float(-a_n), rel=1e-13)
        slope = abs(float(mpmath.airyai(a_n, derivative=1)))
        assert abs(airy_ai_prime(-x_n)) == pytest.approx(slope, rel=1e-13)

    def test_invalid_index(self):
        with pytest.raises(DomainError):
            airy_zero_asymptotic(0)
        with pytest.raises(DomainError):
            airy_zero(0)

    @pytest.mark.parametrize("bad", [2.5, 3.0, math.nan, np.float64(2.0), "3"])
    def test_non_integer_index_rejected(self, bad):
        # airy_zero(2.5) once returned x_50: its seed lies between x_2 and x_3
        for f in (airy_zero, airy_zeros, airy_zero_asymptotic):
            with pytest.raises(DomainError, match="integer"):
                f(bad)

    @pytest.mark.parametrize("count", [0, -3])
    def test_nonpositive_count_rejected(self, count):
        # airy_zeros(0) and airy_zeros(-3) once returned an empty array
        for f in (airy_zero, airy_zeros, airy_zero_asymptotic):
            with pytest.raises(DomainError, match=">= 1"):
                f(count)

    def test_numpy_integer_index(self):
        assert airy_zero(np.int64(50)) == airy_zero(50)
        assert airy_zeros(np.int32(12)).tobytes() == airy_zeros(12).tobytes()


def _scalar_newton_zero(n):
    # reference: Newton from the libm seed, one scalar airy() call per step,
    # stopping on |step| < max(1e-13, 4 ulp(x_n))
    s = airy_zero_asymptotic(n)
    for _ in range(50):
        v = airy(-s)
        step = v.ai / v.ai_prime
        s += step
        if abs(step) < max(1e-13, 4 * math.ulp(s)):
            return s
    raise AssertionError(f"reference Newton loop did not converge for n={n}")


def _simpson(f, a, b, n=20001):
    # independent fixed-grid oracle (n odd)
    xs = np.linspace(a, b, n)
    w = np.ones(n)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return (b - a) / (n - 1) / 3.0 * float(w @ f(xs))


class TestQuadrature:
    """The adaptive oracle engine, quadrature_oracle.integrate; the interval
    and leading-axis checks are the production rule's."""

    def test_constant(self):
        val = quadrature_oracle.integrate(lambda x: np.ones_like(x), 0.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_eigen_normalization_identity(self):
        f = lambda x: airy_ai(x - ZERO_1) ** 2
        val = quadrature_oracle.integrate(f, 0.0, 40.0, tol=1e-12)
        assert val == pytest.approx(AIP_AT_MINUS_ZERO_1**2, abs=1e-8)
        assert val == pytest.approx(_simpson(f, 0.0, 40.0), abs=1e-8)

    def test_gaussian_moment(self):
        val = quadrature_oracle.integrate(lambda x: x * np.exp(-x * x), 0.0, 10.0)
        assert val == pytest.approx(0.5, abs=1e-10)

    def test_oscillatory(self):
        val = quadrature_oracle.integrate(np.cos, 0.0, 20.0, initial_panels=4)
        assert val == pytest.approx(math.sin(20.0), abs=1e-10)

    @pytest.mark.parametrize(
        "f", [lambda x: 1.0, lambda x: np.ones((2, x.size))], ids=["scalar", "points-last"]
    )
    def test_integrand_without_point_axis_rejected(self, f):
        with pytest.raises(DomainError, match="leading axis"):
            integrate_1d(f, 0.0, 1.0, 1)

    def test_vector_integrand_matches_scalar_calls(self):
        parts = (
            lambda x: np.exp(-x) * np.sin(3 * x),
            lambda x: airy_ai(x - ZERO_2) ** 2 * x,
            lambda x: 1.0 / (1.0 + x * x),
        )
        vec = quadrature_oracle.integrate(lambda x: np.stack([f(x) for f in parts], axis=1), 0.0, 12.0)
        assert vec.shape == (3,)
        for got, f in zip(vec, parts):
            want = quadrature_oracle.integrate(f, 0.0, 12.0)
            assert abs(got - want) <= max(1e-10, 1e-10 * abs(want))

    @pytest.mark.parametrize(
        "small,exact",
        [
            (lambda x: x * np.exp(-x * x), 0.5),
            (lambda x: np.abs(x - 3.3), 3.3**2 / 2 + 6.7**2 / 2),
        ],
        ids=["same-shape", "kink"],
    )
    def test_small_component_keeps_its_own_tolerance(self, small, exact):
        # a panel is accepted only when every component meets its own
        # max(tol, tol*|estimate_k|), so the 5e7-sized component does not
        # loosen the tolerance of the O(10) one; the kink converges slowly
        # enough to show it (off by 1e-3 under the large component's tolerance)
        def f(x):
            return np.stack([1e8 * x * np.exp(-x * x), small(x)], axis=1)

        big, val = quadrature_oracle.integrate(f, 0.0, 10.0)
        assert abs(big - 5e7) <= 1e-10 * 5e7
        assert abs(val - exact) <= max(1e-10, 1e-10 * exact)

    @pytest.mark.parametrize(
        "f,a,b",
        [
            (lambda x: np.exp(-x) * np.sin(3 * x), 0.0, 12.0),
            (lambda x: airy_ai(x - ZERO_2) ** 2 * x, 0.0, 30.0),
            (lambda x: 1.0 / (1.0 + x * x), -4.0, 4.0),
        ],
    )
    def test_tolerance_halving_stays_within_bound(self, f, a, b):
        # halving the tolerance must not move the result by more than the
        # prior call's guaranteed error bound
        for tol in (1e-6, 1e-8, 1e-10):
            coarse = quadrature_oracle.integrate(f, a, b, tol=tol)
            fine = quadrature_oracle.integrate(f, a, b, tol=tol / 2)
            assert abs(fine - coarse) <= max(tol, tol * abs(coarse))

    def test_subdivision_cap(self):
        spiky = lambda x: np.exp(-1e4 * (x - 0.5) ** 2)
        with pytest.raises(NumericalError, match="subdivision cap 2 "):
            quadrature_oracle.integrate(spiky, 0.0, 1.0, tol=1e-13, max_subdivisions=2)

    def test_deterministic_for_fixed_inputs(self):
        f = lambda x: airy_ai(x - ZERO_1) ** 2 * np.cos(x)
        first = quadrature_oracle.integrate(f, 0.0, 25.0, tol=1e-11)
        second = quadrature_oracle.integrate(f, 0.0, 25.0, tol=1e-11)
        assert first == second  # bit-identical, not just close

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate_1d(np.cos, 1.0, 0.0, 1)
        with pytest.raises(DomainError):
            integrate_1d(np.cos, 0.0, math.inf, 1)
        with pytest.raises(DomainError, match="finite width"):
            integrate_1d(np.cos, -1e308, 1e308, 1)


class TestFixedRule:
    """specfun.integrate_1d: 15-point Gauss-Legendre on fixed panels, each
    checked against its halves and never refined."""

    def test_table_matches_leggauss_bits(self):
        nodes, weights = np.polynomial.legendre.leggauss(15)
        assert specfun._GL_NODES.tobytes() == nodes.tobytes()
        assert specfun._GL_WEIGHTS.tobytes() == weights.tobytes()

    def test_import_leaves_numpy_polynomial_out(self):
        code = "import sys, qbouncer; print('numpy.polynomial' in sys.modules)"
        src = os.path.dirname(os.path.dirname(specfun.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize(
        "f,a,b,panels",
        [
            (lambda x: np.ones_like(x), 0.0, 1.0, 1),
            (np.cos, 0.0, 20.0, 4),
            (lambda x: x * np.exp(-x * x), 0.0, 10.0, 8),
            (lambda x: np.stack([np.exp(-x) * np.sin(3 * x), airy_ai(x - ZERO_2) ** 2 * x], axis=1),
             0.0, 12.0, 12),
        ],
        ids=["constant", "cos", "gaussian-moment", "vector"],
    )
    def test_equals_oracle_bits_when_every_panel_passes(self, f, a, b, panels):
        # on starting panels that all pass, the adaptive oracle stops after one
        # halving and sums exactly what the fixed rule sums
        got = np.asarray(integrate_1d(f, a, b, panels))
        want = np.asarray(quadrature_oracle.integrate(f, a, b, initial_panels=panels))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_failing_panel_raises_naming_it(self):
        # the spike at 0.8 lies in the last of 4 panels; the oracle refines
        # it, the fixed rule refuses
        spiky = lambda x: np.exp(-1e4 * (x - 0.8) ** 2)
        with pytest.raises(NumericalError, match=r"panel 4 of 4, \[0\.75, 1\.0\]"):
            integrate_1d(spiky, 0.0, 1.0, 4)
        val = quadrature_oracle.integrate(spiky, 0.0, 1.0, initial_panels=4)
        assert val == pytest.approx(math.sqrt(math.pi / 1e4), rel=1e-10)

    @pytest.mark.parametrize("panels", [0, -1])
    def test_panels_must_be_positive(self, panels):
        with pytest.raises(DomainError, match="panels >= 1"):
            integrate_1d(np.cos, 0.0, 1.0, panels)

    @pytest.mark.parametrize("panels", [200_001, 10**9, 10**30])
    def test_panel_count_capped_before_any_array(self, panels):
        # 10**9 panels once sized linspace and node arrays of 1e9-4.5e10 values
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=f"at most 200000 panels, got {panels}"):
                integrate_1d(np.cos, 0.0, 1.0, panels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_panel_cap_admits_every_projection(self):
        # the projection refuses a table of more than _MAX_OVERLAP_VALUES
        # values (30 nodes per panel and state) first, so the cap never binds there
        from qbouncer.quantum import _MAX_OVERLAP_VALUES

        assert math.ceil(_MAX_OVERLAP_VALUES / 30) <= specfun._MAX_PANELS

    @pytest.mark.parametrize("panels", [2.5, np.float64(3.0)])
    def test_panels_must_be_an_integer(self, panels):
        # both once raised numpy's TypeError from linspace
        with pytest.raises(DomainError, match="panel count must be an integer"):
            integrate_1d(np.cos, 0.0, 1.0, panels)


# any float at all, and the same in short lists (arrays)
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
ANY_ARGUMENT = st.one_of(ANY_FLOAT, st.lists(ANY_FLOAT, min_size=1, max_size=6))
# integers and floats, most of them not usable as a count
ANY_COUNT = st.one_of(st.integers(max_value=50), ANY_FLOAT)


def _finite_or_refused(f, *args):
    try:
        out = f(*args)
    except (DomainError, NumericalError):
        return
    parts = (out.ai, out.ai_prime) if isinstance(out, AiryValue) else (out,)
    for part in parts:
        assert np.isfinite(part).all(), (f.__name__, args, part)


class TestEntryPointsProperty:
    """Every public entry point of specfun, on arbitrary inputs, returns finite
    values or raises DomainError or NumericalError: never a NaN, a numpy
    warning (an error under this suite's filterwarnings) or another exception."""

    @given(x=ANY_ARGUMENT)
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_airy(self, x):
        for f in (airy, airy_ai, airy_ai_prime):
            _finite_or_refused(f, x)

    @given(y=ANY_ARGUMENT, a=ANY_FLOAT)
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_airy_ai_smoothed(self, y, a):
        _finite_or_refused(airy_ai_smoothed, y, a)

    @given(n=ANY_COUNT)
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_airy_zeros(self, n):
        _finite_or_refused(airy_zeros, n)

    @given(a=ANY_FLOAT, b=ANY_FLOAT, panels=st.one_of(st.integers(max_value=64), st.floats(-4.0, 64.0)))
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_integrate_1d(self, a, b, panels):
        _finite_or_refused(integrate_1d, np.cos, a, b, panels)
