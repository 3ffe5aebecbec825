"""Airy eigenbasis, packet projection, spectral evolution, observables."""

import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

import qbouncer.classical as classical
import qbouncer.quantum as quantum
from qbouncer.classical import BounceSpec, _bounce_series, bounce_fourier, bounce_trajectory
from qbouncer.errors import DomainError, InsufficientBasisError, NumericalError
from qbouncer.quantum import (
    PacketSpec,
    SpectralState,
    build_basis,
    evolve,
    expectation_x,
    expectation_x_evolution,
    expectation_x_series,
    project_function,
    project_packet,
    reconstruct,
    variance_x,
    variance_x_evolution,
)
from qbouncer.scaling import natural_units, neutron_units
from qbouncer.specfun import airy_ai, airy_ai_prime, airy_zero
import quadrature_oracle
from quadrature_oracle import gaussian_projection, norm_integrals, overlap_matrix, weighted_matrix
from series_tail import truncation_sup

PACKET = PacketSpec(x0=10.0, sigma=1.5)
EPS = np.finfo(float).eps


def _series_mpmath(x0, T, ts, n_terms, damping):
    """_bounce_series summed term by term in 40-digit mpmath, rounded to doubles."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        coeffs = [(-1) ** (n + 1) * mpmath.exp(-mpmath.mpf(damping) * n * n) / n**2 for n in range(1, n_terms + 1)]
        out = []
        for t in ts:
            theta = mpmath.pi * mpmath.mpf(t) / mpmath.mpf(T)
            total = mpmath.fsum(a * mpmath.cos(n * theta) for n, a in enumerate(coeffs, 1))
            out.append(float(2 * mpmath.mpf(x0) / 3 + 4 * mpmath.mpf(x0) / mpmath.pi**2 * total))
    return np.array(out)


@pytest.fixture(scope="module")
def packet_state(basis26):
    return project_packet(PACKET, basis26)


@pytest.fixture(scope="module")
def x_by_quadrature(basis26, units):
    return weighted_matrix(basis26, 1) * units.l_g


class TestBasis:
    def test_zeros_ascending_positive(self, basis12):
        assert (basis12.zeros > 0).all()
        assert (np.diff(basis12.zeros) > 0).all()

    def test_ground_state_energy(self, basis12, units):
        assert basis12.energies[0] / units.e_g == pytest.approx(2.33811, abs=1e-5)

    def test_dirichlet_condition(self, basis12):
        for n in range(1, basis12.n_max + 1):
            assert abs(basis12.eigenfunction(n, 0.0)) < 1e-9

    def test_eigenfunction_vanishes_below_mirror(self, basis12):
        # Ai(-2 - x_1) = 0.274 / N_1 is the Airy continuation, not psi_1
        assert basis12.eigenfunction(1, -2.0) == 0.0
        xs = np.array([-5.0, -0.5, 0.5, 3.0])
        psi = basis12.eigenfunction(2, xs)
        assert psi.shape == (4,) and (psi[:2] == 0.0).all() and (psi[2:] != 0.0).all()

    def test_x_matrix_symmetric(self, basis12):
        # the imaginary part of c^dagger X c is a^T (X - X^T) b, so symmetry
        # is what lets the observables take the real form a^T X a + b^T X b
        # with no residue check.  Both are symmetric exactly: the gaps enter
        # as |x_m - x_n|, since numpy's vectorized pow rounds (-d)^4 and d^4
        # apart (by up to 1.6 eps, N <= 200)
        m = basis12.x_matrix
        assert np.abs(m - m.T).max() == 0.0
        m2 = basis12.x2_matrix()
        assert np.array_equal(m2, m2.T)

    def test_diagonal_elements(self, basis26, x_by_quadrature):
        # closed-form <n|x|n> = 2 x_n / 3 against adaptive quadrature of
        # psi_n^2 x; measured gap 5.7e-14 l_g over the full matrix at N = 26
        gap = basis26.x_matrix.diagonal() - x_by_quadrature.diagonal()
        assert np.abs(gap).max() < 5e-13

    def test_off_diagonal_closed_form(self, basis26, x_by_quadrature):
        # closed-form <m|x|n> = 2 (-1)^(m-n+1) / (x_m - x_n)^2 against
        # adaptive quadrature of psi_m psi_n x, every m != n at N = 26
        off = ~np.eye(basis26.n_max, dtype=bool)
        gap = basis26.x_matrix[off] - x_by_quadrature[off]
        assert np.abs(gap).max() < 5e-13

    @pytest.mark.parametrize("power,tol", [(2, 1e-11)])
    def test_closed_forms_match_quadrature(self, basis26, units, power, tol):
        # the closed-form <m|x^2|n> against adaptive quadrature of
        # psi_m psi_n x^2; measured gap 1.7e-12 l_g^2 at N = 26
        oracle = weighted_matrix(basis26, power) * units.l_g**power
        assert np.abs(basis26.x2_matrix() - oracle).max() < tol

    def test_orthonormal(self, basis12):
        gram = overlap_matrix(basis12)
        assert np.abs(gram - np.eye(basis12.n_max)).max() < 1e-8

    def test_bad_nmax(self, units):
        with pytest.raises(DomainError):
            build_basis(0, units)

    def test_nmax_above_checked_range_rejected_first(self, units, monkeypatch):
        # past the 10 000 states whose zeros and slopes are held to mpmath,
        # build_basis refuses before computing a zero or an N x N matrix
        def no_zeros(n_max):
            raise AssertionError("zeros computed for a refused basis")

        monkeypatch.setattr(quantum, "airy_zeros", no_zeros)
        with pytest.raises(DomainError, match="10000"):
            build_basis(10_001, units)

    def test_x2_matrix_built_once_and_read_only(self, basis12, units):
        first = basis12.x2_matrix()
        assert basis12.x2_matrix() is first
        assert not first.flags.writeable
        assert np.array_equal(first, units.l_g**2 * quantum._position_matrix(basis12.zeros, 2))

    @pytest.mark.parametrize("n_max,bound", [(26, 3.5e-15), (64, 5e-15)])
    def test_norm_table_matches_adaptive_quadrature(self, units, n_max, bound):
        # the closed-form norm integral N_n^2 (Ai'(-x_n)^2 + x_n Ai(-x_n)^2)
        # that build_basis checks, against one scalar oracle quadrature per state
        # on the oracle's own panels; measured gap 1.8e-15 (N = 26) and 2.0e-15 (N = 64)
        basis = build_basis(n_max, units)
        z = basis.zeros
        closed = basis.norms**2 * (airy_ai_prime(-z) ** 2 + z * airy_ai(-z) ** 2)
        assert np.abs(closed - norm_integrals(basis)).max() < bound

    @pytest.mark.parametrize("n", [2500, 5000, 10000])
    def test_norm_table_converges_for_high_states(self, n):
        # psi_n^2 oscillates faster near the mirror as n grows; one adaptive
        # integral on the oracle's 0.6 l_g starting panels still normalizes
        # N_n = 1/|Ai'(-x_n)| to 1; measured |Q_n - 1| <= 7.8e-15
        zero = np.array([airy_zero(n)])
        state = SimpleNamespace(zeros=zero, norms=1.0 / np.abs(airy_ai_prime(-zero)))
        assert abs(norm_integrals(state)[0] - 1.0) < 1e-13

    def test_basis_build_runs_no_quadrature(self, units, monkeypatch):
        # zeros, slopes and the closed-form norm check: no integrate_1d call
        calls = []
        real = quantum.integrate_1d

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(quantum, "integrate_1d", counted)
        build_basis(26, units)
        assert calls == []

    def test_basis_takes_one_airy_call(self, units, monkeypatch):
        # Ai(-x_n) and Ai'(-x_n) from one airy() call on the N zeros
        sizes = []
        real = quantum.airy

        def counted(x):
            sizes.append(np.size(x))
            return real(x)

        def refuse(x):
            raise AssertionError("build_basis evaluated Ai or Ai' on its own")

        monkeypatch.setattr(quantum, "airy", counted)
        monkeypatch.setattr(quantum, "airy_ai", refuse)
        monkeypatch.setattr(quantum, "airy_ai_prime", refuse, raising=False)
        build_basis(26, units)
        assert sizes == [26]

    def test_norm_check_fires(self, units, monkeypatch):
        # x_5 moved by 1e-4: Ai(-x_5) ~ 1e-4 Ai'(-x_5), so the closed-form
        # norm is off by about x_5 * 1e-8 = 9e-8, above the 1e-8 check, which
        # must name state 5
        real = quantum.airy_zeros

        def shifted(n_max):
            out = real(n_max)
            out[4] += 1e-4
            return out

        monkeypatch.setattr(quantum, "airy_zeros", shifted)
        with pytest.raises(NumericalError, match=r"eigenstate 5 "):
            build_basis(12, units)

    def test_large_basis_matches_mpmath(self, units):
        # N = 400 builds (every norm passes the closed-form check) and its zeros
        # and |Ai'(-x_n)| agree with mpmath; measured relative error <= 5e-16
        mpmath = pytest.importorskip("mpmath")
        basis = build_basis(400, units)
        for n in (1, 100, 400):
            a_n = mpmath.airyaizero(n)
            assert basis.zeros[n - 1] == pytest.approx(float(-a_n), rel=1e-13)
            slope = abs(float(mpmath.airyai(a_n, derivative=1)))
            assert 1.0 / basis.norms[n - 1] == pytest.approx(slope, rel=1e-13)


class TestProjection:
    def test_eigenstate_projects_to_unit_vector(self, basis12):
        state = project_function(
            lambda x: basis12.eigenfunction(3, x), basis12, 0.0, basis12.zeros[-1] + 12.0
        )
        c = state.coefficients
        assert abs(c[2]) == pytest.approx(1.0, abs=1e-8)
        others = np.abs(np.delete(c, 2))
        assert others.max() < 1e-8

    def test_interval_below_the_mirror_rejected(self, basis12):
        # the basis states vanish at x < 0; integrating their Airy
        # continuation there would be silently wrong
        with pytest.raises(DomainError, match="lo >= 0"):
            project_function(lambda x: np.exp(-x * x), basis12, -6.0, 4.0)

    @pytest.mark.parametrize("hi", [math.inf, math.nan])
    def test_nonfinite_interval_rejected(self, basis12, hi):
        with pytest.raises(DomainError, match="finite"):
            project_function(lambda x: np.exp(-x * x), basis12, 0.0, hi)

    @pytest.mark.parametrize("hi", [1e12, 1e308])
    def test_wide_interval_refused_before_allocating(self, basis12, hi):
        # [0, 1e12] once sized a quadrature of 4e11 panels (and 1e308 a count
        # that overflows a float); the table bound refuses both up front
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=r"needs \S+ panels for 12 states") as info:
                project_function(lambda x: np.exp(-x * x), basis12, 0.0, hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"[0.0, {hi!r}]" in str(info.value)
        assert peak < 2**20

    def test_projection_refines_from_two_panels(self, basis26, packet_state, monkeypatch):
        # two panels over the packet's [0, x0 + 9 sigma] cannot resolve
        # psi_n phi; the fixed rule refines no panel, so project_function
        # refuses rather than return coefficients off by more than its check
        monkeypatch.setattr(quantum, "_initial_panels", lambda span, x_top: 2)
        rescale = 1.0 / math.sqrt(1.0 - PACKET.clipped_mass())
        hi = PACKET.x0 + 9.0 * PACKET.sigma
        with pytest.raises(NumericalError, match="panel 1 of 2"):
            project_function(lambda x: rescale * PACKET.wavefunction(x), basis26, 0.0, hi)

    @staticmethod
    def _count_quadratures(monkeypatch):
        calls = []
        real = quantum.integrate_1d

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(quantum, "integrate_1d", counted)
        return calls

    def test_one_quadrature_per_projection(self, basis26, monkeypatch):
        # x0 < 9 sigma: the closed form covers the whole line, and one
        # vector-valued integrate_1d call takes back [x0 - 9 sigma, 0]
        calls = self._count_quadratures(monkeypatch)
        state = project_packet(PACKET, basis26)
        assert len(calls) == 1
        assert calls[0][1:3] == (PACKET.x0 - 9.0 * PACKET.sigma, 0.0)
        assert state.coefficients.shape == (basis26.n_max,)

    # packets whose window [x0 - 9 sigma, x0 + 9 sigma] crosses the mirror, from
    # the benchmark's input ranges: cli_readme (N = 26, x0 in [9, 11], sigma in
    # [1.35, 1.65]) and revival (N = 64, x0 in [20, 30], sigma in [1.5, 2.5]),
    # in natural and neutron units (x0 and sigma in l_g)
    @pytest.mark.parametrize("preset", ["natural", "neutron"])
    @pytest.mark.parametrize("n_max,x0s,sigmas", [
        (26, (9.0, 10.0, 11.0), (1.35, 1.5, 1.65)),
        (64, (20.0, 21.5, 22.4), (2.3, 2.4, 2.5)),
    ], ids=["cli_readme", "revival"])
    def test_mirror_correction_equals_oracle_bits(self, preset, n_max, x0s, sigmas, monkeypatch):
        # every mirror correction: the fixed rule and the adaptive oracle on the
        # same panels give the same bits, so the oracle refined no panel
        u = natural_units() if preset == "natural" else neutron_units()
        basis = build_basis(n_max, u)
        real = quantum.integrate_1d
        calls = []

        def both(f, a, b, panels):
            got = real(f, a, b, panels)
            want = quadrature_oracle.integrate(f, a, b, initial_panels=panels)
            assert got.tobytes() == want.tobytes()
            calls.append(panels)
            return got

        monkeypatch.setattr(quantum, "integrate_1d", both)
        for x0 in x0s:
            for sigma in sigmas:
                if x0 < 9.0 * sigma:
                    project_packet(PacketSpec(x0=x0 * u.l_g, sigma=sigma * u.l_g), basis)
        assert len(calls) == sum(x0 < 9.0 * sigma for x0 in x0s for sigma in sigmas) > 0

    def test_packet_clear_of_mirror_runs_no_quadrature(self, basis26, monkeypatch):
        # x0 >= 9 sigma: every coefficient is closed-form
        calls = self._count_quadratures(monkeypatch)
        state = project_packet(PacketSpec(x0=13.5, sigma=1.5), basis26)
        assert calls == []
        assert state.truncation_loss < 1e-6

    # x0 / sigma from the mirror-correction path (2.5, 4, 5.45, 8: x0 < 9 sigma)
    # to none (12.5); at N = 64, sigma = 10 and 6.25 (a = 25 and 9.8) are wide
    # enough that exp(2 a^3 / 3) alone overflows.  Measured gap <= 5.1e-16
    # (N = 26) and 2.1e-15 (N = 64, sigma = 10)
    @pytest.mark.parametrize("n_max,x0", [(26, 12.0), (64, 25.0)])
    @pytest.mark.parametrize("ratio", [2.5, 4.0, 5.45, 8.0, 12.5])
    def test_closed_form_matches_adaptive_oracle(self, units, n_max, x0, ratio, request):
        basis = request.getfixturevalue("basis26" if n_max == 26 else "basis64")
        packet = PacketSpec(x0=x0, sigma=x0 / ratio)
        state = project_packet(packet, basis)
        assert np.abs(state.coefficients - gaussian_projection(packet, basis)).max() < 6.5e-15

    @pytest.fixture(scope="class")
    def mp_basis(self):
        """First 64 zeros a_n = -x_n of Ai and slopes |Ai'(a_n)| from mpmath, 40 digits."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            zeros = [mpmath.airyaizero(n) for n in range(1, 65)]
            return mpmath, zeros, [abs(mpmath.airyai(z, derivative=1)) for z in zeros]

    @pytest.mark.parametrize("n_max", [26, 64])
    @pytest.mark.parametrize("sigma", [1.5, 2.0, 2.4])
    def test_closed_form_matches_mpmath(self, mp_basis, n_max, sigma, request):
        # the full-line closed form at 40 digits on mpmath's zeros; x0 >= 7 sigma
        # puts the part below the mirror under 1e-21; measured gap <= 7.8e-16
        mpmath, zeros, slopes = mp_basis
        basis = request.getfixturevalue("basis26" if n_max == 26 else "basis64")
        x0 = 7.0 * sigma if n_max == 26 else 25.0
        state = project_packet(PacketSpec(x0=x0, sigma=sigma), basis)
        with mpmath.workdps(40):
            a = mpmath.mpf(sigma) ** 2 / 4
            scale = (2 * mpmath.pi) ** 0.25 * mpmath.sqrt(sigma)
            exact = np.array([
                float(scale / slope * mpmath.exp(a * (x0 + z) + 2 * a**3 / 3) * mpmath.airyai(x0 + z + a * a))
                for z, slope in zip(zeros[:n_max], slopes[:n_max])
            ])
        assert np.abs(state.coefficients - exact).max() < 2.5e-15

    def test_coefficients_real(self, packet_state):
        assert np.abs(packet_state.coefficients.imag).max() < 1e-12

    def test_norm_recovery(self, packet_state):
        assert 1.0 - packet_state.truncation_loss >= 0.999

    def test_truncation_reported_not_hidden(self, packet_state):
        assert 0.0 <= packet_state.truncation_loss < 1e-6

    def test_insufficient_basis(self, basis12):
        with pytest.raises(InsufficientBasisError, match="n_max"):
            project_packet(PacketSpec(x0=10.0, sigma=0.8), basis12)

    def test_packet_too_close_to_mirror(self, basis12):
        with pytest.raises(DomainError, match="4 sigma"):
            project_packet(PacketSpec(x0=1.0, sigma=1.0), basis12)

    def test_packet_validation(self):
        with pytest.raises(DomainError):
            PacketSpec(x0=-1.0, sigma=1.0)
        with pytest.raises(DomainError):
            PacketSpec(x0=1.0, sigma=0.0)

    def test_packet_sigma_squared_underflow_rejected(self):
        # 1e-170 squares to 0.0, which the packet and its series divide by
        with pytest.raises(DomainError, match="sigma"):
            PacketSpec(x0=10.0, sigma=1e-170)
        assert PacketSpec(x0=10.0, sigma=1e-150).sigma == 1e-150
        assert PacketSpec(x0=10.0, sigma=math.inf).sigma == math.inf


class TestEvolution:
    def test_zero_duration_is_identity(self, packet_state):
        after = evolve(packet_state, 0.0)
        assert (after.coefficients == packet_state.coefficients).all()

    def test_eigenstate_gets_global_phase(self, basis12):
        c = np.zeros(basis12.n_max, dtype=complex)
        c[4] = 1.0
        state = SpectralState(basis12, c, 0.0)
        after = evolve(state, 2.31)
        assert abs(after.coefficients[4]) == pytest.approx(1.0, abs=1e-15)
        assert expectation_x(after) == pytest.approx(expectation_x(state), rel=1e-12)

    def test_unitary(self, packet_state):
        norm0 = np.sum(np.abs(packet_state.coefficients) ** 2)
        for t in (0.1, 3.0, 250.0):
            norm = np.sum(np.abs(evolve(packet_state, t).coefficients) ** 2)
            assert abs(norm - norm0) < 1e-14

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_coefficients_rejected(self, basis12, bad):
        c = np.zeros(basis12.n_max, dtype=complex)
        c[0] = bad
        with pytest.raises(NumericalError, match="not finite"):
            SpectralState(basis12, c, 0.0)

    def test_negative_duration_rejected(self, packet_state):
        with pytest.raises(DomainError):
            evolve(packet_state, -1.0)

    def test_batch_negative_duration_rejected(self, packet_state):
        for func in (expectation_x_evolution, variance_x_evolution):
            with pytest.raises(DomainError):
                func(packet_state, [0.0, -1.0])

    def test_batch_matches_pointwise(self, packet_state):
        # the real-form kernel against the complex form c^dagger X c with the
        # phases written out here; measured gaps 1.8e-15 (<x>) and 4.3e-14
        # (Var), imaginary residue 7.1e-15, at N = 26
        ts = np.array([0.0, 0.7, 5.3, 250.0])
        basis = packet_state.basis
        hbar = basis.units.hbar
        x2 = basis.x2_matrix()
        mean, second = [], []
        for t in ts:
            c = packet_state.coefficients * np.exp(-1j * basis.energies * t / hbar)
            for out, matrix in ((mean, basis.x_matrix), (second, x2)):
                val = np.conj(c) @ matrix @ c
                assert abs(val.imag) < 1e-12
                out.append(val.real)
        mean, second = np.array(mean), np.array(second)
        assert np.abs(expectation_x_evolution(packet_state, ts) - mean).max() < 1e-12
        assert np.abs(variance_x_evolution(packet_state, ts) - (second - mean**2)).max() < 2e-12


class TestPhaseTableReuse:
    """A state keeps the <x> and <x^2> rows of the last grid its observables
    were evolved over, matched to the next grid by value.  At N = 26 the
    101-row grid takes direct rows and the 1001-row one the NUFFT."""

    GRID = np.linspace(0.0, 50.0, 101)
    LONG = 0.05 * np.arange(1001)
    GRIDS = ((GRID, "direct"), (LONG, "kernel"))

    @pytest.fixture
    def built(self, monkeypatch):
        """(path, rows) of every row evaluation with rows, kernel or direct
        (a grid all at k h still hands an empty remainder to the direct rows)."""
        calls = []
        kernel, direct = quantum._uniform_rows, quantum._direct_rows

        def counting_kernel(s, count, h, out=None):
            calls.append(("kernel", count))
            return kernel(s, count, h, out)

        def counting_direct(s, t):
            if t.size:
                calls.append(("direct", t.size))
            return direct(s, t)

        monkeypatch.setattr(quantum, "_uniform_rows", counting_kernel)
        monkeypatch.setattr(quantum, "_direct_rows", counting_direct)
        return calls

    @staticmethod
    def fresh(state):
        return SpectralState(state.basis, state.coefficients, state.time)

    def test_mean_then_variance_builds_one_table(self, packet_state, built):
        for grid, path in self.GRIDS:
            built.clear()
            state = self.fresh(packet_state)
            expectation_x_evolution(state, grid)
            variance_x_evolution(state, grid.copy())  # equal values, another array
            assert built == [(path, grid.size)]

    def test_repeated_call_matches_fresh_state(self, packet_state):
        for grid, _ in self.GRIDS:
            state = self.fresh(packet_state)
            for _ in range(2):
                mean = expectation_x_evolution(state, grid)
                var = variance_x_evolution(state, grid)
            assert np.array_equal(mean, expectation_x_evolution(self.fresh(packet_state), grid))
            assert np.array_equal(var, variance_x_evolution(self.fresh(packet_state), grid))

    def test_times_changed_in_place_are_seen(self, packet_state):
        for grid, _ in self.GRIDS:
            state = self.fresh(packet_state)
            times = grid.copy()
            before = expectation_x_evolution(state, times)
            times *= 2.0
            after = expectation_x_evolution(state, times)
            assert np.array_equal(after, expectation_x_evolution(self.fresh(packet_state), times))
            assert not np.array_equal(after, before)

    def test_second_grid_replaces_kept_one(self, packet_state, built):
        state = self.fresh(packet_state)
        other = np.linspace(0.0, 5.0, 11)
        for times in (self.GRID, other, other, self.LONG, self.LONG, self.GRID):
            expectation_x_evolution(state, times)
        assert built == [("direct", self.GRID.size), ("direct", other.size),
                         ("kernel", self.LONG.size), ("direct", self.GRID.size)]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_bad_times_rejected_after_valid_grid(self, packet_state, bad):
        for grid, _ in self.GRIDS:
            state = self.fresh(packet_state)
            expectation_x_evolution(state, grid)
            times = grid.copy()
            times[-1] = bad
            for func in (expectation_x_evolution, variance_x_evolution):
                with pytest.raises(DomainError, match="finite and >= 0"):
                    func(state, times)

    def test_scalar_observables_leave_kept_table(self, packet_state, built):
        # the scalars are the evolution at duration 0, each from its own
        # one-row direct evaluation, and leave the kept rows alone
        at_zero = self.fresh(packet_state)
        want = expectation_x_evolution(at_zero, [0.0])[0], variance_x_evolution(at_zero, [0.0])[0]
        for grid, path in self.GRIDS:
            state = self.fresh(packet_state)
            built.clear()
            expectation_x_evolution(state, grid)
            kept = state._rows
            assert (expectation_x(state), variance_x(state)) == want
            variance_x_evolution(state, grid)
            assert state._rows is kept
            assert built == [(path, grid.size), ("direct", 1), ("direct", 1)]

    def test_variance_reuses_kept_mean(self, packet_state, monkeypatch):
        # after <x>, Var(x) on an equal grid evaluates no row at all
        def refuse(*args):
            raise AssertionError("rows evaluated again")

        for grid, _ in self.GRIDS:
            state = self.fresh(packet_state)
            expectation_x_evolution(state, grid)
            for name in ("_uniform_rows", "_direct_rows"):
                monkeypatch.setattr(quantum, name, refuse)
            var = variance_x_evolution(state, grid.copy())
            monkeypatch.undo()
            assert np.array_equal(var, variance_x_evolution(self.fresh(packet_state), grid))

    def test_returned_rows_are_copies(self, packet_state):
        for grid, _ in self.GRIDS:
            state = self.fresh(packet_state)
            mean = expectation_x_evolution(state, grid)
            var = variance_x_evolution(state, grid)
            mean[:] = var[:] = 0.0
            fresh = self.fresh(packet_state)
            assert np.array_equal(expectation_x_evolution(state, grid),
                                  expectation_x_evolution(fresh, grid))
            assert np.array_equal(variance_x_evolution(state, grid),
                                  variance_x_evolution(fresh, grid))


def grid_rows(state, times):
    """<x> and <x^2> rows of a fresh copy of state over times, the rows that
    expectation_x_evolution and variance_x_evolution read."""
    fresh = SpectralState(state.basis, state.coefficients, state.time)
    return quantum._kept_rows(fresh, times).copy()


def direct_table(state, times):
    """Reference phase table, every row from its own exp: c_n exp(-i E_n t / hbar)."""
    basis = state.basis
    arg = np.outer(np.asarray(times, dtype=float) / basis.units.hbar, basis.energies)
    return np.exp(-1j * arg) * state.coefficients


def direct_rows(state, times):
    """Reference rows <x> and <x^2> of direct_table: the real forms
    a^T M a + b^T M b of each row a + ib, with a and b stacked as two
    contiguous planes (BLAS rounds a one-row product apart from a stacked one)."""
    table = direct_table(state, times)
    planes = np.array([table.real, table.imag])
    return np.array([np.einsum("pti,pti->t", planes @ m, planes)
                     for m in (state.basis.x_matrix, state.basis.x2_matrix())])


def relative_gap(rows, want):
    """Largest gap of each row from want, relative to that row's largest value."""
    return (np.abs(rows - want).max(axis=1) / np.abs(want).max(axis=1)).max()


class TestBlockedPhaseTable:
    """Rows up to a grid's last at exactly k h (h = t_1) come from one NUFFT
    over the state pairs (quantum._uniform_rows) when that takes fewer
    exponentials than direct rows; every other row takes its own exp."""

    def test_uniform_grid_takes_blocked_exponentials(self, packet_state, monkeypatch):
        # the kernel takes one exp per pair for its phase at K0 h, 2 _SPREAD
        # Gaussian weights per pair and one deconvolution factor per row, the
        # direct rows N a row; at N = 26 the kernel wins from 430 rows on
        sizes = []
        real = np.exp

        def counting(x, *args, **kwargs):
            sizes.append(np.size(x))
            return real(x, *args, **kwargs)

        monkeypatch.setattr(quantum.np, "exp", counting)
        n = packet_state.basis.n_max
        for rows in (101, 429, 430, 1001):
            sizes.clear()
            expectation_x_evolution(SpectralState(packet_state.basis, packet_state.coefficients, 0.0),
                                    0.5 * np.arange(rows))
            kernel = n * (n - 1) // 2 * (1 + 2 * quantum._SPREAD) + rows
            assert sum(sizes) == min(kernel, n * rows)
            assert (sizes == [n * rows]) == (rows <= 429)  # direct rows: one exp call

    @pytest.mark.parametrize("grid", [0.05 * np.arange(1001), np.linspace(0.0, 1000.0, 20001)])
    def test_uniform_grid_matches_direct_table(self, packet_state, grid):
        # the direct rows round the phase E t (to 2.5e4 rad here), the kernel
        # omega h per pair; measured 1.5e-14 / 4.4e-13 (<x>) and 1.8e-14 /
        # 5.6e-13 (<x^2>) at 1.2e3 and 2.5e4 rad
        bound = 4 * EPS * max(1.0, grid[-1] * packet_state.basis.energies[-1])
        assert relative_gap(grid_rows(packet_state, grid), direct_rows(packet_state, grid)) <= bound

    @pytest.mark.parametrize("grid", [
        np.array([0.0, 0.3, 1.1, 2.0, 7.5, 250.0]),
        np.array([0.0, 0.0, 1.0, 2.0]),
        np.array([2.5, 2.5, 0.0]),
    ])
    def test_non_uniform_grid_is_the_direct_table(self, packet_state, grid):
        # a k h prefix of a few rows is too short for the kernel
        assert np.array_equal(grid_rows(packet_state, grid), direct_rows(packet_state, grid))

    def test_mixed_grid(self, packet_state):
        h = 0.05
        # rows 0-3 are k h, too few for the kernel: every row is direct
        grid = np.array([0.0, h, 2 * h, 3 * h, 0.7, 250.0])
        assert np.array_equal(grid_rows(packet_state, grid), direct_rows(packet_state, grid))
        # a 600-row k h prefix takes the kernel, the two rows after it are
        # direct; measured 9.2e-15 against direct rows at phases to 1.5e3 rad
        grid = np.append(h * np.arange(600), [0.7, 250.0])
        rows = grid_rows(packet_state, grid)
        assert np.array_equal(rows[:, 600:], direct_rows(packet_state, grid[600:]))
        bound = 4 * EPS * grid[599] * packet_state.basis.energies[-1]
        assert relative_gap(rows[:, :600], direct_rows(packet_state, grid[:600])) <= bound

    @pytest.mark.parametrize("t", [0.0, 3.7])
    def test_one_row_grid(self, packet_state, t):
        assert np.array_equal(grid_rows(packet_state, [t]), direct_rows(packet_state, [t]))
        assert np.array_equal(evolve(packet_state, t).coefficients, direct_table(packet_state, [t])[0])

    def test_empty_grid(self, packet_state):
        fresh = SpectralState(packet_state.basis, packet_state.coefficients, 0.0)
        assert expectation_x_evolution(fresh, []).shape == variance_x_evolution(fresh, []).shape == (0,)
        assert quantum._uniform_rows(fresh, 0, 0.0).shape == (2, 0)

    def test_all_zero_grid(self, packet_state):
        # h = 0 and seven rows, too few for the kernel: direct rows of a table
        # whose every row is the coefficients themselves
        table = direct_table(packet_state, np.zeros(7))
        assert (table == packet_state.coefficients).all()
        assert np.array_equal(grid_rows(packet_state, np.zeros(7)), direct_rows(packet_state, np.zeros(7)))

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 7, 16, 33, 401])
    def test_short_grids(self, packet_state, count):
        # the kernel stays exact on grids too short to be chosen for;
        # measured <= 4.1e-15 (count 401), against phases to 20 rad
        h = 0.05
        rows = quantum._uniform_rows(packet_state, count, h)
        assert relative_gap(rows, direct_rows(packet_state, h * np.arange(count))) <= 1e-14

    @pytest.mark.parametrize("count", [700, 701, 1024, 1025, 1100, 1101])
    def test_negative_frequencies_fold_on_every_circle(self, packet_state, count):
        # circles of 3 2^9, 2^11 and 5 2^9 points, each under an even and an
        # odd count (K0 = count // 2 centres the rows); the real transform
        # pairs circle point k with -k, its own partner at k = 0 and size/2.
        # Held to the direct rows with the bound of the long uniform grids;
        # measured <= 2.2e-14 (<x>) and 2.7e-14 (<x^2>), bounds >= 7.6e-13
        h = 0.05
        rows = quantum._uniform_rows(packet_state, count, h)
        bound = 4 * EPS * max(1.0, (count - 1) * h * packet_state.basis.energies[-1])
        assert relative_gap(rows, direct_rows(packet_state, h * np.arange(count))) <= bound

    def test_zero_step(self, packet_state):
        rows = quantum._uniform_rows(packet_state, 7, 0.0)
        assert relative_gap(rows, direct_rows(packet_state, np.zeros(7))) <= 1e-14

    def test_units_with_hbar_not_one(self, neutron_basis):
        u = neutron_basis.units
        assert u.hbar != 1.0
        state = project_packet(PacketSpec(x0=10.0 * u.l_g, sigma=1.5 * u.l_g), neutron_basis)
        grid = 0.05 * u.t_g * np.arange(2001)
        # measured 3.0e-14 (<x>) and 3.9e-14 (<x^2>) of each row's maximum
        assert relative_gap(grid_rows(state, grid), direct_rows(state, grid)) <= 1e-12

    def test_long_grid_keeps_o_t_memory(self, basis64):
        # a (2, T, N) phase table of 200 001 times at N = 64 alone would take
        # 205 MB; measured peak 39.5 MB, and the state keeps 3 T floats
        state = project_packet(PacketSpec(x0=25.0, sigma=2.0), basis64)
        grid = 0.05 * np.arange(200_001)
        basis64.x2_matrix()
        tracemalloc.start()
        try:
            mean = expectation_x_evolution(state, grid)
            var = variance_x_evolution(state, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert sum(a.nbytes for a in state._rows) == 3 * 8 * grid.size
        assert np.isfinite(mean).all() and (var > 0).all()


class TestKernelWorkspace:
    """The NUFFT kernel keeps its pair buffers and Hermitian half on the basis,
    for the last circle only, and reuses them on the next call; no output bit
    depends on what an earlier call left there."""

    REVIVAL = PacketSpec(x0=25.0, sigma=2.0)

    @classmethod
    def rows_on(cls, basis, grid):
        """<x> and <x^2> rows of the revival packet over grid, by the kernel."""
        return grid_rows(project_packet(cls.REVIVAL, basis), grid)

    def test_second_call_reuses_buffers(self, units):
        basis = build_basis(64, units)
        grid = 0.05 * np.arange(3001)
        first = self.rows_on(basis, grid)
        kept = basis.__dict__["_kernel"]
        second = self.rows_on(basis, grid)
        assert basis.__dict__["_kernel"] is kept
        assert np.array_equal(first, second)
        assert np.array_equal(second, self.rows_on(build_basis(64, units), grid))

    @pytest.mark.parametrize("n, counts", [(64, (3001, 1201, 3001)), (120, (4001, 2501, 4001))])
    def test_new_grid_length_replaces_workspace(self, units, n, counts):
        # at N = 120 the 7140 pairs take two blocks of _PAIR_BLOCK
        basis = build_basis(n, units)
        shapes = []
        for count in counts:
            grid = 0.05 * np.arange(count)
            rows = self.rows_on(basis, grid)
            shapes.append(basis.__dict__["_kernel"][0])
            assert np.array_equal(rows, self.rows_on(build_basis(n, units), grid))
        assert shapes[0] == shapes[2] != shapes[1]
        assert shapes[0][1] == min(n * (n - 1) // 2, quantum._PAIR_BLOCK)

    def test_overlapping_call_takes_its_own_buffers(self, units, monkeypatch):
        # a second call on the basis, made while the first is between its
        # Hermitian half and its transforms, must not write into the first's
        basis = build_basis(64, units)
        grid = 0.05 * np.arange(3001)
        other = PacketSpec(x0=21.0, sigma=1.5)
        fresh = build_basis(64, units)
        want, want_other = self.rows_on(fresh, grid), grid_rows(project_packet(other, fresh), grid)
        inner, real = [], np.fft.irfft

        def irfft(*args, **kwargs):
            if not inner:
                inner.append(None)  # the inner call's own transforms go straight through
                inner.append(grid_rows(project_packet(other, basis), grid))
            return real(*args, **kwargs)

        self.rows_on(basis, grid)  # leaves a workspace of this shape on the basis
        monkeypatch.setattr(np.fft, "irfft", irfft)
        assert np.array_equal(self.rows_on(basis, grid), want)
        assert np.array_equal(inner[1], want_other)

    def test_concurrent_calls_match_serial(self, units):
        basis = build_basis(64, units)
        calls = [(PacketSpec(x0=20.0 + k % 5, sigma=2.0), 0.05 * np.arange((1201, 2001, 3001)[k % 3]),
                  (expectation_x_evolution, variance_x_evolution)[k % 2]) for k in range(20)]

        def run(call):
            packet, grid, func = call
            return func(project_packet(packet, basis), grid)

        serial = [run(call) for call in calls]
        with ThreadPoolExecutor(max_workers=2) as pool:
            concurrent = list(pool.map(run, calls))
        assert all(np.array_equal(a, b) for a, b in zip(serial, concurrent))


@pytest.fixture(scope="module")
def basis64(units):
    return build_basis(64, units)


class TestPhaseOracle:
    """<x> on the revival grid (100 bounce periods, 20 001 times, N = 64)
    against the exact phases exp(-i E_n t_k) of the double E_n and t_k,
    evaluated by mpmath at 40 digits."""

    ROWS = [1000, 5003, 7919, 12345, 17777, 19999, 20000]

    @staticmethod
    def exact_mean(mpmath, state, times):
        basis = state.basis
        out = []
        for t in times:
            c = np.array([
                complex(mpmath.mpc(cn.real, cn.imag) * mpmath.expj(-mpmath.mpf(e) * mpmath.mpf(t)))
                for cn, e in zip(state.coefficients, basis.energies)
            ])
            out.append((np.conj(c) @ basis.x_matrix @ c).real)
        return np.array(out)

    @pytest.mark.parametrize("x0", [20.0, 30.0])
    def test_both_row_kinds_match_exact_phases(self, basis64, x0):
        mpmath = pytest.importorskip("mpmath")
        state = project_packet(PacketSpec(x0=x0, sigma=2.0), basis64)
        grid = np.linspace(0.0, 100 * 2.0 * math.sqrt(x0), 20001)
        rows = np.array(self.ROWS)
        assert (grid[rows] == rows * grid[1]).all()  # kernel rows in the full grid
        with mpmath.workdps(40):
            exact = self.exact_mean(mpmath, state, grid[rows])
        uniform = expectation_x_evolution(state, grid)
        # the sampled times alone are no long uniform grid: each row takes its own exp
        direct = expectation_x_evolution(state, grid[rows])
        # measured 9.8e-14 / 1.9e-13 kernel and 4.7e-12 / 8.9e-12 direct
        # (x0 = 20 / 30): the direct rows round phases E t up to 4.5e4 rad
        assert np.abs(uniform[rows] - exact).max() <= 5e-13
        assert np.abs(direct - exact).max() <= 1e-11
        # the whole grid against the direct rows, relative to each column's
        # maximum; measured 8.0e-13 / 9.0e-13 (<x>) and 9.4e-13 / 1.0e-12 (Var)
        mean, second = direct_rows(state, grid)
        var = second - mean**2
        assert np.abs(uniform - mean).max() <= 5e-12 * np.abs(mean).max()
        assert np.abs(variance_x_evolution(state, grid) - var).max() <= 5e-12 * np.abs(var).max()


class TestObservables:
    def test_eigenstate_mean_is_stationary(self, basis12, units):
        c = np.zeros(basis12.n_max, dtype=complex)
        c[2] = 1.0
        state = SpectralState(basis12, c, 0.0)
        want = 2.0 / 3.0 * basis12.zeros[2] * units.l_g
        for t in (0.0, 1.7, 19.0):
            assert expectation_x(evolve(state, t)) == pytest.approx(want, rel=1e-9)

    def test_initial_packet_mean(self, packet_state):
        assert expectation_x(packet_state) == pytest.approx(PACKET.x0, rel=1e-2)
        # with this basis the truncation bias is far smaller than the contract
        assert expectation_x(packet_state) == pytest.approx(PACKET.x0, rel=1e-6)

    def test_initial_packet_variance(self, packet_state):
        assert variance_x(packet_state) == pytest.approx(PACKET.sigma**2 / 4, rel=1e-4)

    def test_eigenstate_variance_constant(self, basis12):
        c = np.zeros(basis12.n_max, dtype=complex)
        c[1] = 1.0
        state = SpectralState(basis12, c, 0.0)
        v0 = variance_x(state)
        assert v0 > 0
        assert variance_x(evolve(state, 4.2)) == pytest.approx(v0, rel=1e-10)

    def test_negative_variance_raises(self, basis12, monkeypatch):
        # a second-moment matrix of zero makes Var(x) = -<x>^2; the time-array
        # path must refuse it like the scalar path does
        c = np.zeros(basis12.n_max, dtype=complex)
        c[0] = 1.0
        state = SpectralState(basis12, c, 0.0)
        monkeypatch.setattr(basis12, "x2_matrix", lambda: np.zeros_like(basis12.x_matrix))
        with pytest.raises(NumericalError, match="negative"):
            variance_x(state)
        with pytest.raises(NumericalError, match="negative"):
            variance_x_evolution(state, [0.0, 1.0])

    def test_long_time_average(self, packet_state):
        # the time average tends to the diagonal (microcanonical) mean,
        # (2/3)(x0 + <p^2>) in natural units; a few percent above (2/3) x0
        ts = np.linspace(0.0, 300.0, 30001)
        mean = expectation_x_evolution(packet_state, ts).mean()
        p2 = 1.0 / PACKET.sigma**2  # hbar^2 / (4 * sigma^2/4)
        assert mean == pytest.approx(2.0 / 3.0 * (PACKET.x0 + p2), rel=5e-3)
        assert mean == pytest.approx(2.0 / 3.0 * PACKET.x0, rel=0.05)

    def test_mirror_amplitude_stays_small(self, packet_state):
        # Dirichlet wall: the reconstructed packet never leaks onto x = 0
        peak = np.abs(reconstruct(packet_state, np.linspace(0, 25, 400))).max()
        for t in (0.0, 2.5, 40.0):
            val = abs(reconstruct(evolve(packet_state, t), [0.0])[0])
            assert val < 1e-3 * peak

    def test_reconstruction_vanishes_below_mirror(self, packet_state):
        # the expansion is a half-line wave function: 0 at x < 0, where the
        # Airy continuation of each state is not
        xs = np.array([-3.0, -1e-9, 0.5, 10.0])
        psi = reconstruct(evolve(packet_state, 2.5), xs)
        assert (psi[:2] == 0.0).all() and (np.abs(psi[2:]) > 0.0).all()

    def test_revival_fidelity(self, packet_state):
        # dephasing is not a loss: around the first revival (half the
        # quadratic-dephasing time 4*pi/|E''(n_bar)|, ~130 t_g here) the
        # overlap with the initial state climbs back above 0.9
        c2 = packet_state.coefficients**2
        ts = np.linspace(100.0, 160.0, 3001)
        energies = packet_state.basis.energies
        overlaps = np.abs(np.exp(-1j * np.outer(ts, energies)) @ c2)
        assert overlaps.max() > 0.9


class TestSeries:
    def test_reduces_to_classical_fourier(self):
        # sigma = inf leaves the undamped series of the bounce with g = 2
        # (T = sqrt(x0)); its sup distance from the folded parabola is the
        # exact truncation sup, reached at the contact t = T on this grid;
        # measured relative gap <= 4e-14
        for x0, n_terms in ((9.0, 150), (25.0, 200), (1.0, 200)):
            packet = PacketSpec(x0=x0, sigma=math.inf)
            T = math.sqrt(x0)
            ts = np.linspace(0.0, 4.0 * T, 4001)
            assert ts[1000] == T
            fold = bounce_trajectory(BounceSpec(x0, 2.0), ts)
            dev = np.abs(expectation_x_series(packet, ts, n_terms) - fold).max()
            assert dev / truncation_sup(x0, n_terms) == pytest.approx(1.0, abs=1e-9)

    def test_single_term_by_hand(self):
        x0 = 10.0
        sigma2 = math.pi**2 * x0 / (2.0 * math.log(2.0))  # damping factor 1/2 at n=1
        packet = PacketSpec(x0=x0, sigma=math.sqrt(sigma2))
        want = 2.0 / 3.0 * x0 + 4.0 * x0 / math.pi**2 * 0.5
        assert expectation_x_series(packet, 0.0, 1) == pytest.approx(want, rel=1e-13)

    def test_damped_mean_is_two_thirds(self):
        # strong damping removes the oscillation entirely
        packet = PacketSpec(x0=25.0, sigma=2.0)
        ts = np.linspace(0.0, 40.0, 300)
        vals = expectation_x_series(packet, ts, 100)
        assert np.abs(vals - 2.0 / 3.0 * 25.0).max() < 1e-4 * 25.0

    @pytest.mark.parametrize(
        "exponent,n_terms",
        [(1e-4, 20), (1e-6, 200)],
    )
    def test_semiclassical_limit(self, exponent, n_terms):
        # damping exponent pi^2 x0 / (2 sigma^2) <= 1e-4 keeps the truncated
        # series within 1e-3 * x0 of the classical one everywhere
        x0 = 10.0
        sigma = math.sqrt(math.pi**2 * x0 / (2.0 * exponent))
        packet = PacketSpec(x0=x0, sigma=sigma)
        ts = np.linspace(0.0, 4.0 * math.sqrt(x0), 4001)  # includes contact kinks
        dev = np.abs(
            expectation_x_series(packet, ts, n_terms)
            - bounce_fourier(BounceSpec(x0=packet.x0, g=2.0), ts, n_terms)
        ).max()
        assert dev <= 1e-3 * x0

    @pytest.mark.parametrize(
        "x0,T,n_terms,damping",
        [
            (9.0, 3.0, 20, 0.0),
            (25.0, 5.0, 200, math.pi**2 * 25.0 / (2.0 * 2.0**2)),  # revival packet: 4 nonzero terms
            (2.0, math.sqrt(2.0 * 2.0 / 9.81), 200, 0.0),  # bounce_fourier's SI bounce
            (25.0, 5.0, 200, 800.0),  # every weight underflows
        ],
        ids=["undamped-20", "revival", "undamped-200", "all-underflow"],
    )
    def test_series_stops_only_at_zero_weights(self, x0, T, n_terms, damping):
        # the kernel drops the terms whose weight exp(-damping n^2) is 0.0;
        # against the full sum in 40-digit mpmath, on 81 points of [0, 8T]
        # that hold every contact t = kT, the error is <= 7.7 eps x0 (<= 11.8
        # on every 5th point of the same grid)
        ts = np.linspace(0.0, 8.0 * T, 2001)[::25]
        got = _bounce_series(x0, T, ts, n_terms, damping)
        if damping > 745.0:
            assert (got == (2.0 / 3.0) * x0).all()
        else:
            want = _series_mpmath(x0, T, ts, n_terms, damping)
            assert np.abs(got - want).max() <= 32 * EPS * x0

    def test_series_next_to_contact_kink(self):
        # the recurrence loses most where cos(pi t/T) is near -1, at the
        # contact t = T; measured <= 16.6 eps against 40-digit mpmath
        ts = 1.0 + 0.0025 * np.arange(-40, 41)
        got = _bounce_series(1.0, 1.0, ts, 200)
        assert np.abs(got - _series_mpmath(1.0, 1.0, ts, 200, 0.0)).max() <= 64 * EPS

    @pytest.mark.parametrize("n_terms", [20, 200, 2000])
    def test_one_cos_per_call(self, n_terms, monkeypatch):
        # one cos(pi t/T) per time, however many terms the series has
        sizes = []
        real = classical.np.cos

        def counted(x, *args, **kwargs):
            sizes.append(np.size(x))
            return real(x, *args, **kwargs)

        monkeypatch.setattr(classical.np, "cos", counted)
        _bounce_series(9.0, 3.0, np.linspace(0.0, 30.0, 401), n_terms)
        assert sizes == [401]

    def test_invalid_args(self):
        with pytest.raises(DomainError):
            expectation_x_series(PACKET, 0.0, 0)
        with pytest.raises(DomainError):
            expectation_x_series(PACKET, -1.0, 5)

    def test_overflowing_amplitude_rejected(self):
        # every weight underflows, and 4 x0/pi^2 = inf times the zero sum was
        # once a numpy invalid-value warning and nan
        with pytest.raises(DomainError, match="overflows the series amplitude"):
            expectation_x_series(PacketSpec(5e307, 1e100), [0.0, 1.0], 5)

    def test_classical_limit_of_huge_packet(self):
        # pi^2 x0 overflows, and inf / sigma^2 = inf / inf made the damping
        # nan; sigma = inf is undamped: the bounce series with g = 2
        packet = PacketSpec(3e307, math.inf)
        got = expectation_x_series(packet, [0.0, 1e150], 5)
        want = bounce_fourier(BounceSpec(3e307, 2.0), [0.0, 1e150], 5)
        assert np.isfinite(got).all() and np.array_equal(got, want)


@pytest.fixture(scope="module")
def neutron_basis():
    from qbouncer.scaling import natural_units, neutron_units

    return build_basis(18, neutron_units())


class TestPhysicalUnits:
    """The l_g = 1 of natural units can mask scaling slips; rerun the core
    pipeline with the SI neutron scales."""

    def test_eigenstate_projection(self, neutron_basis):
        u = neutron_basis.units
        hi = (neutron_basis.zeros[-1] + 12.0) * u.l_g
        state = project_function(
            lambda x: neutron_basis.eigenfunction(2, x), neutron_basis, 0.0, hi
        )
        assert abs(state.coefficients[1]) == pytest.approx(1.0, abs=1e-8)

    def test_packet_matches_adaptive_oracle(self, neutron_basis):
        # closed form and mirror correction in SI lengths; measured gap 6.8e-16
        u = neutron_basis.units
        packet = PacketSpec(x0=10.0 * u.l_g, sigma=1.5 * u.l_g)
        state = project_packet(packet, neutron_basis)
        assert np.abs(state.coefficients - gaussian_projection(packet, neutron_basis)).max() < 2e-15

    def test_packet_observables(self, neutron_basis):
        u = neutron_basis.units
        packet = PacketSpec(x0=10.0 * u.l_g, sigma=1.5 * u.l_g)
        state = project_packet(packet, neutron_basis)
        assert state.truncation_loss < 1e-3
        assert expectation_x(state) == pytest.approx(packet.x0, rel=1e-4)
        assert variance_x(state) == pytest.approx(packet.sigma**2 / 4, rel=1e-2)
        # one bounce period in SI time
        period = 2.0 * math.sqrt(2.0 * packet.x0 / u.g)
        xt = expectation_x_evolution(state, np.array([0.0, period]))
        assert xt[1] == pytest.approx(xt[0], rel=0.05)
