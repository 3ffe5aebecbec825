"""Airy eigenbasis, packet projection, spectral evolution, observables."""

import math

import numpy as np
import pytest

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
from quadrature_oracle import overlap_matrix, weighted_matrix
from series_tail import truncation_sup

PACKET = PacketSpec(x0=10.0, sigma=1.5)


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

    def test_large_basis_matches_mpmath(self, units):
        # N = 400 builds (every norm passes the quadrature check) and its zeros
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

    def test_one_quadrature_per_projection(self, basis26, monkeypatch):
        # every coefficient comes from a single vector-valued integrate_1d call
        calls = []
        real = quantum.integrate_1d

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(quantum, "integrate_1d", counted)
        state = project_packet(PACKET, basis26)
        assert len(calls) == 1
        assert state.coefficients.shape == (basis26.n_max,)

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
    """A state keeps the phase table of the last grid its observables were
    evolved over, matched to the next grid by value."""

    GRID = np.linspace(0.0, 50.0, 101)

    @pytest.fixture
    def built(self, monkeypatch):
        sizes = []
        real = quantum._phase_table

        def counting(s, times):
            sizes.append(np.size(times))
            return real(s, times)

        monkeypatch.setattr(quantum, "_phase_table", counting)
        return sizes

    @staticmethod
    def fresh(state):
        return SpectralState(state.basis, state.coefficients, state.time)

    def test_mean_then_variance_builds_one_table(self, packet_state, built):
        state = self.fresh(packet_state)
        expectation_x_evolution(state, self.GRID)
        variance_x_evolution(state, self.GRID.copy())  # equal values, another array
        assert built == [self.GRID.size]

    def test_repeated_call_matches_fresh_state(self, packet_state):
        state = self.fresh(packet_state)
        for _ in range(2):
            mean = expectation_x_evolution(state, self.GRID)
            var = variance_x_evolution(state, self.GRID)
        assert np.array_equal(mean, expectation_x_evolution(self.fresh(packet_state), self.GRID))
        assert np.array_equal(var, variance_x_evolution(self.fresh(packet_state), self.GRID))

    def test_times_changed_in_place_are_seen(self, packet_state):
        state = self.fresh(packet_state)
        times = self.GRID.copy()
        before = expectation_x_evolution(state, times)
        times *= 2.0
        after = expectation_x_evolution(state, times)
        assert np.array_equal(after, expectation_x_evolution(self.fresh(packet_state), times))
        assert not np.array_equal(after, before)

    def test_second_grid_replaces_kept_one(self, packet_state, built):
        state = self.fresh(packet_state)
        other = np.linspace(0.0, 5.0, 11)
        for times in (self.GRID, other, other, self.GRID):
            expectation_x_evolution(state, times)
        assert built == [self.GRID.size, other.size, self.GRID.size]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_bad_times_rejected_after_valid_grid(self, packet_state, bad):
        state = self.fresh(packet_state)
        expectation_x_evolution(state, self.GRID)
        times = self.GRID.copy()
        times[-1] = bad
        for func in (expectation_x_evolution, variance_x_evolution):
            with pytest.raises(DomainError, match="finite and >= 0"):
                func(state, times)


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
        # the kernel skips the terms whose weight exp(-damping n^2) is 0.0;
        # the full sum over every term must give the same bits
        ts = np.linspace(0.0, 8.0 * T, 2001)
        acc = np.zeros_like(ts)
        for n in range(1, n_terms + 1):
            sign = 1.0 if n % 2 else -1.0
            acc += sign / (n * n) * math.exp(-damping * n * n) * np.cos((math.pi * n / T) * ts)
        full = (2.0 / 3.0) * x0 + (4.0 * x0 / math.pi**2) * acc
        got = _bounce_series(x0, T, ts, n_terms, damping)
        assert np.array_equal(got, full)
        if damping > 745.0:
            assert (got == (2.0 / 3.0) * x0).all()

    def test_invalid_args(self):
        with pytest.raises(DomainError):
            expectation_x_series(PACKET, 0.0, 0)
        with pytest.raises(DomainError):
            expectation_x_series(PACKET, -1.0, 5)


@pytest.fixture(scope="module")
def neutron_basis():
    from qbouncer.scaling import neutron_units

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
