"""The benchmark's workloads: seeded inputs, shared preparation, ops, and
the oracle check of every op's output.

Each workload exposes
    generate(rng) -> params      inputs drawn from the seed (JSON-serialisable)
    prepare(pkg, params, workdir) -> state
                                 shared preparation, timed as part of setup
    ops(pkg, params, state) -> [(label, fn)]
                                 one round: the fixed op set the run repeats
    check(state, label, output) -> [problem, ...]
                                 oracle check; an empty list means correct

Workload code reaches the package only through module attributes looked up at
call time (pkg.quantum.build_basis, ...), so the traced run can wrap them.
"""

from __future__ import annotations

import math
import os

import numpy as np

import oracles

# Every check allows a margin of at least 3x over the deviations measured at
# the commit the benchmark was defined on (noted beside each tolerance).


class Revival:
    """N = 64 collapse and revival: one basis shared by a handful of packets."""

    name = "revival"
    why = ("shared N=64 basis (setup) and O(T*N^2) spectral evolution of <x>, Var(x) "
           "and the series on 20001 times; never touches moments or cli")
    n_max = 64
    packets = 4
    n_times = 20001
    periods = 100
    n_terms = 200

    def generate(self, rng):
        return {"packets": [
            {"x0": float(rng.uniform(20.0, 30.0)), "sigma": float(rng.uniform(1.5, 2.5))}
            for _ in range(self.packets)
        ]}

    def prepare(self, pkg, params, workdir):
        basis = pkg.quantum.build_basis(self.n_max, pkg.scaling.natural_units())
        basis.x2_matrix()
        return {"basis": basis}

    def ops(self, pkg, params, state):
        def op(x0, sigma):
            # 100 classical bounce periods 2*sqrt(x0) in gravitational units.
            times = np.linspace(0.0, self.periods * 2.0 * math.sqrt(x0), self.n_times)
            packet = pkg.quantum.PacketSpec(x0=x0, sigma=sigma)
            s = pkg.quantum.project_packet(packet, state["basis"])
            mean = pkg.quantum.expectation_x_evolution(s, times)
            var = pkg.quantum.variance_x_evolution(s, times)
            series = pkg.quantum.expectation_x_series(packet, times, self.n_terms)
            return x0, sigma, mean, var, series

        return [(f"packet{i}", lambda p=p: op(p["x0"], p["sigma"]))
                for i, p in enumerate(params["packets"])]

    def check(self, state, label, output):
        x0, sigma, mean, var, series = output
        problems = []
        if not all(np.isfinite(a).all() for a in (mean, var, series)):
            return ["non-finite output"]
        # measured: |<x>(0) - x0| <= 3e-7 (truncation loss up to 9e-9)
        if abs(mean[0] - x0) > 1e-6:
            problems.append(f"<x>(0) = {mean[0]!r}, expected x0 = {x0!r}")
        # measured: relative deviation <= 1.6e-5
        if abs(var[0] / (sigma * sigma / 4.0) - 1.0) > 1e-4:
            problems.append(f"Var(0) = {var[0]!r}, expected sigma^2/4 = {sigma * sigma / 4.0!r}")
        if var.min() <= 0.0:
            problems.append(f"Var(x) reaches {var.min()!r} <= 0")
        # measured: relative deviation <= 4.1e-4 over 100 periods
        target = oracles.virial_mean_height(x0, sigma)
        if abs(mean.mean() / target - 1.0) > 2e-3:
            problems.append(f"long-time mean {mean.mean()!r}, virial value {target!r}")
        bound = oracles.damped_series_bound(x0, sigma, self.n_terms) + 1e-12 * x0
        if np.abs(series - 2.0 * x0 / 3.0).max() > bound:
            problems.append(f"series leaves (2/3) x0 +- {bound:.3g}")
        return problems


def _csv(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.decode("utf-8").splitlines()
    rows = [[float(c) if c else None for c in line.split(",")] for line in lines[1:]]
    return raw, lines[0].split(","), rows


def _column(header, rows, name):
    i = header.index(name)
    return np.array([r[i] if r[i] is not None else np.nan for r in rows])


class CliReadme:
    """One pass of the five README commands through qbouncer.cli.main."""

    name = "cli_readme"
    why = ("five README CLI commands per op, each rebuilding its own N=26 basis and "
           "writing CSV: the quantum layer used unshared, plus cli, RK4 and series")
    # Natural units: m = 1/2, g = 2, hbar = 1, l_g = e_g = t_g = 1.
    m, g = 0.5, 2.0
    compare_sigma = 2.0  # the CLI's default packet width, used by the compare series

    def generate(self, rng):
        def jitter(v):
            return float(v * rng.uniform(0.9, 1.1))

        return {
            "classical_x0": jitter(1.0),
            "quantum_x0": jitter(10.0),
            "quantum_sigma": jitter(1.5),
            "moments_x0": jitter(2.0),
            "moments_alpha": jitter(1.0),
            "compare_x0": jitter(10.0),
            "compare_alpha": jitter(0.4277),
        }

    def _commands(self, params, workdir):
        p = {k: repr(v) for k, v in params.items()}
        cmds = {
            "spectrum": ["spectrum", "--nmax", "10"],
            "classical": ["classical", "--x0", p["classical_x0"], "--tend", "4", "--dt", "0.01"],
            "quantum": ["quantum", "--x0", p["quantum_x0"], "--sigma", p["quantum_sigma"],
                        "--nmax", "26", "--tend", "20", "--dt", "0.05"],
            "moments": ["moments", "--x0", p["moments_x0"], "--alpha", p["moments_alpha"],
                        "--tend", "5", "--dt", "0.01"],
            "compare": ["compare", "--x0", p["compare_x0"], "--alpha", p["compare_alpha"],
                        "--nmax", "0", "--tend", "12", "--dt", "0.05"],
        }
        return {k: argv + ["--out", os.path.join(workdir, k + ".csv")] for k, argv in cmds.items()}

    def prepare(self, pkg, params, workdir):
        return {"commands": self._commands(params, workdir), "params": params, "first": None}

    def ops(self, pkg, params, state):
        def one_pass():
            for kind, argv in state["commands"].items():
                code = pkg.cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"qbouncer {kind} exited with {code}")
            return {kind: argv[-1] for kind, argv in state["commands"].items()}

        return [("pass", one_pass)]

    def check(self, state, label, output):
        tables = {kind: _csv(path) for kind, path in output.items()}
        raw = {kind: t[0] for kind, t in tables.items()}
        if state["first"] is not None:
            return [f"{kind}.csv differs from the first pass"
                    for kind in raw if raw[kind] != state["first"][kind]]
        state["first"] = raw
        problems = []
        for kind, (_, header, rows) in tables.items():
            col = {name: _column(header, rows, name) for name in header}
            check = getattr(self, "_check_" + kind)
            problems += [f"{kind}: {msg}" for msg in check(col, state["params"])]
        return problems

    @staticmethod
    def _off(value, exact, tol):
        return not np.all(np.abs(value - exact) <= tol * (1.0 + np.abs(exact)))

    @staticmethod
    def _grid_ok(col, tend, dt):
        n = int(round(tend / dt))
        t = col["t"]
        return len(t) == n + 1 and np.abs(t - dt * np.arange(n + 1)).max() <= 1e-12 * tend

    def _check_spectrum(self, col, params):
        n = np.arange(1, len(oracles.AIRY_ZEROS) + 1)
        if len(col["n"]) != len(n) or not np.array_equal(col["n"], n):
            return ["rows are not n = 1..10"]
        exact = np.array(oracles.AIRY_ZEROS)
        seed = np.array([oracles.airy_zero_seed(k) for k in n])
        problems = []
        if self._off(col["x_n"], exact, 1e-12):
            problems.append("x_n differs from the tabulated Airy zeros")
        if self._off(col["x_n_asymptotic"], seed, 1e-14):
            problems.append("x_n_asymptotic differs from [3 pi/2 (n - 1/4)]^(2/3)")
        if self._off(col["E_n"], exact, 1e-12):  # e_g = 1
            problems.append("E_n differs from e_g |a_n|")
        if self._off(col["rel_err_percent"], 100.0 * np.abs(exact - seed) / exact, 1e-9):
            problems.append("rel_err_percent disagrees with the tabulated zeros")
        return problems

    def _check_classical(self, col, params):
        x0 = params["classical_x0"]
        if not self._grid_ok(col, 4.0, 0.01):
            return ["time grid is not 0..4 step 0.01"]
        exact = oracles.folded_bounce(x0, self.g, col["t"])
        problems = []
        if self._off(col["x_classical"], exact, 1e-12):
            problems.append("x_classical leaves the folded parabola")
        # The exact truncation sup, not the 2e-3 * x0 that acceptance criterion 06 demands.
        sup = oracles.fourier_truncation_sup(x0, 200) + 1e-12 * x0
        if not np.abs(col["x_fourier"] - exact).max() <= sup:
            problems.append(f"x_fourier misses the parabola by more than the truncation sup {sup:.3g}")
        return problems

    def _check_quantum(self, col, params):
        x0, sigma = params["quantum_x0"], params["quantum_sigma"]
        if not self._grid_ok(col, 20.0, 0.05):
            return ["time grid is not 0..20 step 0.05"]
        problems = []
        if not all(np.isfinite(col[k]).all() for k in ("x_quantum", "x_series", "var_x")):
            return ["non-finite column"]
        # N = 26 truncates the narrowest, highest corner (x0 = 11, sigma = 1.35) by 5e-7
        # of norm; measured deviations there: 2.6e-6 in <x>(0), 2.1e-4 relative in Var(0).
        if abs(col["x_quantum"][0] - x0) > 1e-5:
            problems.append(f"x_quantum(0) = {col['x_quantum'][0]!r}, expected {x0!r}")
        if abs(col["var_x"][0] / (sigma * sigma / 4.0) - 1.0) > 1e-3:
            problems.append(f"var_x(0) = {col['var_x'][0]!r}, expected {sigma * sigma / 4.0!r}")
        bound = oracles.damped_series_bound(x0, sigma, 200) + 1e-12 * x0
        if np.abs(col["x_series"] - 2.0 * x0 / 3.0).max() > bound:
            problems.append(f"x_series leaves (2/3) x0 +- {bound:.3g}")
        return problems

    def _linear_moments(self, alpha, t):
        # Saturated, uncorrelated initial data: G02 = alpha l_g^2, G20 = hbar^2/(4 G02).
        return oracles.linear_potential_moments((0.25 / alpha, 0.0, alpha), self.m, t)

    def _check_moments(self, col, params):
        x0, alpha = params["moments_x0"], params["moments_alpha"]
        if not self._grid_ok(col, 5.0, 0.01):
            return ["time grid is not 0..5 step 0.01"]
        t = col["t"]
        g20, g11, g02 = self._linear_moments(alpha, t)
        c0 = g20[0]
        exact = {
            "x": x0 - 0.5 * self.g * t * t,
            "p": -self.m * self.g * t,
            "G20": g20,
            "G11": g11,
            "G02": g02,
            "uncertainty": 0.25 + 0.0 * t,  # hbar^2/4, saturated for all t
            "energy": self.m * self.g * x0 + c0 / (2.0 * self.m) + 0.0 * t,
        }
        return [f"{k} leaves its closed form" for k, v in exact.items() if self._off(col[k], v, 1e-9)]

    def _check_compare(self, col, params):
        x0, alpha = params["compare_x0"], params["compare_alpha"]
        if not self._grid_ok(col, 12.0, 0.05):
            return ["time grid is not 0..12 step 0.05"]
        t = col["t"]
        x_cl = oracles.folded_bounce(x0, self.g, t)
        g20, g11, g02 = self._linear_moments(alpha, t)
        problems = []
        if self._off(col["x_classical"], x_cl, 1e-12):
            problems.append("x_classical leaves the folded parabola")
        if not np.isnan(col["x_quantum"]).all():
            problems.append("x_quantum is not empty with --nmax 0")
        bound = oracles.damped_series_bound(x0, self.compare_sigma, 200) + 1e-12 * x0
        if not np.abs(col["x_series"] - 2.0 * x0 / 3.0).max() <= bound:
            problems.append(f"x_series leaves (2/3) x0 +- {bound:.3g}")
        width = np.sqrt(g02)
        exact = {"env_lower": x_cl - width, "env_upper": x_cl + width,
                 "G02": g02, "G11": g11, "G20": g20}
        problems += [f"{k} leaves its closed form" for k, v in exact.items() if self._off(col[k], v, 1e-12)]
        return problems


def _pairs(order):
    return [(a, total - a) for total in range(2, order + 1) for a in range(total + 1)]


class MomentsLong:
    """Long RK4 runs of the moment hierarchy at orders 2, 4 and 6."""

    name = "moments_long"
    why = ("RK4 moment hierarchy only: per op, gravity at order 2 and harmonic at orders "
           "2/4/6, 2000 steps each from Gaussian moments; no quantum, specfun or cli work")
    cases = 3
    steps = 2000
    gravity_dt = 0.002
    harmonic_dt = 0.005
    orders = (2, 4, 6)
    m, g, hbar = 0.5, 2.0, 1.0
    sample_every = 50

    def generate(self, rng):
        def covariance():
            # (G20, G11, G02) with G20 G02 - G11^2 = (1 + kappa)(1 - rho^2)/4 > hbar^2/4
            alpha = rng.uniform(0.5, 2.0)
            spp = (1.0 + rng.uniform(0.2, 1.0)) / (4.0 * alpha)
            spx = rng.uniform(-0.3, 0.3) * math.sqrt(spp * alpha)
            return [float(spp), float(spx), float(alpha)]

        return {"cases": [
            {
                "gravity": {"x0": float(rng.uniform(5.0, 15.0)), "cov": covariance()},
                "harmonic": {"x0": float(rng.uniform(1.0, 3.0)), "p0": float(rng.uniform(-1.0, 1.0)),
                             "omega": float(rng.uniform(0.5, 1.5)), "cov": covariance()},
            }
            for _ in range(self.cases)
        ]}

    def prepare(self, pkg, params, workdir):
        return {}

    @staticmethod
    def _gaussian(cov, order):
        return {(a, b): oracles.isserlis(*cov, a, b) for a, b in _pairs(order)}

    def ops(self, pkg, params, state):
        def op(case, initial):
            mo = pkg.moments
            grav, harm = case["gravity"], case["harmonic"]
            runs = []
            s0 = mo.MomentState.make(grav["x0"], 0.0, 2, initial["gravity"])
            potential = mo.PolynomialPotential.gravity(self.m, self.g)
            t_end = self.steps * self.gravity_dt
            runs.append(("gravity", 2, mo.integrate(s0, potential, self.m, t_end, self.gravity_dt, self.hbar)))
            potential = mo.PolynomialPotential.harmonic(self.m, harm["omega"])
            t_end = self.steps * self.harmonic_dt
            for order in self.orders:
                s0 = mo.MomentState.make(harm["x0"], harm["p0"], order, initial[order])
                runs.append(("harmonic", order,
                             mo.integrate(s0, potential, self.m, t_end, self.harmonic_dt, self.hbar)))
            return case, runs

        result = []
        for i, case in enumerate(params["cases"]):
            initial = {"gravity": self._gaussian(case["gravity"]["cov"], 2)}
            initial.update({o: self._gaussian(case["harmonic"]["cov"], o) for o in self.orders})
            result.append((f"case{i}", lambda c=case, init=initial: op(c, init)))
        return result

    def check(self, state, label, output):
        case, runs = output
        problems = []
        for kind, order, traj in runs:
            samples = list(traj)
            if len(samples) != self.steps + 1:
                problems.append(f"{kind} o{order}: {len(samples)} samples, expected {self.steps + 1}")
                continue
            picked = samples[:: self.sample_every] + [samples[-1]]
            t = np.array([ts for ts, _ in picked], dtype=float)
            x = np.array([s.x for _, s in picked])
            p = np.array([s.p for _, s in picked])
            pairs = _pairs(order)
            G = {k: np.array([s.moment(*k) for _, s in picked]) for k in pairs}
            # Measured errors: 4e-16 for gravity (RK4 is exact on quadratics in t); up
            # to 4.4e-8 for harmonic at order 6, relative to each moment's scale.
            if kind == "gravity":
                err, tol = self._gravity_error(case["gravity"], t, x, p, G), 1e-12
            else:
                err, tol = self._harmonic_error(case["harmonic"], t, x, p, G, pairs), 1e-6
            if not err <= tol:
                problems.append(f"{kind} o{order}: relative error {err:.3g} against the exact flow")
        return problems

    def _gravity_error(self, case, t, x, p, G):
        m, g = self.m, self.g
        exact_x = case["x0"] - 0.5 * g * t * t
        exact = dict(zip([(2, 0), (1, 1), (0, 2)], oracles.linear_potential_moments(case["cov"], m, t)))
        errs = [np.abs(x - exact_x).max() / (case["x0"] + 0.5 * g * t[-1] ** 2),
                np.abs(p + m * g * t).max() / (m * g * t[-1])]
        errs += [np.abs(G[k] - v).max() / np.abs(v).max() for k, v in exact.items()]
        return max(errs)

    def _harmonic_error(self, case, t, x, p, G, pairs):
        m, w = self.m, case["omega"]
        ex, ep, (spp, _, sxx), eg = oracles.harmonic_moments(case["x0"], case["p0"], case["cov"], m, w, t, pairs)
        amp = math.hypot(case["x0"], case["p0"] / (m * w))
        errs = [np.abs(x - ex).max() / amp, np.abs(p - ep).max() / (m * w * amp)]
        errs += [(np.abs(G[k] - eg[k]) / oracles.gaussian_moment_scale(spp, sxx, *k)).max() for k in pairs]
        return max(errs)


WORKLOADS = {w.name: w for w in (Revival(), CliReadme(), MomentsLong())}
