"""Scenario runner: configures units and scenarios, runs the classical,
spectral-quantum and moment descriptions on a shared time grid, and emits
deterministic CSV tables.

Subcommands: spectrum | classical | quantum | moments | compare.
Every configuration key can come from a flat key=value config file
(--config) and/or a command-line flag; flags win.  Exit codes: 0 success,
2 usage/config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import classical, moments, quantum
from .errors import ConfigError, DomainError, NumericalError
from .scaling import UnitSystem, make_units, units_from_preset
# airy_zero stays a name of this module: bench/tracing.py wraps cli.airy_zero
from .specfun import airy_zero, airy_zero_asymptotic, airy_zeros  # noqa: F401

__all__ = ["ScenarioConfig", "main", "entry",
           "run_spectrum", "run_classical", "run_quantum", "run_moments", "run_compare"]

_DEFAULTS = {
    "preset": "natural",
    "x0": 10.0,
    "sigma": 2.0,
    "alpha": 1.0,
    "nmax": 48,
    "nterms": 200,
    "tend": 25.0,
    "dt": 0.05,
    "out": "-",
    "envreset": False,
}
_INT_KEYS = {"nmax", "nterms"}
_FLOAT_KEYS = {"mass", "gravity", "hbar", "x0", "sigma", "alpha", "tend", "dt"}
_STR_KEYS = {"preset", "out"}
_BOOL_KEYS = {"envreset"}


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    units: UnitSystem
    x0: float
    sigma: float
    alpha: float
    nmax: int
    nterms: int
    tend: float
    dt: float
    out: str
    envreset: bool = False


def _parse_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _INT_KEYS | _FLOAT_KEYS | _STR_KEYS | _BOOL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = val
    return values


def _coerce(key: str, value):
    if value is None or not isinstance(value, str):
        return value
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _BOOL_KEYS:
            lowered = value.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(f"expected a boolean, got {value!r}")
    except ValueError as exc:
        raise ConfigError(f"field {key!r}: {exc}") from exc
    return value


def _positive(name: str, value, allow_zero: bool = False) -> None:
    ok = value >= 0 if allow_zero else value > 0
    if not (ok and math.isfinite(value)):
        kind = ">= 0" if allow_zero else "> 0"
        raise ConfigError(f"field {name!r} must be {kind}, got {value}")


def resolve_config(args: argparse.Namespace) -> ScenarioConfig:
    file_vals = _parse_config_file(args.config) if args.config else {}
    merged = {}
    for key in _INT_KEYS | _FLOAT_KEYS | _STR_KEYS | _BOOL_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
        elif key in file_vals:
            merged[key] = _coerce(key, file_vals[key])
        else:
            merged[key] = _DEFAULTS.get(key)

    explicit = [k for k in ("mass", "gravity", "hbar") if merged.get(k) is not None]
    if explicit:
        missing = [k for k in ("mass", "gravity", "hbar") if merged.get(k) is None]
        if missing:
            raise ConfigError(f"explicit units need mass, gravity and hbar; missing {missing[0]!r}")
        units = make_units(merged["mass"], merged["gravity"], merged["hbar"])
    else:
        try:
            units = units_from_preset(merged["preset"])
        except DomainError as exc:
            raise ConfigError(f"field 'preset': {exc}") from exc

    cfg = ScenarioConfig(
        kind=args.command,
        units=units,
        x0=merged["x0"],
        sigma=merged["sigma"],
        alpha=merged["alpha"],
        nmax=merged["nmax"],
        nterms=merged["nterms"],
        tend=merged["tend"],
        dt=merged["dt"],
        out=merged["out"],
        envreset=merged["envreset"],
    )
    _validate(cfg)
    return cfg


def _validate(cfg: ScenarioConfig) -> None:
    _positive("dt", cfg.dt)
    _positive("tend", cfg.tend, allow_zero=True)
    _positive("nterms", cfg.nterms)
    _positive("sigma", cfg.sigma, allow_zero=True)
    _positive("alpha", cfg.alpha, allow_zero=True)
    _positive("x0", cfg.x0, allow_zero=True)
    if cfg.nmax < 0:
        raise ConfigError(f"field 'nmax' must be >= 0, got {cfg.nmax}")
    if cfg.kind == "spectrum" and cfg.nmax < 1:
        raise ConfigError("field 'nmax' must be >= 1 for the spectrum scenario")
    if cfg.kind in ("classical", "quantum", "moments", "compare") and cfg.x0 <= 0:
        raise ConfigError(f"field 'x0' must be > 0 for the {cfg.kind} scenario")
    if cfg.kind == "quantum":
        if cfg.nmax < 1:
            raise ConfigError("field 'nmax' must be >= 1 for the quantum scenario")
        if cfg.sigma <= 0:
            raise ConfigError("field 'sigma' must be > 0 for the quantum scenario")
    if cfg.kind == "moments" and cfg.alpha <= 0:
        raise ConfigError("field 'alpha' must be > 0 for the moments scenario")


def _time_grid(cfg: ScenarioConfig) -> np.ndarray:
    if cfg.tend == 0.0:
        return np.array([0.0])
    if not cfg.tend / cfg.dt <= moments._MAX_STEPS:  # the integrator's step cap; also when tend/dt overflows
        raise ConfigError(f"fields 'tend'/'dt' give {cfg.tend / cfg.dt:.3g} steps, above {moments._MAX_STEPS:.0e}")
    n = max(1, int(round(cfg.tend / cfg.dt)))
    return cfg.dt * np.arange(n + 1)


def run_spectrum(cfg: ScenarioConfig):
    header = ["n", "x_n", "x_n_asymptotic", "E_n", "rel_err_percent"]
    rows = []
    for n, exact in enumerate(airy_zeros(cfg.nmax).tolist(), start=1):
        seed = airy_zero_asymptotic(n)
        rows.append([n, exact, seed, cfg.units.e_g * exact, 100.0 * abs(exact - seed) / exact])
    return header, rows


def run_classical(cfg: ScenarioConfig):
    spec = classical.BounceSpec(x0=cfg.x0, g=cfg.units.g)
    grid = _time_grid(cfg)
    x_exact = classical.bounce_trajectory(spec, grid)
    x_fourier = classical.bounce_fourier(spec, grid, cfg.nterms)
    header = ["t", "x_classical", "x_fourier"]
    return header, [[t, a, b] for t, a, b in zip(grid, x_exact, x_fourier)]


def _quantum_columns(cfg: ScenarioConfig, grid: np.ndarray, with_variance: bool):
    u = cfg.units
    basis = quantum.build_basis(cfg.nmax, u)
    state = quantum.project_packet(quantum.PacketSpec(x0=cfg.x0, sigma=cfg.sigma), basis)
    mean = quantum.expectation_x_evolution(state, grid)
    var = quantum.variance_x_evolution(state, grid) if with_variance else None
    return mean, var


def _series_column(cfg: ScenarioConfig, grid: np.ndarray) -> np.ndarray:
    u = cfg.units
    packet = quantum.PacketSpec(x0=cfg.x0 / u.l_g, sigma=cfg.sigma / u.l_g)
    return u.l_g * quantum.expectation_x_series(packet, grid / u.t_g, cfg.nterms)


def run_quantum(cfg: ScenarioConfig):
    grid = _time_grid(cfg)
    mean, var = _quantum_columns(cfg, grid, with_variance=True)
    series = _series_column(cfg, grid)
    header = ["t", "x_quantum", "x_series", "var_x"]
    return header, [[t, a, b, c] for t, a, b, c in zip(grid, mean, series, var)]


def run_moments(cfg: ScenarioConfig):
    u = cfg.units
    ic = moments.saturated_ic(cfg.alpha, u)
    potential = moments.PolynomialPotential.gravity(u.m, u.g)
    s0 = moments.initial_state(ic, x0=cfg.x0)
    header = ["t", "x", "p", "G20", "G11", "G02", "uncertainty", "energy"]
    if cfg.tend == 0.0:
        samples = [(0.0, s0)]
    else:
        traj = moments.integrate(s0, potential, u.m, cfg.tend, cfg.dt, hbar=u.hbar)
        for msg in traj.warnings:
            print(f"warning: {msg}", file=sys.stderr)
        samples = list(traj)
    rows = [
        [
            t,
            s.x,
            s.p,
            s.moment(2, 0),
            s.moment(1, 1),
            s.moment(0, 2),
            moments.uncertainty_product(s),
            moments.effective_hamiltonian(s, potential, u.m),
        ]
        for t, s in samples
    ]
    return header, rows


def run_compare(cfg: ScenarioConfig):
    """Aligned table of all three descriptions.

    Sub-scenarios are disabled by zeroing their controls (nmax=0 or sigma=0
    for the spectral column, sigma=0 for the series, alpha=0 for the
    envelope/moment columns); disabled or failed columns are left empty.
    The envelope x_cl +- sqrt(G02) describes the packet on the first arc
    [0, T] only: its moment clock runs straight through each bounce.
    """
    u = cfg.units
    grid = _time_grid(cfg)
    header = ["t", "x_classical", "x_quantum", "x_series",
              "env_lower", "env_upper", "G02", "G11", "G20"]
    x_cl = classical.bounce_trajectory(classical.BounceSpec(x0=cfg.x0, g=u.g), grid)

    x_qm = None
    if cfg.nmax >= 1 and cfg.sigma > 0:
        try:
            x_qm, _ = _quantum_columns(cfg, grid, with_variance=False)
        except NumericalError as exc:
            print(f"warning: x_quantum column skipped: {exc}", file=sys.stderr)

    series = _series_column(cfg, grid) if cfg.sigma > 0 else None

    env_lo = env_hi = g02 = g11 = g20 = None
    if cfg.alpha > 0:
        ic = moments.saturated_ic(cfg.alpha, u)
        env_lo, env_hi = moments.envelope(
            cfg.x0, ic, u.m, u.g, grid, reset_each_period=cfg.envreset
        )
        g20, g11, g02 = moments.closed_form_linear(ic, u.m, grid)

    def col(arr, i):
        return None if arr is None else arr[i]

    rows = [
        [grid[i], x_cl[i], col(x_qm, i), col(series, i),
         col(env_lo, i), col(env_hi, i), col(g02, i), col(g11, i), col(g20, i)]
        for i in range(len(grid))
    ]
    return header, rows


_RUNNERS = {
    "spectrum": run_spectrum,
    "classical": run_classical,
    "quantum": run_quantum,
    "moments": run_moments,
    "compare": run_compare,
}


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_table(header, rows, out: str) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_format_cell(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbouncer",
        description="Quantum bouncer scenarios: exact classical bounce, Airy-basis "
        "spectral evolution, and semiclassical moment dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("spectrum", "eigenvalue table with the asymptotic comparison"),
        ("classical", "folded bounce trajectory and its Fourier series"),
        ("quantum", "spectral <x>(t), the closed-form series, and Var(x)"),
        ("moments", "moment-hierarchy integration from saturated initial data"),
        ("compare", "all descriptions on one aligned time grid"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--preset", choices=["natural", "neutron"], help="unit preset")
        p.add_argument("--mass", type=float, help="particle mass (overrides preset)")
        p.add_argument("--gravity", type=float, help="gravitational acceleration")
        p.add_argument("--hbar", type=float, help="reduced Planck constant")
        p.add_argument("--x0", type=float, help="release height")
        p.add_argument("--sigma", type=float, help="packet width (0 disables quantum columns)")
        p.add_argument("--alpha", type=float, help="initial position variance in units of l_g^2")
        p.add_argument("--nmax", type=int, help="number of basis states (0 disables)")
        p.add_argument("--nterms", type=int, help="Fourier series terms")
        p.add_argument("--tend", type=float, help="final time")
        p.add_argument("--dt", type=float, help="time-grid spacing")
        p.add_argument("--out", help="output CSV path, '-' for stdout")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument(
            "--envreset",
            action=argparse.BooleanOptionalAction,
            default=None,
            help="restart the dispersion clock at every bounce period in the envelope columns",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        header, rows = _RUNNERS[cfg.kind](cfg)
        write_table(header, rows, cfg.out)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
