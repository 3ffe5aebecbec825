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
import functools
import math
import os
import sys

import numpy as np

from . import classical, moments, quantum
from ._record import ValueRecord
from .errors import ConfigError, DomainError, NumericalError
from .scaling import UnitSystem, make_units, units_from_preset
# airy_zero stays a name of this module: bench/tracing.py wraps cli.airy_zero
from .specfun import airy_zero, airy_zero_asymptotic, airy_zeros  # noqa: F401

__all__ = ["ScenarioConfig", "main", "entry",
           "run_spectrum", "run_classical", "run_quantum", "run_moments", "run_compare"]

# every configuration key in help order: (type, default, help); a None
# default is unset, and unset mass, gravity and hbar come from the preset
_OPTIONS = {
    "preset": (str, "natural", "unit preset"),
    "mass": (float, None, "particle mass (overrides preset)"),
    "gravity": (float, None, "gravitational acceleration"),
    "hbar": (float, None, "reduced Planck constant"),
    "x0": (float, 10.0, "release height"),
    "sigma": (float, 2.0, "packet width (0 disables quantum columns)"),
    "alpha": (float, 1.0, "initial position variance in units of l_g^2"),
    "nmax": (int, 48, "number of basis states (0 disables)"),
    "nterms": (int, 200, "Fourier series terms"),
    "tend": (float, 25.0, "final time"),
    "dt": (float, 0.05, "time-grid spacing"),
    "out": (str, "-", "output CSV path, '-' for stdout"),
    "envreset": (bool, False, "restart the dispersion clock at every bounce period in the envelope columns"),
}


class ScenarioConfig(ValueRecord):
    _fields = ("kind", "units", "x0", "sigma", "alpha", "nmax", "nterms", "tend", "dt", "out", "envreset")

    def __init__(self, kind: str, units: UnitSystem, x0: float, sigma: float, alpha: float, nmax: int,
                 nterms: int, tend: float, dt: float, out: str, envreset: bool = False):
        self.__dict__.update(kind=kind, units=units, x0=x0, sigma=sigma, alpha=alpha, nmax=nmax,
                             nterms=nterms, tend=tend, dt=dt, out=out, envreset=envreset)


def _parse_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = val
    return values


def _coerce(key: str, value: str):
    kind = _OPTIONS[key][0]
    try:
        if kind is not bool:
            return kind(value)
        lowered = value.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ValueError(f"expected a boolean, got {value!r}")
    except ValueError as exc:
        raise ConfigError(f"field {key!r}: {exc}") from exc


def _positive(name: str, value, allow_zero: bool = False) -> None:
    ok = value >= 0 if allow_zero else value > 0
    if not (ok and math.isfinite(value)):
        kind = ">= 0" if allow_zero else "> 0"
        raise ConfigError(f"field {name!r} must be {kind}, got {value}")


def resolve_config(args: argparse.Namespace) -> ScenarioConfig:
    file_vals = _parse_config_file(args.config) if args.config else {}
    merged = {}
    for key, (_, default, _) in _OPTIONS.items():
        flag = getattr(args, key)
        if flag is not None:
            merged[key] = flag
        elif key in file_vals:
            merged[key] = _coerce(key, file_vals[key])
        else:
            merged[key] = default

    preset = merged.pop("preset")
    scales = [merged.pop(k) for k in ("mass", "gravity", "hbar")]
    if any(v is not None for v in scales):
        if None in scales:
            missing = ("mass", "gravity", "hbar")[scales.index(None)]
            raise ConfigError(f"explicit units need mass, gravity and hbar; missing {missing!r}")
        units = make_units(*scales)
    else:
        try:
            units = units_from_preset(preset)
        except DomainError as exc:
            raise ConfigError(f"field 'preset': {exc}") from exc

    cfg = ScenarioConfig(kind=args.command, units=units, **merged)
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
    n = np.arange(1, cfg.nmax + 1)
    exact = airy_zeros(cfg.nmax)
    seed = np.array([airy_zero_asymptotic(k) for k in n.tolist()])
    return header, [n, exact, seed, quantum._energies(exact, cfg.units), 100.0 * abs(exact - seed) / exact]


def run_classical(cfg: ScenarioConfig):
    spec = classical.BounceSpec(x0=cfg.x0, g=cfg.units.g)
    grid = _time_grid(cfg)
    x_exact = classical.bounce_trajectory(spec, grid)
    x_fourier = classical.bounce_fourier(spec, grid, cfg.nterms)
    return ["t", "x_classical", "x_fourier"], [grid, x_exact, x_fourier]


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
    return ["t", "x_quantum", "x_series", "var_x"], [grid, mean, series, var]


def run_moments(cfg: ScenarioConfig):
    u = cfg.units
    potential = moments.PolynomialPotential.gravity(u.m, u.g)
    s0 = moments.initial_state(moments.saturated_ic(cfg.alpha, u), x0=cfg.x0)
    grid = _time_grid(cfg)
    traj = moments.integrate(s0, potential, u.m, cfg.tend, cfg.dt, hbar=u.hbar)
    for msg in traj.warnings:
        print(f"warning: {msg}", file=sys.stderr)
    s = traj.states
    return ["t", "x", "p", "G20", "G11", "G02", "uncertainty", "energy"], [
        grid, s.x, s.p, s.moment(2, 0), s.moment(1, 1), s.moment(0, 2),
        moments.uncertainty_product(s), moments.effective_hamiltonian(s, potential, u.m)]


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

    return header, [grid, x_cl, x_qm, series, env_lo, env_hi, g02, g11, g20]


_RUNNERS = {
    "spectrum": run_spectrum,
    "classical": run_classical,
    "quantum": run_quantum,
    "moments": run_moments,
    "compare": run_compare,
}


def _check_finite(header, cols) -> None:
    """Refuse a table with a nan or inf cell: NumericalError names its column and row."""
    for name, col in zip(header, cols):
        if col is None:
            continue
        bad = np.flatnonzero(~np.isfinite(col))
        if bad.size:
            k = bad[0]
            raise NumericalError(f"column {name} is {col[k]} at row {k} ({header[0]} = {cols[0][k]:.6g})")


# rows that one % formats: bounds the cell tuple and the bytes of a block
# however long the table is
_BLOCK_ROWS = 4096


def write_table(header, cols, out: str) -> None:
    n = next(len(c) for c in cols if c is not None)
    cells, varying = [], []
    for c in cols:
        if c is None:
            cells.append(b"")
            continue
        fmt = b"%d" if getattr(c, "dtype", float) == int else b"%.17g"
        # a float column of one bit pattern (+0.0 and -0.0 differ) is formatted
        # once, into the row template; c[0] != c[-1] rules most columns out
        if fmt == b"%.17g" and n > 1 and c[0] == c[-1]:
            bits = np.asarray(c, dtype=float).view(np.int64)
            if (bits == bits[0]).all():
                cells.append(fmt % float(c[0]))
                continue
        cells.append(fmt)
        varying.append(c)
    row = b",".join(cells) + b"\n"
    table = np.column_stack(varying) if varying else np.empty((n, 0))
    chunks = [",".join(header).encode() + b"\n"]
    for lo in range(0, n, _BLOCK_ROWS):
        # one % over the block's flattened varying cells: each keeps its own
        # %.17g or %d conversion, and no row builds a tuple, a string or a join
        block = table[lo:lo + _BLOCK_ROWS]
        chunks.append(row * len(block) % tuple(block.ravel().tolist()))
    data = b"".join(chunks)
    if out == "-":
        sys.stdout.write(data.decode())
    else:
        try:
            with open(out, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {out!r}: {exc}") from exc


@functools.lru_cache(maxsize=8)
def build_parser(command=None) -> argparse.ArgumentParser:
    """Options go on the `command` subparser only.  Built once per command and
    shared between calls, so a caller must not change it."""
    parser = argparse.ArgumentParser(
        prog="qbouncer",
        description="Quantum bouncer scenarios: exact classical bounce, Airy-basis "
        "spectral evolution, and semiclassical moment dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = {name: sub.add_parser(name, help=text) for name, text in (
        ("spectrum", "eigenvalue table with the asymptotic comparison"),
        ("classical", "folded bounce trajectory and its Fourier series"),
        ("quantum", "spectral <x>(t), the closed-form series, and Var(x)"),
        ("moments", "moment-hierarchy integration from saturated initial data"),
        ("compare", "all descriptions on one aligned time grid"),
    )}.get(command)
    if p is None:
        return parser
    for key, (kind, _, text) in _OPTIONS.items():
        if key == "preset":
            p.add_argument("--preset", choices=["natural", "neutron"], help=text)
        elif kind is bool:
            p.add_argument(f"--{key}", action=argparse.BooleanOptionalAction, help=text)
        else:
            p.add_argument(f"--{key}", type=kind, help=text)
        if key == "out":
            p.add_argument("--config", help="flat key=value config file")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top-level parser takes only -h, so the command is the first non-option
    args = build_parser(next((a for a in argv if a[:1] != "-"), None)).parse_args(argv)
    try:
        cfg = resolve_config(args)
        # refused before the run, which may be long; write_table reports the rest
        if cfg.out != "-" and os.path.isdir(cfg.out):
            raise ConfigError(f"cannot write output file {cfg.out!r}: it is a directory")
        if cfg.out != "-" and not os.path.isdir(os.path.dirname(cfg.out) or "."):
            raise ConfigError(f"cannot write output file {cfg.out!r}: its directory does not exist")
        header, cols = _RUNNERS[cfg.kind](cfg)
        _check_finite(header, cols)
        write_table(header, cols, cfg.out)
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
