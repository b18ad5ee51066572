"""Command-line front end: CSV temperature curves for every computation mode.

    sct run --mode=quartic-semiclassical --g=0.5 --dim=3 \
            --tmin=0.1 --tmax=5 --steps=12 [--tol=1e-9] [--out=curve.csv]
    sct compare --modes=harmonic,quartic-classical,quartic-semiclassical ...

``run`` emits ``T,lnZ,C,C_err`` rows; ``compare`` emits one specific-heat
column per mode on a shared grid (``T,C_<mode1>,C_<mode2>,...``).  Output
is deterministic for a fixed configuration: 15 significant digits, ``.``
decimal separator, no locale dependence.  ``--config`` names a plain
``key=value`` file, read once per call, whose keys are the flag names;
flags win over it, and it wins over the ``RunConfig`` defaults.

This is the curve layer (grids, the one C(T) row loop `thermo_curve`, CSV);
sct.thermo gives ln Z and C at one Theta.  The loop lives here because the
benchmark's clock stamps columns and rows by wrapping this module's
`lnz_function` and `specific_heat` globals, which the loop calls.

Exit codes: 0 success, 2 configuration error, 3 numerical failure (the
failing row's T and Theta on stderr).  Failures never emit NaN rows.
"""

from __future__ import annotations

import argparse
import functools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SctError
from .thermo import (
    ThermoCurve,
    ln_z2_quartic,
    ln_z_classical_batch,
    ln_z_harmonic,
    ln_z_wkb_batch,
    specific_heat,
    stencil_thetas,
    wkb_spectrum,
)
from .thermo import z2_quartic  # noqa: F401  (kept for perfbench's tracer test)

MODES = ("harmonic", "quartic-semiclassical", "quartic-classical", "quartic-wkb")

class ConfigError(SctError):
    """Invalid run configuration (reported with exit status 2)."""


@dataclass(frozen=True)
class RunConfig:
    mode: str
    g: float = 0.5
    D: int = 1
    T_min: float = 0.1
    T_max: float = 5.0
    T_steps: int = 10
    tol: float = 1e-9
    out: str | None = None

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; choose from {', '.join(MODES)}")
        for flag, value in (("dim", self.D), ("steps", self.T_steps)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{flag}={value!r} must be an integer")
        if not 0.0 < self.T_min < math.inf:
            raise ConfigError(f"tmin={self.T_min} must be positive and finite")
        if not self.T_min < self.T_max < math.inf:
            raise ConfigError(f"tmax={self.T_max} must be finite and exceed "
                              f"tmin={self.T_min}")
        if self.T_steps < 2:
            raise ConfigError(f"steps={self.T_steps} must be at least 2")
        if np.any(np.diff(self.temperature_grid()) <= 0.0):
            raise ConfigError(f"tmin={self.T_min} and tmax={self.T_max} are too "
                              f"close for steps={self.T_steps} distinct temperatures")
        if not 0.0 < self.tol < math.inf:
            raise ConfigError(f"tol={self.tol} must be positive and finite")
        if self.D < 1:
            raise ConfigError(f"dim={self.D} must be a positive integer")
        if self.mode == "quartic-wkb" and self.D != 1:
            raise ConfigError("wkb requires D=1")
        if self.mode == "quartic-semiclassical" and self.g <= 0.0:
            raise ConfigError("quartic-semiclassical requires g > 0")
        if not 0.0 <= self.g < math.inf:
            raise ConfigError(f"g={self.g} must be nonnegative and finite")

    def temperature_grid(self) -> np.ndarray:
        return np.linspace(self.T_min, self.T_max, self.T_steps)


def lnz_function(config: RunConfig):
    """ln Z as a function of Theta for the configured mode.  It holds the
    ln Z of one row: at a Theta it does not hold it evaluates ln Z at the
    seven stencil_thetas of that Theta in one call of the mode's batch
    (see _lnz_of_mode), so the row loop's ln Z and the seven that
    `specific_heat` asks for next read what it holds.  The WKB spectrum is
    built here, once per column."""
    values_at = _lnz_of_mode(config)
    row = {}

    def lnz(theta: float) -> float:
        try:
            return row[theta]
        except KeyError:
            thetas = stencil_thetas(theta)
            values = values_at(thetas)
            row.clear()
            row.update(zip(thetas, values))
            return row[theta]

    return lnz


def _lnz_of_mode(config: RunConfig):
    """ln Z of the configured mode at a sequence of Theta, as one call:
    ln_z2_quartic, ln_z_classical_batch or ln_z_wkb_batch, each of which
    raises for the first failing Theta in the order given; the harmonic
    closed form per Theta."""
    g, D = config.g, config.D
    if config.mode == "quartic-semiclassical":
        return lambda thetas: ln_z2_quartic(g, D, thetas, config.tol)
    if config.mode == "harmonic":
        return lambda thetas: [ln_z_harmonic(D, theta) for theta in thetas]
    if config.mode == "quartic-classical":
        tol = min(config.tol, 1e-10)
        return lambda thetas: ln_z_classical_batch(g, D, thetas, tol)
    if config.mode == "quartic-wkb":
        # the spectrum must cover the hottest probe of the stencil, so a
        # failure to build it is the hottest row's
        try:
            spectrum = wkb_spectrum(g, min(stencil_thetas(1.0 / config.T_max)))
        except SctError as exc:
            raise _annotate(exc, config.T_max) from exc
        return lambda thetas: ln_z_wkb_batch(spectrum, thetas)
    raise ConfigError(f"unknown mode {config.mode!r}")


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _annotate(exc: SctError, temperature: float) -> SctError:
    return type(exc)(f"{exc} [while evaluating T={temperature:g}, "
                     f"Theta={1.0 / temperature:g}]")


def thermo_curve(lnz, T_grid) -> ThermoCurve:
    """ln Z, C and C's error estimate on a caller-supplied temperature grid
    (the library never invents grids).  Per row, ln Z at Theta = 1/T
    first, then `specific_heat` once, through this module's globals, so a
    wrapper installed there sees every row.  A failing row raises its
    error annotated with the row's T and Theta, and so does a row that is
    not finite."""
    rows = []
    for temperature in T_grid:
        if not temperature > 0.0:
            raise DomainError(f"temperature {temperature!r} must be positive")
        theta = 1.0 / temperature
        try:
            value = lnz(theta)
            c, c_err = specific_heat(lnz, theta)
        except SctError as exc:
            raise _annotate(exc, temperature) from exc
        if not all(math.isfinite(v) for v in (value, c, c_err)):
            raise _annotate(SctError("non-finite result"), temperature)
        rows.append((float(temperature), value, c, c_err))
    return ThermoCurve(*(tuple(row[k] for row in rows) for k in range(4)))


def _grid(config: RunConfig) -> tuple:
    config.validate()
    return tuple(float(t) for t in config.temperature_grid())


def run(config: RunConfig, stream) -> None:
    """Write the T,lnZ,C,C_err curve for one configuration."""
    grid = _grid(config)
    curve = thermo_curve(lnz_function(config), grid)
    stream.write("T,lnZ,C,C_err\n")
    for row in zip(curve.T_grid, curve.lnZ, curve.C, curve.C_err):
        stream.write(",".join(_fmt(v) for v in row) + "\n")


def compare(configs, stream) -> None:
    """Write one C column per mode on a shared temperature grid."""
    if not configs:
        raise ConfigError("compare needs at least one mode")
    grids = [_grid(config) for config in configs]
    if any(g != grids[0] for g in grids[1:]):
        raise ConfigError("compare requires all configurations to share one "
                          "temperature grid")
    columns = [thermo_curve(lnz_function(config), grids[0]).C for config in configs]
    stream.write("T," + ",".join(f"C_{c.mode}" for c in configs) + "\n")
    for i, temperature in enumerate(grids[0]):
        stream.write(_fmt(temperature) + ","
                     + ",".join(_fmt(col[i]) for col in columns) + "\n")


# ---------------------------------------------------------------------------
# Argument handling.
# ---------------------------------------------------------------------------

# (flag and config-file key, RunConfig field, type, help) of each option
# that `run` and `compare` share; the defaults are RunConfig's
_OPTIONS = (
    ("g", "g", float, "quartic coupling"),
    ("dim", "D", int, "spatial dimension D"),
    ("tmin", "T_min", float, "lowest temperature"),
    ("tmax", "T_max", float, "highest temperature"),
    ("steps", "T_steps", int, "grid points"),
    ("tol", "tol", float, "quadrature tolerance"),
    ("out", "out", str, "output file (default stdout)"),
)
_CONFIG_KEYS = ("mode", "modes") + tuple(flag for flag, *_ in _OPTIONS)


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _CONFIG_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}; "
                                      f"choose from {', '.join(_CONFIG_KEYS)}")
                values[key] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sct",
        description="Specific heat and partition-function curves for a "
                    "particle in a harmonic or single-well quartic potential.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="one mode, T,lnZ,C,C_err rows")
    run_p.add_argument("--mode", help=f"one of {', '.join(MODES)}")
    cmp_p = sub.add_parser("compare", help="several modes, one C column each")
    cmp_p.add_argument("--modes", help="comma-separated mode list")
    for p in (run_p, cmp_p):
        for flag, _, cast, text in _OPTIONS:
            p.add_argument(f"--{flag}", type=cast, help=text)
        p.add_argument("--config", help="key=value defaults file")
    return parser


def _configs(args) -> list:
    """One RunConfig per requested mode: each field from its flag, else
    from the config file, else the RunConfig default."""
    file_values = _read_config_file(args.config) if args.config else {}
    fields = {}
    for flag, name, cast, _ in _OPTIONS:
        value = getattr(args, flag)
        if value is None and flag in file_values:
            raw = file_values[flag]
            try:
                value = cast(raw)
            except ValueError as exc:
                raise ConfigError(f"config file value {flag}={raw!r}: {exc}") from exc
        if value is not None:
            fields[name] = value
    key = "mode" if args.command == "run" else "modes"
    raw = getattr(args, key)
    if raw is None:
        raw = file_values.get(key, "")
    parts = raw.split(",") if key == "modes" else [raw]
    modes = [m.strip() for m in parts if m.strip()]
    if not modes:
        raise ConfigError(f"{args.command} needs --{key}")
    return [RunConfig(mode=mode, **fields) for mode in modes]


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        configs = _configs(args)
        # validated before --out is opened, so a bad config never truncates it
        for config in configs:
            config.validate()
        write = (functools.partial(run, configs[0]) if args.command == "run"
                 else functools.partial(compare, configs))
        if configs[0].out:
            try:
                fh = open(configs[0].out, "w")
            except OSError as exc:
                raise ConfigError(
                    f"cannot open output file {configs[0].out}: {exc}") from exc
            with fh:
                write(fh)
        else:
            write(sys.stdout)
    except ConfigError as exc:
        print(f"sct: {exc}", file=sys.stderr)
        return 2
    except SctError as exc:
        print(f"sct: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
