"""Command-line front end: CSV temperature curves for every computation mode.

    sct run --mode=quartic-semiclassical --g=0.5 --dim=3 \
            --tmin=0.1 --tmax=5 --steps=12 [--tol=1e-9] [--out=curve.csv]
    sct compare --modes=harmonic,quartic-classical,quartic-semiclassical ...

``run`` emits ``T,lnZ,C,C_err`` rows; ``compare`` emits one specific-heat
column per mode on a shared grid (``T,C_<mode1>,C_<mode2>,...``).  Output
is deterministic for a fixed configuration: 15 significant digits, ``.``
decimal separator, no locale dependence.  A plain ``key=value`` config
file can supply defaults; command-line flags win.

Exit codes: 0 success, 2 configuration error, 3 numerical failure (the
offending Theta is reported on stderr).  Failures never emit NaN rows.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import SctError, TruncationError
from .paths import ReducedParams
from .thermo import (
    ln_z_classical,
    ln_z_harmonic,
    specific_heat,
    wkb_levels,
    z2_quartic,
    z_wkb,
)

MODES = ("harmonic", "quartic-semiclassical", "quartic-classical", "quartic-wkb")

_DEFAULTS = dict(g=0.5, dim=1, tmin=0.1, tmax=5.0, steps=10, tol=1e-9, out=None)


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
        if not self.T_min > 0.0:
            raise ConfigError(f"tmin={self.T_min} must be positive")
        if not self.T_max > self.T_min:
            raise ConfigError(f"tmax={self.T_max} must exceed tmin={self.T_min}")
        if self.T_steps < 2:
            raise ConfigError(f"steps={self.T_steps} must be at least 2")
        if self.tol <= 0.0:
            raise ConfigError(f"tol={self.tol} must be positive")
        if self.D < 1:
            raise ConfigError(f"dim={self.D} must be a positive integer")
        if self.mode == "quartic-wkb" and self.D != 1:
            raise ConfigError("wkb requires D=1")
        if self.mode == "quartic-semiclassical" and self.g <= 0.0:
            raise ConfigError("quartic-semiclassical requires g > 0")
        if self.g < 0.0:
            raise ConfigError(f"g={self.g} must be nonnegative")

    def temperature_grid(self) -> np.ndarray:
        return np.linspace(self.T_min, self.T_max, self.T_steps)


def _wkb_lnz(config: RunConfig):
    # the spectrum must cover the hottest probe of the stencil, with margin
    theta_floor = 0.95 / config.T_max
    n_max = 32
    while True:
        spectrum = wkb_levels(config.g, n_max)
        try:
            z_wkb(spectrum, theta_floor)
            break
        except TruncationError:
            if n_max >= 8192:
                raise
            n_max *= 2
    return lambda theta: math.log(z_wkb(spectrum, theta))


def lnz_function(config: RunConfig):
    """ln Z as a function of Theta for the configured mode.  It remembers
    its last value: `run` asks for ln Z at a row's Theta and
    `specific_heat` asks for it again before its stencil points."""
    return functools.lru_cache(maxsize=1)(_lnz_of_mode(config))


def _lnz_of_mode(config: RunConfig):
    if config.mode == "harmonic":
        return lambda theta: ln_z_harmonic(config.D, theta)
    if config.mode == "quartic-semiclassical":
        return lambda theta: math.log(
            z2_quartic(ReducedParams(config.g, config.D, theta), tol=config.tol))
    if config.mode == "quartic-classical":
        tol = min(config.tol, 1e-10)
        return lambda theta: ln_z_classical(
            ReducedParams(config.g, config.D, theta), tol=tol)
    if config.mode == "quartic-wkb":
        return _wkb_lnz(config)
    raise ConfigError(f"unknown mode {config.mode!r}")


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _annotate(exc: SctError, temperature: float) -> SctError:
    return type(exc)(f"{exc} [while evaluating T={temperature:g}, "
                     f"Theta={1.0 / temperature:g}]")


def run(config: RunConfig, stream) -> None:
    """Write the T,lnZ,C,C_err curve for one configuration."""
    config.validate()
    lnz = lnz_function(config)
    rows = []
    for temperature in config.temperature_grid():
        theta = 1.0 / float(temperature)
        try:
            value = lnz(theta)
            c, c_err = specific_heat(lnz, theta)
        except SctError as exc:
            raise _annotate(exc, float(temperature)) from exc
        if not all(math.isfinite(v) for v in (value, c, c_err)):
            raise _annotate(SctError("non-finite result"), float(temperature))
        rows.append((float(temperature), value, c, c_err))
    stream.write("T,lnZ,C,C_err\n")
    for row in rows:
        stream.write(",".join(_fmt(v) for v in row) + "\n")


def compare(configs, stream) -> None:
    """Write one C column per mode on a shared temperature grid."""
    if not configs:
        raise ConfigError("compare needs at least one mode")
    grids = []
    for config in configs:
        config.validate()
        grids.append(tuple(float(t) for t in config.temperature_grid()))
    if any(g != grids[0] for g in grids[1:]):
        raise ConfigError("compare requires all configurations to share one "
                          "temperature grid")
    columns = []
    for config in configs:
        lnz = lnz_function(config)
        col = []
        for temperature in grids[0]:
            try:
                c, _ = specific_heat(lnz, 1.0 / temperature)
            except SctError as exc:
                raise _annotate(exc, temperature) from exc
            if not math.isfinite(c):
                raise _annotate(SctError("non-finite result"), temperature)
            col.append(c)
        columns.append(col)
    stream.write("T," + ",".join(f"C_{c.mode}" for c in configs) + "\n")
    for i, temperature in enumerate(grids[0]):
        stream.write(_fmt(temperature) + ","
                     + ",".join(_fmt(col[i]) for col in columns) + "\n")


# ---------------------------------------------------------------------------
# Argument handling.
# ---------------------------------------------------------------------------

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
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sct",
        description="Specific heat and partition-function curves for a "
                    "particle in a harmonic or single-well quartic potential.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--g", type=float, default=None, help="quartic coupling")
        p.add_argument("--dim", type=int, default=None, help="spatial dimension D")
        p.add_argument("--tmin", type=float, default=None, help="lowest temperature")
        p.add_argument("--tmax", type=float, default=None, help="highest temperature")
        p.add_argument("--steps", type=int, default=None, help="grid points")
        p.add_argument("--tol", type=float, default=None, help="quadrature tolerance")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--config", default=None, help="key=value defaults file")

    run_p = sub.add_parser("run", help="one mode, T,lnZ,C,C_err rows")
    run_p.add_argument("--mode", default=None, help=f"one of {', '.join(MODES)}")
    add_common(run_p)

    cmp_p = sub.add_parser("compare", help="several modes, one C column each")
    cmp_p.add_argument("--modes", default=None, help="comma-separated mode list")
    add_common(cmp_p)
    return parser


def _merged(args, file_values: dict, key: str, cast):
    flag = getattr(args, key)
    if flag is not None:
        return flag
    if key in file_values:
        raw = file_values[key]
        try:
            return cast(raw) if cast is not None else raw
        except ValueError as exc:
            raise ConfigError(f"config file value {key}={raw!r}: {exc}") from exc
    return _DEFAULTS.get(key)


def _config_from_args(args, mode: str) -> RunConfig:
    file_values = _read_config_file(args.config) if args.config else {}
    return RunConfig(
        mode=mode,
        g=_merged(args, file_values, "g", float),
        D=_merged(args, file_values, "dim", int),
        T_min=_merged(args, file_values, "tmin", float),
        T_max=_merged(args, file_values, "tmax", float),
        T_steps=_merged(args, file_values, "steps", int),
        tol=_merged(args, file_values, "tol", float),
        out=_merged(args, file_values, "out", None),
    )


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        file_values = _read_config_file(args.config) if args.config else {}
        if args.command == "run":
            mode = args.mode if args.mode is not None else file_values.get("mode")
            if mode is None:
                raise ConfigError("run needs --mode")
            configs = [_config_from_args(args, mode)]
        else:
            raw = args.modes if args.modes is not None else file_values.get("modes")
            if not raw:
                raise ConfigError("compare needs --modes")
            configs = [_config_from_args(args, m.strip())
                       for m in raw.split(",") if m.strip()]
        for config in configs:
            config.validate()
    except ConfigError as exc:
        print(f"sct: {exc}", file=sys.stderr)
        return 2

    out_path = configs[0].out
    try:
        if out_path:
            with open(out_path, "w") as fh:
                _dispatch(args.command, configs, fh)
        else:
            _dispatch(args.command, configs, sys.stdout)
    except ConfigError as exc:
        print(f"sct: {exc}", file=sys.stderr)
        return 2
    except SctError as exc:
        print(f"sct: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def _dispatch(command: str, configs, stream) -> None:
    if command == "run":
        run(configs[0], stream)
    else:
        compare(configs, stream)


if __name__ == "__main__":
    sys.exit(main())
