"""Flat key=value run configuration with env-var overrides.

Config files are plain text, one ``section.key = value`` per line, ``#``
comments allowed.  Every key can also be overridden through the environment
as ``DIRACSIM_<SECTION>_<KEY>`` (dots to underscores, upper case); a
``DIRACSIM_*`` variable that names no key is rejected.  Defaults
mirror the reference bench: 780 nm light, a 1 m Fourier lens magnified
4.935x, a 44 mm aperture sampled on 256 sites with the glass edge at 25 mm,
a 12.92 degree coupling, and camera displacements of 8.4, 16 and 32.5 cm.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError
from .lattice import Grid, UnitMap, make_grid
from .qstate import BenchConfig

ENV_PREFIX = "DIRACSIM_"

# the bench.* defaults come from BenchConfig's fields, phi converted to degrees
_BENCH = {f.name: f.default for f in fields(BenchConfig)}

DEFAULTS = {
    "grid.n": 256,
    "grid.dx": 44e-3 / 256,
    "grid.x0": 22e-3,
    "units.wavelength": 780e-9,
    "units.focal_length": 1.0,
    "units.magnification": 4.935,
    "bench.aperture_halfwidth": 22e-3,
    "bench.edge_position": 25e-3,
    "bench.phase_step": _BENCH["static_phase_step"],
    "bench.wedge_tilt": _BENCH["wedge_tilt"],
    "bench.edge_loss": _BENCH["edge_loss"],
    "bench.mixed": _BENCH["mixed"],
    "bench.phi_deg": float(np.rad2deg(_BENCH["phi"])),
    "bench.photon_budget": _BENCH["photon_budget"],
    "pipeline.noise": True,
    "pipeline.seed": 1234,
    "pipeline.scans": 10,
    "pipeline.correct": True,
    "propagation.dz": (0.084, 0.16, 0.325),
    "output.dir": "out",
}


@dataclass(frozen=True)
class RunConfig:
    grid: Grid
    bench: BenchConfig
    noise: bool
    seed: int
    scans: int
    correct: bool
    dz_list: tuple
    out_dir: str


def propagated_name(dz: float) -> str:
    """File name of the distribution propagated by ``dz``; distinct per config."""
    return f"propagated_dz{dz:g}.txt"


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key}: cannot parse {raw!r} as a boolean")


def _typed(key: str, value, default):
    """``value``, given as a Python or numpy value, if it has the type of
    ``default``: an integer but not a bool for an int key, an int or a float
    for a float key, a bool for a bool key, a string for a string key, and a
    tuple or list of such items for a tuple key.  Anything else is a
    ConfigError."""
    if isinstance(default, tuple) and isinstance(value, (tuple, list)):
        return tuple(_typed(key, item, default[0]) for item in value)
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    takes = {bool: isinstance(value, bool), int: integer, str: isinstance(value, str),
             float: integer or isinstance(value, (float, np.floating))}
    if takes.get(type(default)):
        return type(default)(value)
    raise ConfigError(f"{key}: expected {type(default).__name__}, got {value!r}")


def _coerce(key: str, raw, default):
    if not isinstance(raw, str):
        return _typed(key, raw, default)
    try:
        if isinstance(default, bool):
            return _parse_bool(key, raw)
        if isinstance(default, int):
            return int(raw.strip())
        if isinstance(default, float):
            return float(raw.strip())
        if isinstance(default, tuple):
            items = [s.strip() for s in raw.split(",")]
            if any(items) and not all(items):  # a list of no value at all is refused later
                raise ConfigError(f"{key}: {raw!r} has an empty item; give a value "
                                  "between every two commas")
            return tuple(float(s) for s in items if s)
        return raw.strip()
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} ({exc})") from exc


def parse_config_file(path: str) -> dict:
    """Read a flat key=value file into a raw string mapping."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, raw = text.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = raw.strip()
    return values


def _env_key(key: str) -> str:
    return ENV_PREFIX + key.replace(".", "_").upper()


def apply_env_overrides(values: dict, environ=None) -> dict:
    """``values`` updated from every ``DIRACSIM_*`` variable; one that names
    no config key is rejected, as an unknown key in a file is."""
    environ = os.environ if environ is None else environ
    keys = {_env_key(key): key for key in DEFAULTS}
    out = dict(values)
    for name, env in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        if name not in keys:
            raise ConfigError(f"environment: unknown config variable {name!r}")
        out[keys[name]] = env
    return out


def build_run_config(values: dict | None = None) -> RunConfig:
    """Merge raw values (strings, or values of each default's type; see
    ``_typed``) over the defaults, coerce, and validate."""
    values = {} if values is None else values
    for key in values:
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
    merged = {}
    for key, default in DEFAULTS.items():
        merged[key] = _coerce(key, values.get(key, default), default)

    unit_map = UnitMap(**{f.name: merged[f"units.{f.name}"] for f in fields(UnitMap)})
    grid = make_grid(merged["grid.n"], merged["grid.dx"], merged["grid.x0"], unit_map)

    phi = np.deg2rad(merged["bench.phi_deg"])
    bench = BenchConfig(
        aperture_halfwidth=merged["bench.aperture_halfwidth"],
        edge_position=merged["bench.edge_position"],
        static_phase_step=merged["bench.phase_step"],
        wedge_tilt=merged["bench.wedge_tilt"],
        edge_loss=merged["bench.edge_loss"],
        mixed=merged["bench.mixed"],
        phi=phi,
        photon_budget=merged["bench.photon_budget"],
    )
    bench.validate(grid)

    if merged["pipeline.seed"] < 0:
        raise ConfigError(f"pipeline.seed: must be nonnegative, got {merged['pipeline.seed']}")
    if merged["pipeline.scans"] < 1:
        raise ConfigError(f"pipeline.scans: must be at least 1, got {merged['pipeline.scans']}")
    if not merged["propagation.dz"]:
        raise ConfigError("propagation.dz: the list is empty; give at least one value")
    if not merged["output.dir"] or "\0" in merged["output.dir"]:
        raise ConfigError(f"output.dir: {merged['output.dir']!r} names no directory")
    names = {}
    # + 0.0 turns -0.0 into 0.0, which %g would name apart
    dz_list = tuple(dz + 0.0 for dz in merged["propagation.dz"])
    for dz in dz_list:
        if not 0 <= dz < np.inf:
            raise ConfigError(f"propagation.dz: displacement {dz!r} must be finite and nonnegative")
        name = propagated_name(dz)
        if name in names:
            raise ConfigError(
                f"propagation.dz: {names[name]!r} and {dz!r} would both write {name}"
            )
        names[name] = dz

    return RunConfig(
        grid=grid,
        bench=bench,
        noise=merged["pipeline.noise"],
        seed=merged["pipeline.seed"],
        scans=merged["pipeline.scans"],
        correct=merged["pipeline.correct"],
        dz_list=dz_list,
        out_dir=merged["output.dir"],
    )


def load_run_config(path: str | None = None, overrides: dict | None = None,
                    environ=None) -> RunConfig:
    """File < environment < explicit overrides, then build and validate."""
    values = parse_config_file(path) if path else {}
    values = apply_env_overrides(values, environ)
    if overrides:
        values.update(overrides)
    return build_run_config(values)
