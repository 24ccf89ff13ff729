"""Flat key=value run configuration with env-var overrides.

Config files are plain text, one ``section.key = value`` per line, ``#``
comments allowed.  Every key can also be overridden through the environment
as ``DIRACSIM_<SECTION>_<KEY>`` (dots to underscores, upper case).  Defaults
mirror the reference bench: 780 nm light, a 1 m Fourier lens magnified
4.935x, a 44 mm aperture sampled on 256 sites with the glass edge at 25 mm,
a 12.92 degree coupling, and camera displacements of 8.4, 16 and 32.5 cm.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .lattice import Grid, UnitMap, make_grid
from .qstate import BenchConfig

ENV_PREFIX = "DIRACSIM_"

DEFAULTS = {
    "grid.n": 256,
    "grid.dx": 44e-3 / 256,
    "grid.x0": 22e-3,
    "units.wavelength": 780e-9,
    "units.focal_length": 1.0,
    "units.magnification": 4.935,
    "bench.aperture_halfwidth": 22e-3,
    "bench.edge_position": 25e-3,
    "bench.phase_step": float(np.pi),
    "bench.wedge_tilt": 0.0,
    "bench.edge_loss": 0.3,
    "bench.mixed": False,
    "bench.phi_deg": 12.92,
    "bench.photon_budget": 1e8,
    "pipeline.noise": True,
    "pipeline.seed": 1234,
    "pipeline.scans": 10,
    "pipeline.correct": True,
    "propagation.dz": (0.084, 0.16, 0.325),
    "output.dir": "out",
    "output.figures": ("magnitude", "phase", "real", "imag"),
}

_FIGURE_KINDS = ("magnitude", "phase", "real", "imag")


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
    figures: tuple


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


def _coerce(key: str, raw, default):
    if not isinstance(raw, str):
        return raw
    try:
        if isinstance(default, bool):
            return _parse_bool(key, raw)
        if isinstance(default, int):
            return int(raw.strip())
        if isinstance(default, float):
            return float(raw.strip())
        if isinstance(default, tuple):
            items = [s.strip() for s in raw.split(",") if s.strip()]
            if default and isinstance(default[0], float):
                return tuple(float(s) for s in items)
            return tuple(items)
        return raw.strip()
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} ({exc})") from exc


def parse_config_file(path: str) -> dict:
    """Read a flat key=value file into a raw string mapping."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
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
    environ = os.environ if environ is None else environ
    out = dict(values)
    for key in DEFAULTS:
        env = environ.get(_env_key(key))
        if env is not None:
            out[key] = env
    return out


def build_run_config(values: dict | None = None) -> RunConfig:
    """Merge raw values over the defaults, coerce, and validate."""
    values = {} if values is None else values
    for key in values:
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
    merged = {}
    for key, default in DEFAULTS.items():
        merged[key] = _coerce(key, values.get(key, default), default)

    unit_map = UnitMap(
        wavelength=merged["units.wavelength"],
        focal_length=merged["units.focal_length"],
        magnification=merged["units.magnification"],
    )
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
    names = {}
    for dz in merged["propagation.dz"]:
        if not 0 <= dz < np.inf:
            raise ConfigError(f"propagation.dz: displacement {dz!r} must be finite and nonnegative")
        name = propagated_name(dz)
        if name in names:
            raise ConfigError(
                f"propagation.dz: {names[name]!r} and {dz!r} would both write {name}"
            )
        names[name] = dz
    for fig in merged["output.figures"]:
        if fig not in _FIGURE_KINDS:
            raise ConfigError(f"output.figures: unknown table kind {fig!r}")

    return RunConfig(
        grid=grid,
        bench=bench,
        noise=merged["pipeline.noise"],
        seed=merged["pipeline.seed"],
        scans=merged["pipeline.scans"],
        correct=merged["pipeline.correct"],
        dz_list=merged["propagation.dz"],
        out_dir=merged["output.dir"],
        figures=merged["output.figures"],
    )


def load_run_config(path: str | None = None, overrides: dict | None = None,
                    environ=None) -> RunConfig:
    """File < environment < explicit overrides, then build and validate."""
    values = parse_config_file(path) if path else {}
    values = apply_env_overrides(values, environ)
    if overrides:
        values.update(overrides)
    return build_run_config(values)
