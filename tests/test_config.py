import numpy as np
import pytest

from diracsim.config import (DEFAULTS, apply_env_overrides, build_run_config,
                             load_run_config, parse_config_file)
from diracsim.errors import ConfigError


def test_default_config_builds():
    cfg = build_run_config()
    assert cfg.grid.n == 256
    assert cfg.grid.span == pytest.approx(44e-3)
    assert cfg.grid.x0 == pytest.approx(22e-3)
    assert cfg.bench.edge_position == pytest.approx(25e-3)
    assert cfg.bench.phi == pytest.approx(np.deg2rad(12.92))
    assert cfg.dz_list == (0.084, 0.16, 0.325)
    assert not hasattr(cfg, "kernel")
    assert cfg.scans == 10
    cfg.bench.validate(cfg.grid)


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "grid.n = 32\n"
        "grid.dx = 0.001375   # 44 mm / 32\n"
        "bench.mixed = true\n"
        "propagation.dz = 0.05, 0.1\n"
        "pipeline.seed = 7\n"
    )
    cfg = load_run_config(str(path))
    assert cfg.grid.n == 32
    assert cfg.bench.mixed is True
    assert cfg.dz_list == (0.05, 0.1)
    assert cfg.seed == 7


def test_unknown_key_reports_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("grid.m = 32\n")
    with pytest.raises(ConfigError, match="grid.m"):
        parse_config_file(str(path))
    with pytest.raises(ConfigError, match="nope"):
        build_run_config({"nope": 1})


def test_bad_value_reports_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("grid.n = many\n")
    with pytest.raises(ConfigError, match="grid.n"):
        load_run_config(str(path))
    with pytest.raises(ConfigError, match="bench.mixed"):
        build_run_config({"bench.mixed": "perhaps"})
    with pytest.raises(ConfigError, match="line|key = value"):
        path.write_text("grid.n 32\n")
        parse_config_file(str(path))


def test_env_overrides_and_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("pipeline.seed = 1\n")
    env = {"DIRACSIM_PIPELINE_SEED": "2", "DIRACSIM_BENCH_MIXED": "true"}
    cfg = load_run_config(str(path), environ=env)
    assert cfg.seed == 2
    assert cfg.bench.mixed is True
    cfg2 = load_run_config(str(path), overrides={"pipeline.seed": 3}, environ=env)
    assert cfg2.seed == 3
    values = apply_env_overrides({}, {"DIRACSIM_GRID_N": "64"})
    assert values["grid.n"] == "64"


def test_semantic_validation():
    with pytest.raises(ConfigError, match="edge_position"):
        build_run_config({"bench.edge_position": "0.09"})
    with pytest.raises(ConfigError, match="scans"):
        build_run_config({"pipeline.scans": "0"})
    with pytest.raises(ConfigError, match="unknown config key 'propagation.kernel'"):
        build_run_config({"propagation.kernel": "unitary"})
    with pytest.raises(ConfigError, match="figures"):
        build_run_config({"output.figures": "magnitude,sparkle"})
    with pytest.raises(ConfigError, match="wavelength"):
        build_run_config({"units.wavelength": "-1"})
    with pytest.raises(ConfigError, match="wavelength"):
        build_run_config({"units.wavelength": "nan"})
    with pytest.raises(ConfigError, match="x0"):
        build_run_config({"grid.x0": "inf"})
    for dz in ("0.1, nan", "inf", "-0.1"):
        with pytest.raises(ConfigError, match="propagation.dz: .* must be finite and nonnegative"):
            build_run_config({"propagation.dz": dz})


def test_every_default_key_coerces():
    raw = {key: str(DEFAULTS[key]) if not isinstance(DEFAULTS[key], tuple)
           else ",".join(str(v) for v in DEFAULTS[key]) for key in DEFAULTS}
    cfg = build_run_config(raw)
    assert cfg.grid.n == 256


@pytest.mark.parametrize("dz", ["0.1, 0.1", "0.1, 0.1000001", "0, 0.084, 0.0840000001"])
def test_propagation_dz_output_names_distinct(dz):
    with pytest.raises(ConfigError, match=r"propagation.dz: .* would both write propagated_dz0"):
        build_run_config({"propagation.dz": dz})
