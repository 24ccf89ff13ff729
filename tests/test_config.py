import os
import re
import subprocess
import sys

import numpy as np
import pytest

import diracsim
from diracsim.cli import main
from diracsim.config import (DEFAULTS, apply_env_overrides, build_run_config,
                             load_run_config, parse_config_file, propagated_name)
from diracsim.errors import ConfigError
from diracsim.qstate import BenchConfig

# Every config key.  A new option shows up here as a reviewed diff.
KEYS = {
    "grid.n", "grid.dx", "grid.x0",
    "units.wavelength", "units.focal_length", "units.magnification",
    "bench.aperture_halfwidth", "bench.edge_position", "bench.phase_step",
    "bench.wedge_tilt", "bench.edge_loss", "bench.mixed", "bench.phi_deg",
    "bench.photon_budget",
    "pipeline.noise", "pipeline.seed", "pipeline.scans", "pipeline.correct",
    "propagation.dz", "output.dir",
}


def test_the_config_keys_are_pinned():
    assert set(DEFAULTS) == KEYS


def test_importing_the_config_loads_no_file_writer():
    """``output.figures`` was ``config``'s only use of ``fileio``."""
    code = "import sys, diracsim.config; print('diracsim.fileio' in sys.modules)"
    src = os.path.dirname(os.path.dirname(diracsim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert run.stdout.split() == ["False"]


# ``output.figures`` chose the tables ``figures`` wrote; it now always writes
# all four, and the key is refused as any unknown key is.

def test_the_retired_figures_key_in_a_file_exits_2_without_output(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("output.figures = real\n")
    out = tmp_path / "out"
    assert main(["figures", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"diracsim: config error: {path}:1: "
                            "unknown config key 'output.figures'\n")
    assert not out.exists()


def test_the_retired_figures_variable_exits_2_without_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DIRACSIM_OUTPUT_FIGURES", "real")
    out = tmp_path / "out"
    assert main(["figures", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'DIRACSIM_OUTPUT_FIGURES'" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert not out.exists()
    with pytest.raises(ConfigError, match="'DIRACSIM_OUTPUT_FIGURES'"):
        load_run_config(environ={"DIRACSIM_OUTPUT_FIGURES": "real"})


@pytest.mark.parametrize("value", ["real", ("real",)])
def test_the_retired_figures_key_is_refused_by_the_library(value):
    with pytest.raises(ConfigError, match=r"^unknown config key 'output\.figures'$"):
        load_run_config(overrides={"output.figures": value})
    with pytest.raises(ConfigError, match=r"^unknown config key 'output\.figures'$"):
        build_run_config({"output.figures": value})


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


def test_bench_defaults_have_one_source_and_the_reference_values():
    """``DEFAULTS`` takes its bench values from ``BenchConfig``; both hold the
    reference bench, and the default run config rebuilds it bit for bit."""
    reference = {"bench.phase_step": float(np.pi), "bench.wedge_tilt": 0.0,
                 "bench.edge_loss": 0.3, "bench.mixed": False, "bench.phi_deg": 12.92,
                 "bench.photon_budget": 1e8}
    assert {key: DEFAULTS[key] for key in reference} == reference
    assert all(type(DEFAULTS[key]) is type(value) for key, value in reference.items())
    # phi is kept in degrees, and the round trip through radians is exact
    assert np.rad2deg(np.deg2rad(12.92)) == 12.92
    bench = BenchConfig(aperture_halfwidth=22e-3, edge_position=25e-3)
    assert bench.phi == np.deg2rad(12.92)
    assert build_run_config().bench == bench


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


def test_key_set_twice_is_refused_with_both_lines(tmp_path):
    """At the parent the last line won without a word: a 32-site grid."""
    path = tmp_path / "run.cfg"
    path.write_text("grid.n = 16\n# a comment\ngrid.n = 32\ngrid.dx = 0.00275\n")
    with pytest.raises(ConfigError) as info:
        load_run_config(str(path))
    assert str(info.value) == f"{path}:3: config key 'grid.n' is already set on line 1"
    # the same value twice is refused too
    path.write_text("pipeline.seed = 1\npipeline.seed = 1\n")
    with pytest.raises(ConfigError, match="run.cfg:2: config key 'pipeline.seed' is already "
                                          "set on line 1"):
        parse_config_file(str(path))


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
    values = apply_env_overrides({}, {"DIRACSIM_GRID_N": "64", "HOME": "/home/user"})
    assert values == {"grid.n": "64"}


def test_unknown_env_variable_is_rejected(tmp_path):
    env = {"DIRACSIM_PIPELINE_SEED": "2", "DIRACSIM_PROPAGATION_KERNEL": "analytic"}
    with pytest.raises(ConfigError, match="DIRACSIM_PROPAGATION_KERNEL"):
        apply_env_overrides({}, env)
    with pytest.raises(ConfigError, match="DIRACSIM_PROPAGATION_KERNEL"):
        load_run_config(environ=env)


def test_non_utf8_config_file_is_a_config_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"grid.n = 64\xff\n")
    with pytest.raises(ConfigError, match="bad.cfg"):
        parse_config_file(str(path))


# README's example config, comments after runs of spaces included
_README_EXAMPLE = """\
grid.n = 128
grid.dx = 3.4375e-4          # 44 mm / 128
bench.mixed = true           # oscillating plate: incoherent halves
bench.wedge_tilt = 285.6     # phase gradient (rad/m) beyond the edge
pipeline.scans = 10
propagation.dz = 0.084, 0.16, 0.325
output.dir = out
"""


def test_a_hash_inside_a_value_is_part_of_it_on_every_route(tmp_path):
    """A '#' begins a comment at the start of a line or after whitespace, and
    is part of the value anywhere else.  At the parent a file cut every value
    at its first '#': ``run#2`` read as ``run`` and ``16#x`` as 16."""
    path = tmp_path / "run.cfg"
    path.write_text("# run#2\ngrid.n = 16\ngrid.dx = 0.00275\noutput.dir = run#2\t# a tab\n")
    assert load_run_config(str(path), environ={}).out_dir == "run#2"
    assert load_run_config(environ={"DIRACSIM_OUTPUT_DIR": "run#2"}).out_dir == "run#2"
    assert load_run_config(overrides={"output.dir": "run#2"}, environ={}).out_dir == "run#2"
    path.write_text("grid.n = 16#x\ngrid.dx = 0.00275\n")
    with pytest.raises(ConfigError) as info:
        load_run_config(str(path), environ={})
    assert str(info.value) == ("grid.n: cannot parse '16#x' (invalid literal for int() with "
                               "base 10: '16#x')")

    path.write_text(_README_EXAMPLE)
    assert load_run_config(str(path), environ={}) == build_run_config({
        "grid.n": 128, "grid.dx": 3.4375e-4, "bench.mixed": True, "bench.wedge_tilt": 285.6,
        "pipeline.scans": 10, "propagation.dz": (0.084, 0.16, 0.325), "output.dir": "out"})


def test_a_leading_byte_order_mark_is_skipped(tmp_path):
    """At the parent line 1 of a file saved with a UTF-8 byte-order mark
    read as the unknown key '\\ufeffgrid.n'.  A mark elsewhere stays part of
    its line."""
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbfgrid.n = 16\ngrid.dx = 0.00275\n")
    assert parse_config_file(str(path)) == {"grid.n": "16", "grid.dx": "0.00275"}
    assert load_run_config(str(path), environ={}).grid.n == 16
    path.write_bytes(b"grid.n = 16\n\xef\xbb\xbfgrid.dx = 0.00275\n")
    with pytest.raises(ConfigError) as info:
        parse_config_file(str(path))
    assert str(info.value) == "%s:2: unknown config key %r" % (path, "\ufeffgrid.dx")


def test_semantic_validation():
    with pytest.raises(ConfigError, match="edge_position"):
        build_run_config({"bench.edge_position": "0.09"})
    with pytest.raises(ConfigError, match="scans"):
        build_run_config({"pipeline.scans": "0"})
    with pytest.raises(ConfigError, match="unknown config key 'propagation.kernel'"):
        build_run_config({"propagation.kernel": "unitary"})
    with pytest.raises(ConfigError, match="wavelength"):
        build_run_config({"units.wavelength": "-1"})
    with pytest.raises(ConfigError, match="wavelength"):
        build_run_config({"units.wavelength": "nan"})
    with pytest.raises(ConfigError, match="x0"):
        build_run_config({"grid.x0": "inf"})
    for dz in ("0.1, nan", "inf", "-0.1"):
        with pytest.raises(ConfigError, match="propagation.dz: .* must be finite and nonnegative"):
            build_run_config({"propagation.dz": dz})
    for key in ("bench.phase_step", "bench.wedge_tilt"):
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match=f"{key} .* must be finite"):
                build_run_config({key: value})


def test_every_default_key_coerces():
    raw = {key: str(DEFAULTS[key]) if not isinstance(DEFAULTS[key], tuple)
           else ",".join(str(v) for v in DEFAULTS[key]) for key in DEFAULTS}
    cfg = build_run_config(raw)
    assert cfg.grid.n == 256


@pytest.mark.parametrize("dz", ["0.1, 0.1", "0.1, 0.1000001", "0, 0.084, 0.0840000001",
                                "0, -0.0"])
def test_propagation_dz_output_names_distinct(dz):
    with pytest.raises(ConfigError, match=r"propagation.dz: .* would both write propagated_dz0"):
        build_run_config({"propagation.dz": dz})


@pytest.mark.parametrize("dz", ["-0.0", (-0.0,)])
def test_a_negative_zero_displacement_is_zero(dz):
    (zero,) = build_run_config({"propagation.dz": dz}).dz_list
    assert zero == 0 and np.copysign(1.0, zero) == 1.0
    assert propagated_name(zero) == "propagated_dz0.txt"


@pytest.mark.parametrize("key, env", [("propagation.dz", "DIRACSIM_PROPAGATION_DZ")])
def test_an_empty_list_is_refused_on_every_route(tmp_path, key, env):
    """At the parent an empty list was taken, and ``propagate`` exited 0
    having written nothing."""
    message = rf"^{key}: the list is empty"
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} =\n")
    with pytest.raises(ConfigError, match=message):
        load_run_config(str(path))
    with pytest.raises(ConfigError, match=message):
        load_run_config(environ={env: ""})
    with pytest.raises(ConfigError, match=message):
        load_run_config(overrides={key: " , "})
    for value in ((), []):
        with pytest.raises(ConfigError, match=message):
            build_run_config({key: value})


@pytest.mark.parametrize("route", ["file", "environment", "override"])
def test_an_empty_item_in_a_list_is_refused_on_every_route(tmp_path, capsys, route):
    """At the parent an empty item was dropped without a word: ``0.084,,0.16``
    gave two planes, so ``propagate`` wrote fewer files than were listed."""
    path = tmp_path / "run.cfg"
    for raw in ("0.084,,0.16", "0.084,", ", 0.1"):
        message = rf"^propagation\.dz: {re.escape(repr(raw))} has an empty item"
        path.write_text(f"propagation.dz = {raw}\n")
        with pytest.raises(ConfigError, match=message):
            if route == "file":
                load_run_config(str(path))
            elif route == "environment":
                load_run_config(environ={"DIRACSIM_PROPAGATION_DZ": raw})
            else:
                load_run_config(overrides={"propagation.dz": raw})
        if route == "file":
            out = tmp_path / "out"
            assert main(["propagate", "--config", str(path), "--out", str(out)]) == 2
            assert re.fullmatch(f"diracsim: config error: {message[1:]}.*\n",
                                capsys.readouterr().err)
            assert not out.exists()


@pytest.mark.parametrize("value", ["", "a\0b"])
def test_an_output_dir_that_names_no_directory_is_refused_on_every_route(tmp_path, value):
    """At the parent an empty output.dir wrote every output into the current
    directory, and a NUL byte ended in os.makedirs' ValueError."""
    message = r"^output\.dir: .* names no directory$"
    path = tmp_path / "run.cfg"
    path.write_text(f"output.dir = {value}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=message):
        load_run_config(str(path))
    with pytest.raises(ConfigError, match=message):
        load_run_config(environ={"DIRACSIM_OUTPUT_DIR": value})
    with pytest.raises(ConfigError, match=message):
        load_run_config(overrides={"output.dir": f" {value} "})
    with pytest.raises(ConfigError, match=message):
        build_run_config({"output.dir": value})


@pytest.mark.parametrize("key, value", [
    ("pipeline.scans", 2.5),
    ("pipeline.seed", 1.5),
    ("pipeline.seed", True),
    ("pipeline.seed", np.bool_(False)),
    ("grid.n", np.float64(64.0)),
    ("grid.dx", True),
    ("bench.photon_budget", None),
    ("bench.mixed", 1),
    ("pipeline.noise", 0),
    ("propagation.dz", 0.1),
    ("propagation.dz", ("0.1",)),
    ("propagation.dz", [0.1, False]),
    ("output.dir", 3),
])
def test_a_typed_override_of_the_wrong_type_names_its_key(key, value):
    """A value that is not a string must have its default's type.  At the
    parent scans=2.5 and seed=1.5 or True were taken as given, and a bare
    float for propagation.dz ended in a TypeError."""
    with pytest.raises(ConfigError, match=rf"^{key}: "):
        build_run_config({key: value})


def test_typed_overrides_of_the_right_type_are_taken():
    cfg = build_run_config({
        "grid.n": np.int64(64), "grid.dx": 44e-3 / 64, "pipeline.seed": np.uint8(3),
        "pipeline.scans": 2, "bench.photon_budget": 1000, "bench.edge_loss": np.float32(0.25),
        "bench.mixed": np.bool_(True), "pipeline.noise": False,
        "propagation.dz": [0, np.float64(0.1)], "output.dir": "o",
    })
    assert (cfg.grid.n, cfg.seed, cfg.scans) == (64, 3, 2)
    assert all(type(v) is int for v in (cfg.grid.n, cfg.seed, cfg.scans))
    assert type(cfg.bench.photon_budget) is float and cfg.bench.photon_budget == 1000.0
    assert cfg.bench.edge_loss == float(np.float32(0.25))
    assert (cfg.bench.mixed, cfg.noise) == (True, False)
    assert cfg.dz_list == (0.0, 0.1) and all(type(dz) is float for dz in cfg.dz_list)
    assert cfg.out_dir == "o"


FLOAT_KEYS = [key for key, default in DEFAULTS.items() if isinstance(default, float)]


@pytest.mark.parametrize("key", FLOAT_KEYS + ["propagation.dz"])
def test_a_typed_int_too_large_for_a_float_is_refused_by_its_keys_owner(key):
    """The int reads as inf, as ``_as_float`` reads it, and the grid, the
    bench or the displacement check refuses it.  Before ``config._typed``
    read floats through ``_as_float``, each of these escaped as a bare
    OverflowError."""
    assert len(FLOAT_KEYS) == 12
    value = [10 ** 400] if key == "propagation.dz" else 10 ** 400
    with pytest.raises(ConfigError):
        build_run_config({key: value})


@pytest.mark.parametrize("key", FLOAT_KEYS + ["propagation.dz"])
@pytest.mark.parametrize("sign", ["", "-"], ids=["plus", "minus"])
def test_a_typed_int_too_large_for_a_float_is_refused_as_its_text_is(key, sign):
    """``10 ** 400`` reads as inf of its sign, as ``float("1e400")`` does, so
    the typed and the text override end in the same message.  When the int
    read as nan, the typed message printed ``nan`` where the text one
    printed ``inf``."""
    typed = int(sign + "1" + "0" * 400)
    messages = []
    for value in (typed, sign + "1e400"):
        if key == "propagation.dz" and not isinstance(value, str):
            value = [value]
        with pytest.raises(ConfigError) as refused:
            build_run_config({key: value})
        messages.append(str(refused.value))
    assert messages[0] == messages[1]
    assert "inf" in messages[0] and "nan" not in messages[0]


@pytest.mark.parametrize("key", ["bench.mixed", "pipeline.noise", "pipeline.correct"])
@pytest.mark.parametrize("flag", [True, False])
def test_a_flag_key_takes_a_numpy_bool_as_the_library_does(key, flag):
    """``BenchConfig`` and ``scan`` take a numpy bool; at the parent a
    typed ``np.bool_`` was refused for all three flag keys."""
    cfg = build_run_config({key: np.bool_(flag)})
    assert cfg == build_run_config({key: flag})
    assert all(type(v) is bool for v in (cfg.bench.mixed, cfg.noise, cfg.correct))


@pytest.mark.parametrize("route", ["file", "environment", "override"])
@pytest.mark.parametrize("seed", [-1, True, 1.5])
def test_a_seed_that_is_not_a_nonnegative_integer_names_its_key_on_every_route(
        tmp_path, capsys, route, seed):
    """``pipeline.seed`` is checked by the rule that ``derived_seed`` applies
    to the same value, and every route names the key."""
    path = tmp_path / "run.cfg"
    path.write_text(f"pipeline.seed = {seed}\n")
    with pytest.raises(ConfigError, match=r"^pipeline\.seed"):
        if route == "file":
            load_run_config(str(path), environ={})
        elif route == "environment":
            load_run_config(environ={"DIRACSIM_PIPELINE_SEED": str(seed)})
        else:
            load_run_config(overrides={"pipeline.seed": seed}, environ={})
    if route == "file":
        out = tmp_path / "out"
        assert main(["gen-state", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "pipeline.seed" in err
        assert not out.exists()
