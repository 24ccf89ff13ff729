import os

import numpy as np
import pytest

from diracsim import weaksim
from diracsim.cli import main
from diracsim.fileio import read_matrix, read_counts
from diracsim import dirac_distribution, marginal_x
from diracsim.qstate import DensityMatrix
from diracsim.fileio import grid_from_meta

N = 32
DX = 44e-3 / N


def _write_config(tmp_path, extra=""):
    path = tmp_path / "run.cfg"
    path.write_text(
        f"grid.n = {N}\n"
        f"grid.dx = {DX!r}\n"
        "pipeline.scans = 2\n"
        "bench.photon_budget = 1e8\n"
        + extra
    )
    return str(path)


def _run(*argv):
    return main(list(argv))


def test_gen_state_pure_round_trip(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    assert _run("gen-state", "--config", cfg, "--out", out) == 0
    arr, meta = read_matrix(os.path.join(out, "state.txt"))
    grid = grid_from_meta(meta)
    state = DensityMatrix(grid=grid, rho=arr)
    state.validate()
    assert meta["mixed"] == "false"


def test_gen_state_mixed_blocks_zero(tmp_path):
    cfg = _write_config(tmp_path, "bench.mixed = true\n")
    out = str(tmp_path / "out")
    assert _run("gen-state", "--config", cfg, "--out", out) == 0
    arr, meta = read_matrix(os.path.join(out, "state.txt"))
    grid = grid_from_meta(meta)
    beyond = grid.coords > 25e-3
    cross = np.logical_xor.outer(beyond, beyond)
    assert np.max(np.abs(arr[cross])) < 1e-12


def test_malformed_config_exits_2_without_output(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("grid.n = not-a-number\n")
    out = tmp_path / "out"
    assert _run("gen-state", "--config", str(bad), "--out", str(out)) == 2
    assert not out.exists()
    assert "grid.n" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("grid.sides = 3\n")
    assert _run("gen-state", "--config", str(bad)) == 2


def test_measure_analytic_matches_exact(tmp_path):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    assert _run("gen-state", "--config", cfg, "--out", out) == 0
    assert _run("exact", "--config", cfg, "--out", out) == 0
    assert _run("measure", "--config", cfg, "--out", out, "--no-noise") == 0
    exact, _ = read_matrix(os.path.join(out, "dirac_exact.txt"))
    measured, meta = read_matrix(os.path.join(out, "dirac_measured.txt"))
    assert meta["corrected"] == "true"
    assert np.max(np.abs(measured - exact)) < 1e-9
    # lab-style corrected reconstruction matches the generated state
    state, _ = read_matrix(os.path.join(out, "state.txt"))
    density, _ = read_matrix(os.path.join(out, "density_measured.txt"))
    assert np.max(np.abs(density - state)) < 1e-9
    # per-sliver counts present and valid: each analyzer pair holds the budget
    for m in range(N):
        counts, meta = read_counts(os.path.join(out, "counts", f"sliver_{m:04d}.txt"))
        assert (meta["sliver_lo"], meta["sliver_hi"], meta["seed"]) == (str(m), str(m + 1), "none")
        assert counts.shape == (4, N) and np.all(counts >= 0)
        assert abs(counts[0].sum() + counts[1].sum() - 1e8) <= 1e-6 * 1e8
        assert abs(counts[2].sum() + counts[3].sum() - 1e8) <= 1e-6 * 1e8


def test_measure_deterministic_with_seed(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        assert _run("gen-state", "--config", cfg, "--out", out) == 0
        assert _run("measure", "--config", cfg, "--out", out, "--seed", "42") == 0
    for name in ("dirac_measured.txt", os.path.join("counts", "sliver_0003.txt")):
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        assert b1 == b2


def test_measure_reads_out_once_and_redraws_noise_per_scan(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, "pipeline.scans = 3\npipeline.seed = 9\n")
    out = str(tmp_path / "out")
    assert _run("gen-state", "--config", cfg, "--out", out) == 0
    weaksim.default_calibration()  # its own readout is cached per process
    calls = []
    readout = weaksim.readout_intensities
    monkeypatch.setattr(weaksim, "readout_intensities",
                        lambda *a, **kw: calls.append(a) or readout(*a, **kw))
    assert _run("measure", "--config", cfg, "--out", out) == 0
    assert len(calls) == 1
    _, meta = read_matrix(os.path.join(out, "dirac_measured.txt"))
    assert meta["scans"] == "3"
    # the counts files hold the first scan; sliver m was drawn from derived_seed(rep_seed, m)
    rep_seed = weaksim.derived_seed(9, 10_000_000)
    expected = readout(*calls[0])
    for m in (0, 5, N - 1):
        counts, meta = read_counts(os.path.join(out, "counts", f"sliver_{m:04d}.txt"))
        assert meta["seed"] == str(weaksim.derived_seed(rep_seed, m))
        rng = np.random.default_rng(weaksim.derived_seed(rep_seed, m))
        assert np.array_equal(counts, rng.poisson(expected[:, m]))


def test_measure_zero_budget_exits_3(tmp_path, capsys):
    cfg = _write_config(tmp_path, "bench.photon_budget = 0\n")
    out = str(tmp_path / "out")
    assert _run("gen-state", "--config", cfg, "--out", out) == 0
    assert _run("measure", "--config", cfg, "--out", out) == 3
    assert "photon" in capsys.readouterr().err.lower()


def test_negative_seed_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    assert _run("gen-state", "--config", cfg, "--out", out) == 0
    assert _run("measure", "--config", cfg, "--out", out, "--seed", "-1") == 2
    assert "pipeline.seed" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "dirac_measured.txt"))


@pytest.mark.parametrize("flags", [(), ("--no-noise",)])
def test_infinite_budget_exits_2(tmp_path, capsys, flags):
    out = str(tmp_path / "out")
    assert _run("gen-state", "--config", _write_config(tmp_path), "--out", out) == 0
    cfg = _write_config(tmp_path, "bench.photon_budget = inf\n")
    assert _run("measure", "--config", cfg, "--out", out, *flags) == 2
    assert "photon_budget" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "dirac_measured.txt"))


def test_reconstruct_round_trip(tmp_path):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    assert _run("gen-state", "--config", cfg, "--out", out) == 0
    assert _run("exact", "--config", cfg, "--out", out) == 0
    assert _run("reconstruct", "--config", cfg, "--out", out) == 0
    state, _ = read_matrix(os.path.join(out, "state.txt"))
    density, _ = read_matrix(os.path.join(out, "density.txt"))
    assert np.max(np.abs(density - state)) < 1e-9


def test_props_report(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    assert _run("gen-state", "--config", cfg, "--out", out) == 0
    assert _run("exact", "--config", cfg, "--out", out) == 0
    assert _run("props", "--config", cfg, "--out", out) == 0
    report = open(os.path.join(out, "props.txt")).read()
    assert "PASS normalization" in report
    assert "PASS purity" in report
    assert abs(float(report.split("PASS purity: ")[1].split()[0]) - 1.0) < 1e-9


def test_propagate_identity_at_dz_zero(tmp_path):
    cfg = _write_config(tmp_path, "propagation.dz = 0\n")
    out = str(tmp_path / "out")
    assert _run("gen-state", "--config", cfg, "--out", out) == 0
    assert _run("exact", "--config", cfg, "--out", out) == 0
    assert _run("propagate", "--config", cfg, "--out", out) == 0
    exact, _ = read_matrix(os.path.join(out, "dirac_exact.txt"))
    prop, meta = read_matrix(os.path.join(out, "propagated_dz0.txt"))
    assert meta["kernel"] == "discrete-unitary"
    assert np.max(np.abs(prop - exact)) < 1e-12


@pytest.mark.parametrize("value", ["analytic", "unitary"])
def test_propagation_kernel_key_exits_2_without_output(tmp_path, capsys, value):
    out = str(tmp_path / "out")
    assert _run("gen-state", "--config", _write_config(tmp_path), "--out", out) == 0
    assert _run("exact", "--config", _write_config(tmp_path), "--out", out) == 0
    capsys.readouterr()
    cfg = _write_config(tmp_path, f"propagation.kernel = {value}\n")
    assert _run("propagate", "--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unknown config key 'propagation.kernel'" in err
    assert not [name for name in os.listdir(out) if name.startswith("propagated")]


def _load_csv(path):
    rows = [line.split(",") for line in open(path).read().splitlines()]
    cols = np.array([float(v) for v in rows[0][1:]])
    coords = np.array([float(r[0]) for r in rows[1:]])
    table = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    return coords, cols, table


def test_figures_tables(tmp_path):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    assert _run("gen-state", "--config", cfg, "--out", out) == 0
    assert _run("exact", "--config", cfg, "--out", out) == 0
    assert _run("figures", "--config", cfg, "--out", out) == 0

    arr, meta = read_matrix(os.path.join(out, "dirac_exact.txt"))
    grid = grid_from_meta(meta)
    dist = dirac_distribution(DensityMatrix(grid=grid, rho=read_matrix(
        os.path.join(out, "state.txt"))[0]))

    x, p, real = _load_csv(os.path.join(out, "fig_dirac_exact_real.csv"))
    assert np.max(np.abs(real.sum(axis=1) - marginal_x(dist))) < 1e-9
    assert np.array_equal(x, grid.coords)
    assert np.array_equal(p, grid.momenta)

    _, _, phase = _load_csv(os.path.join(out, "fig_dirac_exact_phase.csv"))
    assert phase.max() <= np.pi and phase.min() > -np.pi
    # overlay-corrected adjacent-x phase jumps peak at the glass edge
    _, _, mag = _load_csv(os.path.join(out, "fig_dirac_exact_magnitude.csv"))
    overlay = np.outer(grid.coords, grid.momenta)
    corrected = phase + overlay
    diff = corrected[1:, :] - corrected[:-1, :]
    wrapped = np.abs(np.angle(np.exp(1j * diff)))
    solid = (mag[1:, :] > 1e-6) & (mag[:-1, :] > 1e-6)
    mean_jump = np.where(solid, wrapped, 0.0).sum(axis=1) / solid.sum(axis=1)
    edge_pair = np.flatnonzero(grid.coords <= 25e-3)[-1]
    assert int(np.argmax(mean_jump)) == edge_pair
    assert mean_jump[edge_pair] == pytest.approx(np.pi, rel=1e-6)


def test_figures_deterministic(tmp_path):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    assert _run("gen-state", "--config", cfg, "--out", out) == 0
    assert _run("exact", "--config", cfg, "--out", out) == 0
    assert _run("figures", "--config", cfg, "--out", out) == 0
    first = open(os.path.join(out, "fig_dirac_exact_phase.csv"), "rb").read()
    assert _run("figures", "--config", cfg, "--out", out) == 0
    assert open(os.path.join(out, "fig_dirac_exact_phase.csv"), "rb").read() == first


def test_env_override_reaches_cli(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    monkeypatch.setenv("DIRACSIM_BENCH_MIXED", "true")
    assert _run("gen-state", "--config", cfg, "--out", out) == 0
    _, meta = read_matrix(os.path.join(out, "state.txt"))
    assert meta["mixed"] == "true"


def _replace_in_file(path, old, new, count=1):
    text = open(path).read()
    assert old in text
    open(path, "w").write(text.replace(old, new, count))


@pytest.mark.parametrize("command, name", [("exact", "state.txt"),
                                           ("propagate", "dirac_exact.txt")])
def test_header_n_must_match_matrix_shape(tmp_path, capsys, command, name):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    assert _run("gen-state", "--config", cfg, "--out", out) == 0
    assert _run("exact", "--config", cfg, "--out", out) == 0
    _replace_in_file(os.path.join(out, name), f"# n={N}\n", "# n=16\n")
    capsys.readouterr()
    assert _run(command, "--config", cfg, "--out", out) == 3
    err = capsys.readouterr().err
    assert f"{N}x{N} matrix does not match header n=16" in err
    assert len(err.strip().splitlines()) == 1


def test_non_finite_distribution_exits_3_without_output(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    assert _run("gen-state", "--config", cfg, "--out", out) == 0
    assert _run("exact", "--config", cfg, "--out", out) == 0
    path = os.path.join(out, "dirac_exact.txt")
    lines = open(path).read().splitlines(keepends=True)
    body = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    i, j, re, _ = lines[body + 5].split()
    lines[body + 5] = f"{i} {j} {re} nan\n"
    open(path, "w").write("".join(lines))
    before = sorted(os.listdir(out))
    capsys.readouterr()
    assert _run("propagate", "--config", cfg, "--out", out) == 3
    assert f"dirac_exact.txt:{body + 6}: non-finite value" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == before


def test_kind_header_checked(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    state = os.path.join(out, "state.txt")
    assert _run("gen-state", "--config", cfg, "--out", out) == 0
    capsys.readouterr()
    assert _run("props", "--config", cfg, "--out", out, "--dirac", state) == 3
    assert "expected kind=dirac, got kind=density" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "props.txt"))
    _replace_in_file(state, "# kind=density\n", "")
    assert _run("exact", "--config", cfg, "--out", out) == 3
    assert "expected kind=density, got kind=(none)" in capsys.readouterr().err
    # figures tabulates every kind
    assert _run("figures", "--config", cfg, "--out", out, "--input", state) == 0


@pytest.mark.parametrize("command, flag, name, key, value", [
    ("exact", "--state", "state.txt", "dx", "-1"),
    ("exact", "--state", "state.txt", "x0", "nan"),
    ("propagate", "--dirac", "dirac_exact.txt", "wavelength", "nan"),
])
def test_bad_grid_header_exits_3_without_output(tmp_path, capsys, command, flag, name,
                                                key, value):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    assert _run("gen-state", "--config", cfg, "--out", out) == 0
    assert _run("exact", "--config", cfg, "--out", out) == 0
    path = os.path.join(out, name)
    lines = open(path).read().splitlines(keepends=True)
    k = next(k for k, line in enumerate(lines) if line.startswith(f"# {key}="))
    lines[k] = f"# {key}={value}\n"
    open(path, "w").write("".join(lines))
    fresh = str(tmp_path / "fresh")
    capsys.readouterr()
    assert _run(command, "--config", cfg, "--out", fresh, flag, path) == 3
    err = capsys.readouterr().err
    assert f"{name}: incomplete or invalid grid header" in err and key in err
    assert len(err.strip().splitlines()) == 1
    assert not os.path.exists(fresh)


def test_non_finite_dz_exits_2_without_output(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    assert _run("gen-state", "--config", cfg, "--out", out) == 0
    assert _run("exact", "--config", cfg, "--out", out) == 0
    before = sorted(os.listdir(out))
    cfg = _write_config(tmp_path, "propagation.dz = 0.1, nan\n")
    capsys.readouterr()
    assert _run("propagate", "--config", cfg, "--out", out) == 2
    assert "propagation.dz" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == before


def test_oversized_shape_claim_exits_3(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("# diracsim matrix v1\n# rows=10000000000\n# cols=10000000000\n"
                    "# kind=dirac\n0 0 1 0\n")
    out = str(tmp_path / "out")
    capsys.readouterr()
    assert _run("props", "--out", out, "--dirac", str(path)) == 3
    err = capsys.readouterr().err
    assert "missing 99999999999999999999 matrix entries" in err
    assert len(err.strip().splitlines()) == 1
    assert not os.path.exists(out)
