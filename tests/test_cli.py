import os
import re
from pathlib import Path

import numpy as np
import pytest

from diracsim import cli, dirac, qstate, weaksim
from diracsim.cli import main
from diracsim.fileio import read_matrix, write_matrix
from diracsim import (Grid, dirac_distribution, direct_measure_displaced, marginal_x,
                      random_density_matrix, scan)
from diracsim.qstate import DensityMatrix
from diracsim.fileio import grid_from_meta

from diracsim.config import load_run_config

from conftest import (TWIN_DIR, bench_grid, count_text_parses, drop_twins, load_counts,
                      measure_oracle, twin_name)

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


def _scan_config(tmp_path, n, extra=""):
    path = tmp_path / f"n{n}.cfg"
    path.write_text(f"grid.n = {n}\ngrid.dx = {44e-3 / n!r}\n" + extra)
    return str(path)


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
    bad.write_bytes(b"grid.n = 64\xff\n")
    assert _run("gen-state", "--config", str(bad), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "bad.cfg" in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


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
        counts, meta = load_counts(os.path.join(out, "counts", f"sliver_{m:04d}.txt"))
        assert (meta["sliver_lo"], meta["sliver_hi"], meta["seed"]) == (str(m), str(m + 1), "none")
        assert counts.shape == (4, N) and np.all(counts >= 0)
        assert abs(counts[0].sum() + counts[1].sum() - 1e8) <= 1e-9 * 1e8
        assert abs(counts[2].sum() + counts[3].sum() - 1e8) <= 1e-9 * 1e8


def test_measure_deterministic_with_seed(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        assert _run("gen-state", "--config", cfg, "--out", out) == 0
        assert _run("measure", "--config", cfg, "--out", out, "--seed", "42") == 0
    for name in ("dirac_measured.txt", os.path.join("counts", "sliver_0003.txt")):
        b1 = Path(out1, name).read_bytes()
        b2 = Path(out2, name).read_bytes()
        assert b1 == b2


def test_measure_reads_out_once_and_redraws_noise_per_scan(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, "pipeline.scans = 3\npipeline.seed = 9\n")
    out = str(tmp_path / "out")
    assert _run("gen-state", "--config", cfg, "--out", out) == 0
    weaksim.default_calibration()  # its own readout is cached per process
    calls = []
    readout = weaksim.sliver_readout
    monkeypatch.setattr(weaksim, "sliver_readout",
                        lambda *a, **kw: calls.append(a) or readout(*a, **kw))
    assert _run("measure", "--config", cfg, "--out", out) == 0
    assert len(calls) == 1
    _, meta = read_matrix(os.path.join(out, "dirac_measured.txt"))
    assert meta["scans"] == "3"
    # the counts files hold the first scan; sliver m was drawn from derived_seed(rep_seed, m)
    rep_seed = weaksim.derived_seed(9, 10_000_000)
    expected = readout(*calls[0]).intensities(0, N)
    for m in (0, 5, N - 1):
        counts, meta = load_counts(os.path.join(out, "counts", f"sliver_{m:04d}.txt"))
        assert meta["seed"] == str(weaksim.derived_seed(rep_seed, m))
        rng = np.random.default_rng(weaksim.derived_seed(rep_seed, m))
        assert np.array_equal(counts, rng.poisson(expected[:, m]))


@pytest.mark.parametrize("n", [16, 64, 97, 130])
@pytest.mark.parametrize("flag, overrides", [
    (None, {}),
    ("--no-noise", {"pipeline.noise": False}),
    ("--no-correction", {"pipeline.correct": False}),
], ids=["noisy", "no-noise", "no-correction"])
def test_measure_writes_the_whole_scan_bytes(tmp_path, n, flag, overrides):
    """Scanned block by block, a partial last block included, measure writes
    every byte that the whole-array composition of the library writes."""
    cfg = _scan_config(tmp_path, n, "pipeline.scans = 3\npipeline.seed = 11\n")
    out, want = tmp_path / "out", tmp_path / "oracle"
    assert _run("gen-state", "--config", cfg, "--out", str(out)) == 0
    assert _run("measure", "--config", cfg, "--out", str(out), *filter(None, [flag])) == 0
    arr, meta = read_matrix(str(out / "state.txt"))
    state = DensityMatrix(grid=grid_from_meta(meta, "state.txt"), rho=arr)
    measure_oracle(load_run_config(cfg, overrides), state, str(want))
    state_twin = Path(TWIN_DIR, twin_name(out / "state.txt"))
    (out / "state.txt").unlink()
    matrices = ["dirac_measured.txt"] + (["density_measured.txt"] if flag != "--no-correction"
                                         else [])
    files = sorted([Path(name) for name in matrices]
                   + [Path(TWIN_DIR, twin_name(want / name)) for name in matrices]
                   + [Path("counts", f"sliver_{m:04d}.txt") for m in range(n)])
    assert sorted(path.relative_to(want) for path in want.rglob("*") if path.is_file()) == files
    assert (sorted(path.relative_to(out) for path in out.rglob("*") if path.is_file())
            == sorted(files + [state_twin]))
    for rel in files:
        assert (out / rel).read_bytes() == (want / rel).read_bytes(), rel


def test_no_photons_in_a_later_block_names_the_scan_sliver(tmp_path, capsys, monkeypatch):
    cfg = _scan_config(tmp_path, 300, "pipeline.scans = 2\npipeline.seed = 4\n")
    out = tmp_path / "out"
    assert _run("gen-state", "--config", cfg, "--out", str(out)) == 0
    capsys.readouterr()
    # the second scan's draw of sliver 70's row block, not the first block,
    # loses sliver 70's linear pair
    grid = grid_from_meta(read_matrix(str(out / "state.txt"))[1])
    lo, hi = next((lo, hi) for lo, hi in grid.row_blocks() if lo <= 70 < hi)
    assert lo > 0
    first_seed = weaksim.derived_seed(weaksim.derived_seed(4, 10_000_001), lo)
    draw = weaksim.sample_counts

    def lose_sliver_70(expected, seeds):
        counts = draw(expected, seeds)
        if seeds[0] == first_seed:
            counts[:2, 70 - lo] = 0.0
        return counts

    monkeypatch.setattr(weaksim, "sample_counts", lose_sliver_70)
    assert _run("measure", "--config", cfg, "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert "sliver 70: no photons" in err and len(err.strip().splitlines()) == 1
    # the failed run keeps the counts files of the blocks whose first scan it drew
    assert sorted(os.listdir(out)) == [TWIN_DIR, "counts", "state.txt"]
    assert os.listdir(out / TWIN_DIR) == [twin_name(out / "state.txt")]
    assert sorted(os.listdir(out / "counts")) == [f"sliver_{m:04d}.txt" for m in range(hi)]


def test_bad_mean_in_the_last_block_is_refused_before_any_output(tmp_path, capsys,
                                                                 monkeypatch):
    cfg = _scan_config(tmp_path, 130)
    out = tmp_path / "out"
    assert _run("gen-state", "--config", cfg, "--out", str(out)) == 0
    capsys.readouterr()
    form = weaksim.SliverReadout.intensities

    def nan_at_sliver_129(readout, lo, hi):
        counts = form(readout, lo, hi)
        if lo <= 129 < hi:
            counts[0, 129 - lo, 0] = np.nan
        return counts

    monkeypatch.setattr(weaksim.SliverReadout, "intensities", nan_at_sliver_129)
    assert _run("measure", "--config", cfg, "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert "not NaN" in err and len(err.strip().splitlines()) == 1
    assert sorted(os.listdir(out)) == [TWIN_DIR, "state.txt"]
    assert os.listdir(out / TWIN_DIR) == [twin_name(out / "state.txt")]
    # no draw, so no check of the means: the estimator names the sliver
    assert _run("measure", "--config", cfg, "--out", str(out), "--no-noise") == 3
    assert "sliver 129: analyzer counts are not finite" in capsys.readouterr().err


def test_measure_and_scan_run_the_same_experiment(tmp_path):
    """One noisy scan of measure is ``scan`` with the seed of scan 0."""
    cfg = _scan_config(tmp_path, 130, "pipeline.scans = 1\npipeline.seed = 5\n")
    out = tmp_path / "out"
    assert _run("gen-state", "--config", cfg, "--out", str(out)) == 0
    assert _run("measure", "--config", cfg, "--out", str(out), "--no-correction") == 0
    arr, meta = read_matrix(str(out / "state.txt"))
    state = DensityMatrix(grid=grid_from_meta(meta, "state.txt"), rho=arr)
    measured, _ = read_matrix(str(out / "dirac_measured.txt"))
    want = weaksim.scan(state, load_run_config(cfg, {}).bench, noise=True,
                        seed=weaksim.derived_seed(5, 10_000_000), correct=False)
    assert np.array_equal(measured, want.d)


def test_each_stage_function_gives_what_its_command_writes(tmp_path, capsys):
    """The stage functions, called on objects, give the arrays that their
    commands write (bit for bit through ``read_matrix``) and the report lines
    of props.txt: ``weaksim.mean_estimate`` (at n = 130, two row blocks, 2
    noisy scans), ``cli.propagate`` over two planes, ``cli.props`` and the
    entries of ``cli.figures``."""
    cfg_path = _scan_config(tmp_path, 130, "pipeline.scans = 2\npropagation.dz = 0.084, 0.16\n")
    out = tmp_path / "out"
    for stage in ("gen-state", "exact", "measure", "propagate", "props", "figures"):
        assert _run(stage, "--config", cfg_path, "--out", str(out)) == 0
    cfg = load_run_config(cfg_path)
    arr, meta = read_matrix(str(out / "state.txt"))
    state = DensityMatrix(grid=grid_from_meta(meta, "state.txt"), rho=arr)
    arr, meta = read_matrix(str(out / "dirac_exact.txt"))
    dist = dirac.DiracDistribution(grid=grid_from_meta(meta, "dirac_exact.txt"), d=arr)

    readout = weaksim.sliver_readout(state, cfg.bench.phi, cfg.bench.photon_budget)
    seeds = [weaksim.sliver_seeds(weaksim.derived_seed(cfg.seed, 10_000_000 + rep), 130)
             for rep in range(2)]
    firsts = []
    raw, offset = weaksim.mean_estimate(readout, seeds,
                                        lambda lo, counts: firsts.append((lo, counts.copy())))
    assert [lo for lo, _ in firsts] == [lo for lo, _ in state.grid.row_blocks()]
    for lo, counts in firsts:
        for m in range(lo, lo + counts.shape[1]):
            written, _ = load_counts(out / "counts" / f"sliver_{m:04d}.txt")
            assert np.array_equal(written, counts[:, m - lo])
    assert read_matrix(str(out / "dirac_measured.txt"))[0].tobytes() == (raw + offset).tobytes()

    planes = []
    for prop in cli.propagate(dist, cfg.dz_list):
        planes.append(prop.dz)
        written, meta = read_matrix(str(out / f"propagated_dz{prop.dz:g}.txt"))
        assert written.tobytes() == prop.e.tobytes() and meta["kernel"] == prop.kind
    assert planes == [0.084, 0.16]

    assert cli.props(dist) == (out / "props.txt").read_text().splitlines()

    names = []
    for name, entry in cli.figures("dirac_exact"):
        names.append(name)
        table = np.loadtxt(out / name, delimiter=",", skiprows=1)[:, 1:]
        assert table.tobytes() == entry(dist.d).tobytes()
    assert names == [f"fig_dirac_exact_{kind}.csv" for kind in ("magnitude", "phase", "real",
                                                                "imag")]


def test_measure_holds_one_block_of_counts(tmp_path):
    """At n = 256 with 3 noisy scans, measure's traced peak stays under
    10 MiB.  A whole-scan measure holds the (4, n, n) expected counts, a
    scan's draw and the first scan's draw (2 MiB each) next to its n x n
    arrays and peaks at 13.4 MiB."""
    import tracemalloc

    cfg = _scan_config(tmp_path, 256, "pipeline.scans = 3\n")
    out = str(tmp_path / "out")
    assert _run("gen-state", "--config", cfg, "--out", out) == 0
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert _run("measure", "--config", cfg, "--out", out) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2 ** 20, peak


def test_stages_never_build_the_overlap_matrix(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    assert _run("gen-state", "--config", cfg, "--out", out) == 0

    def refuse(grid):
        raise AssertionError(f"the n={grid.n} overlap matrix was built")

    monkeypatch.setattr(Grid, "overlap_matrix", property(refuse))
    weaksim.default_calibration.cache_clear()  # its check runs inside measure again
    for stage in (["exact"], ["reconstruct"], ["measure", "--no-noise"], ["measure"]):
        assert _run(*stage, "--config", cfg, "--out", out) == 0


def test_no_scan_path_builds_the_overlap_matrix(tmp_path, monkeypatch):
    """scan, the displaced-camera scan (noisy and noise-free) and measure
    read out in the momentum basis without U, at n = 130 (two row blocks)."""
    grid, bench = bench_grid(130)
    rho = random_density_matrix(grid, np.random.default_rng(130))
    cfg = _scan_config(tmp_path, 130, "pipeline.scans = 2\n")
    out = str(tmp_path / "out")
    assert _run("gen-state", "--config", cfg, "--out", out) == 0

    def refuse(grid):
        raise AssertionError(f"the n={grid.n} overlap matrix was built")

    monkeypatch.setattr(Grid, "overlap_matrix", property(refuse))
    weaksim.default_calibration.cache_clear()  # its check runs under the patch again
    scan(rho, bench, noise=True, seed=3)
    for noise in (False, True):
        direct_measure_displaced(rho, bench, 0.084, noise=noise, seed=3)
    assert _run("measure", "--config", cfg, "--out", out) == 0


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


def test_budget_beyond_poisson_sampler_exits_2(tmp_path, capsys):
    # n = 130 scans two row blocks of slivers
    for n in (16, 130):
        cfg = _scan_config(tmp_path, n, "bench.photon_budget = 1e300\n")
        out = str(tmp_path / f"out{n}")
        assert _run("gen-state", "--config", cfg, "--out", out) == 0
        capsys.readouterr()
        assert _run("measure", "--config", cfg, "--out", out) == 2
        err = capsys.readouterr().err
        assert "photon_budget" in err and len(err.strip().splitlines()) == 1
        assert sorted(os.listdir(out)) == [TWIN_DIR, "state.txt"]
        twins = os.listdir(os.path.join(out, TWIN_DIR))
        assert twins == [twin_name(os.path.join(out, "state.txt"))]
        assert _run("measure", "--config", cfg, "--out", out, "--no-noise") == 0


@pytest.mark.parametrize("variable", ["DIRACSIM_BENCH_WEDGE_TILT", "DIRACSIM_BENCH_PHASE_STEP"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_bench_phase_exits_2_without_output(tmp_path, capsys, monkeypatch,
                                                      variable, value):
    out = tmp_path / "out"
    monkeypatch.setenv(variable, value)
    # no numpy warning on the way: pyproject.toml makes every warning an error
    assert _run("gen-state", "--config", _write_config(tmp_path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    key = variable[len("DIRACSIM_"):].lower().replace("_", ".", 1)
    assert f"{key} {value} must be finite" in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("flag", [("--seed", "1"), ("--no-noise",), ("--no-correction",)])
@pytest.mark.parametrize("command", ["gen-state", "exact", "reconstruct", "propagate",
                                     "props", "figures"])
def test_pipeline_flags_belong_to_measure(tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        _run(command, "--config", _write_config(tmp_path), "--out", str(out), *flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["exact", "--no-noise"], [], ["measure", "--seed", "x"],
                                  ["nonsense"]])
def test_usage_error_is_one_config_error_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        _run(*argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("diracsim: config error: ")


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        _run("measure", "--help")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: diracsim measure") and "--no-noise" in out


# the full --help text of diracsim and of each stage, at COLUMNS=80
_HELP = {
    (): """\
usage: diracsim [-h]
                {gen-state,measure,exact,reconstruct,propagate,props,figures}
                ...

Dirac quasi-probability bench simulator

positional arguments:
  {gen-state,measure,exact,reconstruct,propagate,props,figures}
    gen-state           build the bench state file
    measure             simulate the weak-measurement scan
    exact               exact Dirac distribution of a state
    reconstruct         density matrix from a distribution
    propagate           Bayes-propagate to displaced planes
    props               distribution property report
    figures             emit CSV heat-map tables

options:
  -h, --help            show this help message and exit
""",
    ("gen-state",): """\
usage: diracsim gen-state [-h] [--config PATH] [--out DIR]

options:
  -h, --help     show this help message and exit
  --config PATH  key=value config file
  --out DIR      output directory (overrides output.dir)
""",
    ("measure",): """\
usage: diracsim measure [-h] [--config PATH] [--out DIR] [--state PATH]
                        [--seed N] [--no-noise] [--no-correction]

options:
  -h, --help       show this help message and exit
  --config PATH    key=value config file
  --out DIR        output directory (overrides output.dir)
  --state PATH     state file (default <out>/state.txt)
  --seed N         override pipeline.seed
  --no-noise       disable photon shot noise
  --no-correction  disable the back-action correction
""",
    ("exact",): """\
usage: diracsim exact [-h] [--config PATH] [--out DIR] [--state PATH]

options:
  -h, --help     show this help message and exit
  --config PATH  key=value config file
  --out DIR      output directory (overrides output.dir)
  --state PATH   state file (default <out>/state.txt)
""",
    ("reconstruct",): """\
usage: diracsim reconstruct [-h] [--config PATH] [--out DIR] [--dirac PATH]

options:
  -h, --help     show this help message and exit
  --config PATH  key=value config file
  --out DIR      output directory (overrides output.dir)
  --dirac PATH   distribution file (default <out>/dirac_exact.txt)
""",
    ("propagate",): """\
usage: diracsim propagate [-h] [--config PATH] [--out DIR] [--dirac PATH]

options:
  -h, --help     show this help message and exit
  --config PATH  key=value config file
  --out DIR      output directory (overrides output.dir)
  --dirac PATH   distribution file (default <out>/dirac_exact.txt)
""",
    ("props",): """\
usage: diracsim props [-h] [--config PATH] [--out DIR] [--dirac PATH]

options:
  -h, --help     show this help message and exit
  --config PATH  key=value config file
  --out DIR      output directory (overrides output.dir)
  --dirac PATH   distribution file (default <out>/dirac_exact.txt)
""",
    ("figures",): """\
usage: diracsim figures [-h] [--config PATH] [--out DIR] [--input PATH]

options:
  -h, --help     show this help message and exit
  --config PATH  key=value config file
  --out DIR      output directory (overrides output.dir)
  --input PATH   matrix file (default <out>/dirac_exact.txt)
""",
}


@pytest.mark.parametrize("argv", list(_HELP))
def test_help_text_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    monkeypatch.setenv("PYTHON_COLORS", "0")  # and may colour it on Python 3.14
    with pytest.raises(SystemExit) as exc:
        _run(*argv, "--help")
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (_HELP[argv], "")


def test_two_runs_build_one_parser(tmp_path, capsys, monkeypatch):
    """Building the parser is most of a refused run's time, so a process
    builds it once."""
    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))  # a subcommand's parser is "diracsim <name>"
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counted)
    getattr(cli._build_parser, "cache_clear", lambda: None)()  # a parser of this test's own
    missing = str(tmp_path / "missing.cfg")
    try:
        assert [_run("exact", "--config", missing) for _ in range(2)] == [2, 2]
    finally:
        getattr(cli._build_parser, "cache_clear", lambda: None)()
    assert built.count("diracsim") == 1
    assert len(capsys.readouterr().err.splitlines()) == 2


def test_a_handler_rebound_after_the_first_run_is_the_one_that_runs(tmp_path, monkeypatch):
    """The parser holds each subcommand's ``_STAGES`` key, not its handler, so
    a handler rebound in ``_STAGES`` (as a tracer rebinds it) runs although
    the parser was built before."""
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    assert _run("gen-state", "--config", cfg, "--out", str(out)) == 0
    key = next(key for key in cli._STAGES if key[0] == "gen-state")
    calls = []
    monkeypatch.setitem(cli._STAGES, key, lambda cfg, path: calls.append((cfg, path)) or 7)
    assert _run("gen-state", "--config", cfg, "--out", str(tmp_path / "again")) == 7
    [(run_cfg, path)] = calls
    assert run_cfg.out_dir == str(tmp_path / "again") and path is None
    assert not (tmp_path / "again").exists()


def _measure_headers(out):
    _, meta = read_matrix(os.path.join(out, "dirac_measured.txt"))
    return meta["seed"], meta["noise"], meta["corrected"]


def test_measure_flags_beat_the_environment_and_the_file(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, "pipeline.seed = 7\npipeline.noise = true\n"
                        "pipeline.correct = true\n"
                        f"output.dir = {tmp_path / 'file'}\n")
    assert _run("gen-state", "--config", cfg, "--out", str(tmp_path / "gen")) == 0
    state = str(tmp_path / "gen" / "state.txt")
    for name, value in (("PIPELINE_SEED", "8"), ("PIPELINE_NOISE", "true"),
                        ("PIPELINE_CORRECT", "true"), ("OUTPUT_DIR", str(tmp_path / "env"))):
        monkeypatch.setenv(f"DIRACSIM_{name}", value)

    # no flag: the environment beats the file
    assert _run("measure", "--config", cfg, "--state", state) == 0
    assert _measure_headers(tmp_path / "env") == ("8", "true", "true")
    assert (tmp_path / "env" / "density_measured.txt").exists()
    # each flag beats both
    out = tmp_path / "flag"
    assert _run("measure", "--config", cfg, "--state", state, "--out", str(out),
                "--seed", "5", "--no-correction") == 0
    assert _measure_headers(out) == ("5", "true", "false")
    assert not (out / "density_measured.txt").exists()
    assert _run("measure", "--config", cfg, "--state", state, "--out", str(out / "quiet"),
                "--no-noise") == 0
    assert _measure_headers(out / "quiet") == ("none", "false", "true")
    assert not (tmp_path / "file").exists()
    # --out '' sets no directory, so output.dir stands: the environment's, else the file's
    (tmp_path / "env" / "dirac_measured.txt").unlink()
    assert _run("measure", "--config", cfg, "--state", state, "--out", "", "--seed", "6") == 0
    assert _measure_headers(tmp_path / "env") == ("6", "true", "true")
    monkeypatch.delenv("DIRACSIM_OUTPUT_DIR")
    assert _run("measure", "--config", cfg, "--state", state, "--out", "") == 0
    assert _measure_headers(tmp_path / "file") == ("8", "true", "true")


@pytest.mark.parametrize("route", ["file", "env"])
def test_an_empty_output_dir_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, route):
    """At the parent gen-state put state.txt and the twin directory beside
    the config and exited 0."""
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(tmp_path, "output.dir =\n" if route == "file" else "")
    if route == "env":
        monkeypatch.setenv("DIRACSIM_OUTPUT_DIR", "")
    assert _run("gen-state", "--config", cfg) == 2
    assert _run("gen-state", "--config", cfg, "--out", "") == 2  # '' falls back to output.dir
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "diracsim: config error: output.dir: '' names no directory\n" * 2
    assert os.listdir(tmp_path) == ["run.cfg"]


@pytest.mark.parametrize("key, value", [("focal_length", "1e308"), ("wavelength", "1e-320"),
                                        ("n", "1" + "0" * 21), ("dx", "1e308")])
def test_a_header_the_lattice_cannot_hold_exits_3(tmp_path, capsys, key, value):
    """A grid header is data, so it exits 3 where the same config value exits
    2.  At the parent focal_length=1e308 raised OverflowError in propagate."""
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    assert _run("gen-state", "--config", cfg, "--out", out) == 0
    assert _run("exact", "--config", cfg, "--out", out) == 0
    before = sorted(os.listdir(out))
    path = Path(out, "dirac_exact.txt")
    text, edits = re.subn(rf"^# {key}=.*$", f"# {key}={value}", path.read_text(), flags=re.M)
    assert edits == 1
    path.write_text(text)
    capsys.readouterr()
    assert _run("propagate", "--config", cfg, "--out", out) == 3
    err = capsys.readouterr().err
    assert "incomplete or invalid grid header" in err and len(err.splitlines()) == 1
    assert sorted(os.listdir(out)) == before


_HUGE_LATTICE = ("grid.n = 16\ngrid.dx = 1e200\ngrid.x0 = 0\nbench.aperture_halfwidth = 7e200\n"
                 "bench.edge_position = 1e199\n")


def test_a_lattice_whose_squared_coordinates_overflow_propagates_at_dz_0(tmp_path, capsys):
    """x^2 overflows on this lattice, but the chirp is formed in lattice units,
    so dz = 0 propagates to the distribution itself and a dz whose phase does
    overflow is a config error.  At the parent propagate exited 2 at dz = 0."""
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_HUGE_LATTICE + "propagation.dz = 0\n")
    for stage in ("gen-state", "exact", "propagate"):
        assert _run(stage, "--config", str(cfg), "--out", str(out)) == 0, capsys.readouterr()
    d, _ = read_matrix(out / "dirac_exact.txt")
    e, meta = read_matrix(out / "propagated_dz0.txt")
    assert meta["dz"] == "0" and np.max(np.abs(e - d)) <= 1e-15 * np.max(np.abs(d))
    capsys.readouterr()
    cfg.write_text(_HUGE_LATTICE + "propagation.dz = 0.084\n")
    assert _run("propagate", "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == "diracsim: config error: camera displacement dz 0.084: the chirp phase is not finite\n"


# the bench phase step + wedge_tilt (x - edge) reaches 8 wedge_tilt at the
# lattice's first site, so a finite wedge_tilt of 1e308 overflows it
_PHASE_LATTICE = ("grid.n = 16\ngrid.dx = 1\ngrid.x0 = 0\nbench.aperture_halfwidth = 8\n"
                  "bench.edge_position = 0\n")


@pytest.mark.parametrize("bench, site", [
    ("bench.wedge_tilt = 1e308\n", -8.0),
    ("bench.phase_step = 1.7e308\nbench.wedge_tilt = 1e307\n", 7.0),  # the sum overflows
])
def test_a_bench_phase_that_overflows_the_lattice_is_a_config_error(tmp_path, monkeypatch,
                                                                      capsys, bench, site):
    """Every stage refuses the config in one line that names the keys, with no
    warning, and writes nothing.  At the parent gen-state printed three
    RuntimeWarnings and exited 3 ('sample vector is not finite')."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(_PHASE_LATTICE + bench)
    for stage in ("gen-state", "exact", "measure", "reconstruct", "propagate", "props",
                  "figures"):
        assert _run(stage, "--config", "run.cfg") == 2, stage
        err = capsys.readouterr().err
        assert err.startswith("diracsim: config error: bench.phase_step, bench.wedge_tilt: "
                              "the bench phase "), err
        assert err.endswith(f" is not finite at lattice site x = {site}\n"), err
        assert len(err.splitlines()) == 1
    assert os.listdir(tmp_path) == ["run.cfg"]


def test_measure_refuses_an_estimate_that_is_not_finite(tmp_path, capsys):
    """bench.phi_deg = 1e-320 passes the config, but T sin(phi) underflows.
    At the parent measure wrote all-NaN files with warnings and exited 0."""
    cfg = _write_config(tmp_path, "bench.phi_deg = 1e-320\n")
    out = tmp_path / "out"
    assert _run("gen-state", "--config", cfg, "--out", str(out)) == 0
    capsys.readouterr()
    for flags in ([], ["--no-noise"]):
        assert _run("measure", "--config", cfg, "--out", str(out), *flags) == 3
        err = capsys.readouterr().err
        assert err.startswith("diracsim: error: sliver 0: estimate is not finite")
        assert len(err.splitlines()) == 1
        assert sorted(os.listdir(out)) == [TWIN_DIR, "state.txt"]


def test_out_of_memory_exits_3_in_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 14.6 TiB for an array")

    monkeypatch.setattr(qstate, "build_bench_state", exhausted)
    out = tmp_path / "out"
    assert _run("gen-state", "--config", _write_config(tmp_path), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err == "diracsim: error: out of memory: Unable to allocate 14.6 TiB for an array\n"
    assert not out.exists()


def _invalid_states():
    not_psd = np.zeros((N, N), dtype=complex)
    not_psd[0, 0], not_psd[1, 1] = 1.5, -0.5
    not_hermitian = np.eye(N, dtype=complex) / N
    not_hermitian[0, 1] = 0.1
    return {"not_psd": (not_psd, "eigenvalue -5.000e-01"),
            "not_hermitian": (not_hermitian, "not Hermitian"),
            "trace_2": (2 * np.eye(N, dtype=complex) / N, "trace")}


@pytest.mark.parametrize("command", ["exact", "measure"])
@pytest.mark.parametrize("kind", sorted(_invalid_states()))
def test_invalid_state_file_exits_3_without_output(tmp_path, capsys, monkeypatch, command,
                                                  kind):
    """Read from its twin or parsed as text, the state gets the same one-line error."""
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    assert _run("gen-state", "--config", cfg, "--out", out) == 0
    _, meta = read_matrix(os.path.join(out, "state.txt"))
    rho, message = _invalid_states()[kind]
    path = str(tmp_path / f"{kind}.txt")
    write_matrix(path, rho, meta)
    fresh = tmp_path / "fresh"
    parses = count_text_parses(monkeypatch)
    outcomes = []
    for twin in (True, False):
        if not twin:
            drop_twins(tmp_path)
        capsys.readouterr()
        code = _run(command, "--config", cfg, "--out", str(fresh), "--state", path)
        outcomes.append((code, capsys.readouterr().err, len(parses)))
        assert not fresh.exists()
    (twin_code, twin_err, twin_parses), (code, err, text_parses) = outcomes
    assert (twin_code, twin_err) == (code, err)
    assert code == 3 and message in err and len(err.strip().splitlines()) == 1
    assert (twin_parses, text_parses) == (0, 1)


def _bad_files():
    """Matrix files that ``write_matrix`` writes, with a twin unless a value
    is not finite, but a command refuses: (command, flag, meta changes, array
    change, message)."""
    nan = np.full((N, N), np.nan + 0j)
    return {
        "kind": ("props", "--dirac", {"kind": "density"}, None, "expected kind=dirac"),
        "header-n": ("exact", "--state", {"n": 16}, None, "does not match header n=16"),
        "non-square": ("reconstruct", "--dirac", {}, lambda d: d[:, :-1],
                       f"{N}x{N - 1} matrix does not match header n={N}"),
        "no-unit-map": ("propagate", "--dirac", dict.fromkeys(["wavelength", "focal_length",
                                                                "magnification"]),
                        None, "wavelength"),
        "bad-grid": ("exact", "--state", {"dx": -1.0}, None, "incomplete or invalid grid header"),
        "non-finite": ("figures", "--input", {}, lambda d: np.where(np.eye(N) > 0, nan, d),
                       ":11: non-finite value in '0 0 nan 0'"),
    }


@pytest.mark.parametrize("case", sorted(_bad_files()))
def test_bad_files_fail_alike_with_and_without_twins(tmp_path, capsys, case):
    """Each file is refused with the same exit code and message whether its
    twin is present or deleted."""
    command, flag, changes, change, message = _bad_files()[case]
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    assert _run("gen-state", "--config", cfg, "--out", out) == 0
    assert _run("exact", "--config", cfg, "--out", out) == 0
    source = "state.txt" if flag == "--state" else "dirac_exact.txt"
    arr, meta = read_matrix(os.path.join(out, source))
    meta = {key: value for key, value in {**meta, **changes}.items()
            if value is not None and key not in ("rows", "cols")}
    path = tmp_path / "bad" / source
    write_matrix(str(path), arr if change is None else change(arr), meta)
    cache = path.parent / TWIN_DIR
    if case == "non-finite":  # no twin that read_matrix would refuse
        assert not cache.exists()
    else:
        assert os.listdir(cache) == [twin_name(path)]
    fresh = tmp_path / "fresh"
    outcomes = []
    for twin in (True, False):
        if not twin and cache.exists():
            drop_twins(path.parent)
        capsys.readouterr()
        outcomes.append((_run(command, "--config", cfg, "--out", str(fresh), flag, str(path)),
                         capsys.readouterr().err))
        assert not fresh.exists()
    assert outcomes[0] == outcomes[1]
    code, err = outcomes[0]
    assert code == 3 and message in err and len(err.strip().splitlines()) == 1


def _n9_chain(tmp_path):
    """gen-state and exact at n = 9: the output directory and the config."""
    cfg = _scan_config(tmp_path, 9)
    out = tmp_path / "out"
    for stage in ("gen-state", "exact"):
        assert _run(stage, "--config", cfg, "--out", str(out)) == 0
    return out, cfg


def test_a_twin_with_one_bit_flipped_gives_way_to_the_text(tmp_path, monkeypatch):
    """The flipped bit sits in the last float of the twin, where the twin still
    loads as a finite array of the right shape.  At the parent read_matrix
    returned it, 2.8e-17 away from the text."""
    out, _ = _n9_chain(tmp_path)
    path = out / "dirac_exact.txt"
    twin = out / TWIN_DIR / twin_name(path)
    data = bytearray(twin.read_bytes())
    data[-1] ^= 1
    twin.write_bytes(bytes(data))
    parses = count_text_parses(monkeypatch)
    back, meta = read_matrix(path)
    assert len(parses) == 1
    drop_twins(out)
    text, text_meta = read_matrix(path)
    assert back.tobytes() == text.tobytes() and meta == text_meta


def test_another_files_twin_gives_way_to_the_text(tmp_path, capsys, monkeypatch):
    """dirac_exact.txt's twin copied over state.txt's: exact reads the state
    from its text and writes what it writes with no twin.  At the parent it
    exited 3 with "density matrix not Hermitian"."""
    out, cfg = _n9_chain(tmp_path)
    cache = out / TWIN_DIR
    (cache / twin_name(out / "state.txt")).write_bytes(
        (cache / twin_name(out / "dirac_exact.txt")).read_bytes())
    outcomes = []
    for twin in (True, False):
        if not twin:
            drop_twins(out)
        parses = count_text_parses(monkeypatch)
        capsys.readouterr()
        fresh = tmp_path / f"twin{twin}"
        code = _run("exact", "--config", cfg, "--out", str(fresh), "--state", str(out / "state.txt"))
        written = fresh / "dirac_exact.txt"
        outcomes.append((code, capsys.readouterr().err, len(parses),
                         written.read_bytes() if written.exists() else None))
        monkeypatch.undo()
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][:3] == (0, "", 1)


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
    report = Path(out, "props.txt").read_text()
    assert "PASS normalization" in report
    assert "PASS purity" in report
    assert abs(float(report.split("PASS purity: ")[1].split()[0]) - 1.0) < 1e-9


def test_props_reports_a_failing_marginal(tmp_path, capsys):
    d = np.full((4, 4), 1 / 16, dtype=complex)
    d[0, 0] += 1e-6j
    d[1, 0] -= 1e-6j  # complex row sums 0 and 1; real column sums
    path = str(tmp_path / "complex_rows.txt")
    write_matrix(path, d, {"kind": "dirac", "n": 4, "dx": 1.0, "x0": 0.0})
    out = str(tmp_path / "out")
    assert _run("props", "--out", out, "--dirac", path) == 0
    report = Path(out, "props.txt").read_text().splitlines()
    assert report[1].startswith("FAIL marginal_x: position marginal has imaginary residual")
    assert report[2].startswith("PASS marginal_p: ")
    captured = capsys.readouterr()
    assert captured.out.splitlines() == report and captured.err == ""


def test_props_takes_its_tolerances_from_the_distribution_check(tmp_path, monkeypatch,
                                                                 capsys):
    monkeypatch.setattr(dirac, "NORMALIZATION_TOL", 0.25)
    path = str(tmp_path / "heavy.txt")
    write_matrix(path, np.diag(np.full(4, 0.275 + 0j)),
                 {"kind": "dirac", "n": 4, "dx": 1.0, "x0": 0.0})
    assert _run("props", "--out", str(tmp_path / "out"), "--dirac", path) == 0
    report = capsys.readouterr().out.splitlines()
    assert report[0] == "PASS normalization: 1.1+0j (tol 0.25)"
    assert report[3] == "PASS purity: 1.21 (bounds [0.25, 1])"  # within 1 + 0.25


def test_out_that_is_a_regular_file_is_an_io_error(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    assert _run("gen-state", "--config", _write_config(tmp_path), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("diracsim: i/o error: ") and len(err.strip().splitlines()) == 1
    assert out.read_text() == "not a directory\n"


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


_GRID_KEYS = ["n", "dx", "x0", "wavelength", "focal_length", "magnification"]
_MEASURE_KEYS = ["phi", "photon_budget", "noise", "seed", "scans", "corrected"]
# each stage in chain order: the matrix files it writes, with kind and own header keys
_STAGE_MATRICES = [
    ("gen-state", [("state.txt", "density", ["mixed"])]),
    ("exact", [("dirac_exact.txt", "dirac", [])]),
    ("measure", [("dirac_measured.txt", "dirac", _MEASURE_KEYS),
                 ("density_measured.txt", "density", _MEASURE_KEYS)]),
    ("reconstruct", [("density.txt", "density", [])]),
    ("propagate", [(f"propagated_dz{dz}.txt", "propagated", ["dz", "kernel"])
                   for dz in ("0.084", "0.16", "0.325")]),
    ("props", []),
    ("figures", []),
]


def _header(path):
    """The magic line and the ``(key, value)`` of each header line."""
    lines = Path(path).read_text().splitlines()
    body = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    return lines[0], [tuple(line[2:].split("=", 1)) for line in lines[1:body]]


def test_every_stage_prints_the_files_it_writes_with_kind_and_grid_headers_first(
        tmp_path, capsys, monkeypatch):
    """Each stage prints one line per file it writes, in write order; the
    counts files of ``measure`` and the report of ``props`` are the two
    exceptions.  Every matrix file's header reads the magic line, rows, cols,
    kind, the grid keys and then the stage's own keys."""
    cfg = _scan_config(tmp_path, 16, "pipeline.scans = 2\n")
    out = tmp_path / "out"
    written = []
    replace = os.replace

    def record(src, dst):  # every file is renamed into place once it is whole
        replace(src, dst)
        if TWIN_DIR not in Path(dst).parts:
            written.append(dst)

    monkeypatch.setattr(os, "replace", record)
    for command, matrices in _STAGE_MATRICES:
        written.clear()
        capsys.readouterr()
        assert _run(command, "--config", cfg, "--out", str(out)) == 0
        stdout = capsys.readouterr().out
        counts = [path for path in written if Path(path).parent.name == "counts"]
        files = [path for path in written if path not in counts]
        assert counts == ([str(out / "counts" / f"sliver_{m:04d}.txt") for m in range(16)]
                          if command == "measure" else [])
        if command == "props":
            assert files == [str(out / "props.txt")]
            assert stdout == (out / "props.txt").read_text()
            continue
        assert stdout.splitlines() == files
        if command == "figures":
            assert files == [str(out / f"fig_dirac_exact_{kind}.csv")
                             for kind in ("magnitude", "phase", "real", "imag")]
            continue
        assert files == [str(out / name) for name, _, _ in matrices]
        for name, kind, own in matrices:
            magic, header = _header(out / name)
            assert magic == "# diracsim matrix v1"
            assert [key for key, _ in header] == ["rows", "cols", "kind"] + _GRID_KEYS + own
            assert dict(header)["kind"] == kind and dict(header)["n"] == "16"


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
    rows = [line.split(",") for line in Path(path).read_text().splitlines()]
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
    first = Path(out, "fig_dirac_exact_phase.csv").read_bytes()
    assert _run("figures", "--config", cfg, "--out", out) == 0
    assert Path(out, "fig_dirac_exact_phase.csv").read_bytes() == first


def test_env_override_reaches_cli(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    monkeypatch.setenv("DIRACSIM_BENCH_MIXED", "true")
    assert _run("gen-state", "--config", cfg, "--out", out) == 0
    _, meta = read_matrix(os.path.join(out, "state.txt"))
    assert meta["mixed"] == "true"


def test_unknown_env_variable_exits_2_without_output(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("DIRACSIM_GRID_NN", "5")
    assert _run("gen-state", "--config", _write_config(tmp_path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "DIRACSIM_GRID_NN" in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_figures_refuses_a_table_that_overflows(tmp_path, capsys):
    """|z| of the finite entry 1.7e308 + 1.7e308i overflows.  The magnitude
    table, written first, is refused at its first bad block.  At the parent
    figures wrote a cell inf and exited 0."""
    path = tmp_path / "d.txt"
    path.write_text("# diracsim matrix v1\n# rows=2\n# cols=2\n# kind=dirac\n# n=2\n# dx=1\n"
                    "# x0=0\n0 0 1.7e308 1.7e308\n0 1 0 0\n1 0 0 0\n1 1 0 0\n")
    out = tmp_path / "o"
    assert _run("figures", "--input", str(path), "--out", str(out)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("diracsim: error: fig_d_magnitude.csv not written: "
                            "the table holds nan or inf\n")
    assert not out.exists()


@pytest.mark.parametrize("stage, key", [("propagate", "propagation.dz")])
def test_an_empty_list_exits_2_without_output(tmp_path, capsys, stage, key):
    """At the parent propagate exited 0 having written nothing."""
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    assert _run("gen-state", "--config", cfg, "--out", str(out)) == 0
    assert _run("exact", "--config", cfg, "--out", str(out)) == 0
    before = sorted(p.name for p in out.iterdir())
    capsys.readouterr()
    cfg = _write_config(tmp_path, f"{key} =\n")
    assert _run(stage, "--config", cfg, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{key}: the list is empty" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert sorted(p.name for p in out.iterdir()) == before
    fresh = tmp_path / "fresh"
    assert _run(stage, "--config", cfg, "--out", str(fresh)) == 2
    assert not fresh.exists()


def _replace_in_file(path, old, new, count=1):
    text = Path(path).read_text()
    assert old in text
    Path(path).write_text(text.replace(old, new, count))


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
    lines = Path(path).read_text().splitlines(keepends=True)
    body = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    i, j, re, _ = lines[body + 5].split()
    lines[body + 5] = f"{i} {j} {re} nan\n"
    Path(path).write_text("".join(lines))
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


def test_repeated_header_key_exits_3_without_output(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    assert _run("gen-state", "--config", cfg, "--out", out) == 0
    state = os.path.join(out, "state.txt")
    _replace_in_file(state, "# kind=density\n", "# kind=density\n# kind=dirac\n")
    fresh = tmp_path / "fresh"
    capsys.readouterr()
    assert _run("exact", "--config", cfg, "--out", str(fresh), "--state", state) == 3
    err = capsys.readouterr().err
    assert "state.txt:5: repeated header key 'kind'" in err and len(err.strip().splitlines()) == 1
    assert not fresh.exists()


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
    lines = Path(path).read_text().splitlines(keepends=True)
    k = next(k for k, line in enumerate(lines) if line.startswith(f"# {key}="))
    lines[k] = f"# {key}={value}\n"
    Path(path).write_text("".join(lines))
    fresh = str(tmp_path / "fresh")
    capsys.readouterr()
    assert _run(command, "--config", cfg, "--out", fresh, flag, path) == 3
    err = capsys.readouterr().err
    assert f"{name}: incomplete or invalid grid header" in err and key in err
    assert len(err.strip().splitlines()) == 1
    assert not os.path.exists(fresh)


def test_dirac_file_without_unit_map_exits_3_without_output(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    assert _run("gen-state", "--config", cfg, "--out", out) == 0
    assert _run("exact", "--config", cfg, "--out", out) == 0
    path = os.path.join(out, "dirac_exact.txt")
    lines = Path(path).read_text().splitlines(keepends=True)
    units = ("# wavelength=", "# focal_length=", "# magnification=")
    Path(path).write_text("".join(line for line in lines if not line.startswith(units)))
    fresh = str(tmp_path / "fresh")
    capsys.readouterr()
    assert _run("propagate", "--config", cfg, "--out", fresh, "--dirac", path) == 3
    err = capsys.readouterr().err
    assert "dirac_exact.txt" in err and "wavelength" in err and "config error" not in err
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
