"""The command chain end to end: the pure and the mixed-wedge bench at n = 64,
an odd n = 63 away from x0 = 0, the library chain of ``perfbench/libchain.py``
and the peak memory of ``measure`` at n = 512 as its own process sees it."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diracsim
from diracsim.cli import main

MIXED_WEDGE = "bench.mixed = true\nbench.wedge_tilt = 285.6\n"


def _config(path, text):
    path.write_text(text)
    return str(path)


def _chain(cfg, out, *stages):
    for stage in stages:
        assert main([*stage.split(), "--config", cfg, "--out", str(out)]) == 0


def _matrix(path, n):
    """A square matrix file's entries, read by ``np.loadtxt`` in row-major order."""
    table = np.loadtxt(path, comments="#", ndmin=2)
    assert table.shape == (n * n, 4), (path, table.shape)
    return (table[:, 2] + 1j * table[:, 3]).reshape(n, n)


@pytest.fixture(scope="module", params=["pure", "mixed"])
def chain64(request, tmp_path_factory):
    """The output directory of gen-state, exact, propagate, props and figures
    at n = 64, on the default bench or the mixed wedge."""
    work = tmp_path_factory.mktemp(request.param)
    text = "grid.n = 64\ngrid.dx = 6.875e-4\n" + (MIXED_WEDGE if request.param == "mixed" else "")
    _chain(_config(work / "run.cfg", text), work / "out",
           "gen-state", "exact", "propagate", "props", "figures")
    return work / "out"


def test_props_lines_all_pass(chain64):
    lines = (chain64 / "props.txt").read_text().splitlines()
    assert len(lines) == 4 and all(line.startswith("PASS ") for line in lines), lines


def test_propagated_files_sum_to_one_and_keep_prob_x(chain64):
    prob_x = _matrix(chain64 / "dirac_exact.txt", 64).sum(axis=1)
    paths = sorted(chain64.glob("propagated_dz*.txt"))
    assert len(paths) == 3
    for path in paths:
        e = _matrix(path, 64)
        assert abs(e.sum() - 1.0) <= 1e-12, (path, e.sum())
        # Bayes propagation keeps Prob(x), the row sums
        assert np.max(np.abs(e.sum(axis=1) - prob_x)) <= 1e-12, path


def test_figure_tables_equal_the_distribution(chain64):
    d = _matrix(chain64 / "dirac_exact.txt", 64)
    fig = {kind: np.loadtxt(chain64 / f"fig_dirac_exact_{kind}.csv", delimiter=",", skiprows=1)
           for kind in ("real", "imag", "magnitude", "phase")}
    assert all(table.shape == (64, 65) for table in fig.values())
    fig = {kind: table[:, 1:] for kind, table in fig.items()}
    for kind, want in (("real", d.real), ("imag", d.imag), ("magnitude", np.abs(d))):
        assert np.array_equal(fig[kind], want), kind
    phase = fig["phase"]
    assert np.all((phase > -np.pi) & (phase <= np.pi))
    # a phase is only as exact as its entry is large, so gate by magnitude
    err = np.max(np.abs(fig["magnitude"] * np.exp(1j * phase) - d))
    assert err <= 1e-15 * np.max(np.abs(d)), err


def test_odd_n_chain_away_from_the_origin(tmp_path):
    """n = 63 with the default centre grid.x0 = 22e-3: the skew of the
    transform wraps around an odd row length, away from x0 = 0."""
    out = tmp_path / "out"
    _chain(_config(tmp_path / "run.cfg", "grid.n = 63\ngrid.dx = 6.984126984126984e-4\n"), out,
           "gen-state", "exact", "measure --no-noise", "reconstruct")
    for got, want, bound in (("density.txt", "state.txt", 1e-12),
                             ("dirac_measured.txt", "dirac_exact.txt", 1e-9)):
        err = np.max(np.abs(_matrix(out / got, 63) - _matrix(out / want, 63)))
        assert err <= bound, (got, want, err)


def test_library_chain_residuals(tmp_path):
    """``run_chain`` of the benchmark's library workload, at n = 64 and 33 on the mixed wedge."""
    libchain = Path(__file__).resolve().parents[1] / "perfbench" / "libchain.py"
    run_chain = runpy.run_path(str(libchain))["run_chain"]
    chain = run_chain(_config(tmp_path / "big.cfg", "grid.n = 64\ngrid.dx = 6.875e-4\n" + MIXED_WEDGE),
                      _config(tmp_path / "small.cfg",
                              "grid.n = 33\ngrid.dx = 1.3333333333333333e-3\n" + MIXED_WEDGE))
    assert (chain["n"], chain["n_small"]) == (64, 33)
    bounds = {"round_trip": 1e-10, "propagated_norm": 1e-9, "displaced_vs_bayes": 1e-9}
    for key, bound in bounds.items():
        assert chain["residuals"][key] <= bound, (key, chain["residuals"][key])


# Spawns ``python -m diracsim.cli`` with its arguments and prints the exit
# code and the child's ru_maxrss.  It imports no numpy: Linux carries a
# parent's RSS high-water mark into a child's ru_maxrss, so a measure spawned
# straight from this test process would report this process's peak.
_PEAK_WRAPPER = """
import os, subprocess, sys
assert "numpy" not in sys.modules
proc = subprocess.Popen([sys.executable, "-m", "diracsim.cli", *sys.argv[1:]],
                        stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB is Linux's unit")
def test_measure_peak_at_n512_stays_under_75_mb(tmp_path):
    """2 scans at n = 512 through the grid's row blocks, 32 slivers each; a
    measure that holds the whole scan peaks near 95 MB."""
    cfg = _config(tmp_path / "run.cfg", "grid.n = 512\ngrid.dx = 8.59375e-5\npipeline.scans = 2\n")
    out = tmp_path / "out"
    _chain(cfg, out, "gen-state")
    src = os.path.dirname(os.path.dirname(diracsim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _PEAK_WRAPPER, "measure", "--config", cfg,
                          "--out", str(out)], env=env, capture_output=True, text=True, check=True)
    status, peak_kib = run.stdout.split()
    assert status == "0", run.stderr
    assert int(peak_kib) / 1024 <= 75, f"measure peak {int(peak_kib) / 1024:.1f} MB"
