"""Config-driven command line front end.

``_STAGES`` is the one place a subcommand is declared: its handler, help
line and input flag, with the file read from ``<out>`` when the flag is left
out.  Only measure takes --seed, --no-noise and --no-correction; each of
them, like --out, sets the config key that is its argparse dest.  Exit
codes: 0 success, 2 configuration error or unknown flag, 3 runtime or data
error or out of memory.  Each output file is written atomically, so no file
is left half written; a multi-file command that fails keeps the files it
already wrote.  No stage writes a matrix or a figure table that holds nan
or inf: it exits 3 instead, naming the file.  Each handler reads its input,
makes one call on objects and writes: a library function where one is the
stage, else :func:`propagate`, :func:`props` or :func:`figures` here, which
open no file.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import bayesprop, dirac, fileio, qstate, weaksim
from .config import RunConfig, load_run_config, propagated_name
from .errors import ConfigError, DiracsimError, FormatError, NumericalIntegrityError
from .dirac import DiracDistribution

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# the files gen-state and exact write, which later stages read by default
_STATE_FILE, _DIRAC_FILE = "state.txt", "dirac_exact.txt"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, like a config error; subparsers inherit it
        self.exit(EXIT_CONFIG, f"diracsim: config error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of a process.  Each subcommand stores its ``_STAGES``
    key, not its handler, and main looks the handler up at call time, so a
    handler rebound in ``_STAGES`` after the first call still runs."""
    # a flag that sets a config key takes the key as its dest (see _load)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key=value config file")
    common.add_argument("--out", dest="output.dir", metavar="DIR",
                        help="output directory (overrides output.dir)")

    parser = _Parser(prog="diracsim", description="Dirac quasi-probability bench simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_line, reads in _STAGES:
        p = sub.add_parser(name, parents=[common], help=help_line)
        p.set_defaults(stage=(name, help_line, reads), reads=reads)
        if reads:
            flag, what, default = reads
            p.add_argument(flag, dest="input", metavar="PATH",
                           help=f"{what} (default <out>/{default})")
        if name == "measure":  # the one stage with noise and a correction to set
            p.add_argument("--seed", dest="pipeline.seed", type=int, metavar="N",
                           help="override pipeline.seed")
            p.add_argument("--no-noise", dest="pipeline.noise", action="store_false",
                           default=None, help="disable photon shot noise")
            p.add_argument("--no-correction", dest="pipeline.correct", action="store_false",
                           default=None, help="disable the back-action correction")
    return parser


def _load(args) -> RunConfig:
    """The config file, then the environment, then each config key a flag
    set; ``--out ''`` sets none, so output.dir stands."""
    overrides = {key: value for key, value in vars(args).items()
                 if "." in key and value is not None and value != ""}
    return load_run_config(args.config, overrides)


def _finite(name: str, what: str, a):
    """``a``, or a NumericalIntegrityError naming the file ``name`` that was
    not written because ``a``, its ``what``, holds nan or inf."""
    if not np.isfinite(a).all():
        raise NumericalIntegrityError(f"{name} not written: the {what} holds nan or inf")
    return a


def _emit(cfg: RunConfig, name: str, arr, kind: str, grid, **extra) -> None:
    """Write ``arr`` to ``<out>/<name>`` with the headers ``kind``, the grid's
    keys and then ``extra`` in call order, and print the path.  An array
    holding nan or inf is refused before anything is written."""
    path = os.path.join(cfg.out_dir, name)
    fileio.write_matrix(path, _finite(name, "matrix", arr),
                        {"kind": kind, **fileio.grid_meta(grid), **extra})
    print(path)


def _read_on_grid(path: str, kind: str | None = None):
    """A matrix file with its header and grid; it must be n x n for the
    header's n and, if ``kind`` is given, carry ``# kind=<kind>``."""
    arr, meta = fileio.read_matrix(path)
    if kind is not None and meta.get("kind") != kind:
        raise FormatError(f"{path}: expected kind={kind}, got kind={meta.get('kind', '(none)')}")
    grid = fileio.grid_from_meta(meta, path)
    if arr.shape != (grid.n, grid.n):
        raise FormatError(
            f"{path}: {arr.shape[0]}x{arr.shape[1]} matrix does not match header n={grid.n}"
        )
    return arr, meta, grid


def _read_state(path: str) -> qstate.DensityMatrix:
    arr, _, grid = _read_on_grid(path, "density")
    return qstate._checked_state(grid, arr)


def _read_dirac(path: str) -> DiracDistribution:
    arr, _, grid = _read_on_grid(path, "dirac")
    return DiracDistribution(grid=grid, d=arr)


def cmd_gen_state(cfg: RunConfig, path: None) -> int:  # reads no file
    state = qstate.build_bench_state(cfg.bench, cfg.grid)
    _emit(cfg, _STATE_FILE, state.rho, "density", cfg.grid, mixed=cfg.bench.mixed)
    return EXIT_OK


def cmd_exact(cfg: RunConfig, path: str) -> int:
    state = _read_state(path)
    dist = dirac.dirac_distribution(state)
    _emit(cfg, _DIRAC_FILE, dist.d, "dirac", state.grid)
    return EXIT_OK


def cmd_measure(cfg: RunConfig, path: str) -> int:
    """Run ``cfg.scans`` scans through :func:`.weaksim.mean_estimate`, writing
    the first scan's counts files as its blocks come."""
    state = _read_state(path)
    grid, n = state.grid, state.grid.n
    phi, budget = cfg.bench.phi, cfg.bench.photon_budget
    readout = weaksim.sliver_readout(state, phi, budget)
    # per scan, the seed of each sliver's shot noise
    scan_seeds = [weaksim.sliver_seeds(weaksim.derived_seed(cfg.seed, 10_000_000 + rep), n)
                  for rep in range(cfg.scans)] if cfg.noise else [None]

    def write_counts(lo, counts):
        for m in range(lo, lo + counts.shape[1]):
            fileio.write_counts(os.path.join(cfg.out_dir, "counts", f"sliver_{m:04d}.txt"),
                                counts[:, m - lo], {
                "sliver_lo": m, "sliver_hi": m + 1, "phi": phi, "photon_budget": budget,
                "seed": "none" if scan_seeds[0] is None else scan_seeds[0][m],
            })

    raw, offset = weaksim.mean_estimate(readout, scan_seeds, write_counts)
    # free rho and W before the reconstruction, which holds four n x n arrays
    del state, readout

    base_meta = {"phi": phi, "photon_budget": budget, "noise": cfg.noise,
                 "seed": cfg.seed if cfg.noise else "none", "scans": len(scan_seeds),
                 "corrected": cfg.correct}
    _emit(cfg, "dirac_measured.txt", raw + offset if cfg.correct else raw, "dirac", grid,
          **base_meta)
    if cfg.correct:
        # lab-style route: reconstruct the uncorrected distribution, then
        # divide the diagonals by cos(phi)
        rec = dirac.reconstruct_density(DiracDistribution(grid=grid, d=raw))
        fixed = weaksim.correct_diagonals(rec, phi)
        _emit(cfg, "density_measured.txt", fixed.rho, "density", grid, **base_meta)
    return EXIT_OK


def cmd_reconstruct(cfg: RunConfig, path: str) -> int:
    dist = _read_dirac(path)
    rho = dirac.reconstruct_density(dist)
    _emit(cfg, "density.txt", rho.rho, "density", dist.grid)
    return EXIT_OK


def propagate(dist: DiracDistribution, dz_list):
    """Yield ``dist`` Bayes-propagated through the chirp kernel to each camera
    plane of ``dz_list`` in turn, one :class:`.PropagatedDistribution` at a
    time: a caller that drops each before asking for the next holds one."""
    grid = dist.grid
    for dz in dz_list:
        kernel = bayesprop.build_kernel_unitary(grid, bayesprop.fresnel_unitary(grid, dz), dz)
        yield bayesprop.bayes_propagate(dist, kernel)


def cmd_propagate(cfg: RunConfig, path: str) -> int:
    dist = _read_dirac(path)
    if dist.grid.unit_map is None:
        raise FormatError(f"{path}: propagate needs the wavelength, focal_length and "
                          "magnification headers")
    for prop in propagate(dist, cfg.dz_list):
        _emit(cfg, propagated_name(prop.dz), prop.e, "propagated", dist.grid, dz=prop.dz,
              kernel=prop.kind)
        del prop  # free this output before the next one is computed
    return EXIT_OK


def props(dist: DiracDistribution) -> list[str]:
    """The property report of ``dist``, one ``PASS`` or ``FAIL`` line per
    check: normalization, the two marginals and the purity bounds."""
    n = dist.grid.n
    lines = []

    def check(name, value, ok, detail=""):
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {value}{detail}")

    tol = dirac.NORMALIZATION_TOL
    total = dirac._sum(dist.d)  # a total that overflows is inf, with no warning, and fails
    check("normalization", f"{total:.12g}", abs(total - 1.0) <= tol, f" (tol {tol:g})")
    for label, fn in (("marginal_x", dirac.marginal_x), ("marginal_p", dirac.marginal_p)):
        try:
            marg = fn(dist)
            check(label, f"sum={marg.sum():.12g} min={marg.min():.3e}", True)
        except DiracsimError as exc:
            check(label, str(exc), False)
    mu = dirac.purity(dist)
    check("purity", f"{mu:.12g}", 1.0 / n - tol <= mu <= 1.0 + tol,
          f" (bounds [{1.0 / n:.6g}, 1])")
    return lines


def cmd_props(cfg: RunConfig, path: str) -> int:
    report = "\n".join(props(_read_dirac(path))) + "\n"
    fileio.atomic_write_text(os.path.join(cfg.out_dir, "props.txt"), [report.encode()])
    sys.stdout.write(report)
    return EXIT_OK


def _figure_axes(meta, grid):
    """A figure table's column axis and its label; its rows are always x."""
    kind = meta.get("kind", "dirac")
    if kind == "density":
        return grid.coords, "xp"
    if kind == "propagated" and grid.unit_map is not None:
        return grid.unit_map.camera_coordinate(grid.momenta), "kp"
    return grid.momenta, "p"


def figures(stem: str):
    """Yield the name of each figure table of the matrix file named ``stem``
    with its block entry: the :data:`.FIGURE_ENTRIES` function, which refuses
    a block of the table that holds nan or inf."""
    for kind, entry in fileio.FIGURE_ENTRIES.items():
        name = f"fig_{stem}_{kind}.csv"
        yield name, lambda a, name=name, entry=entry: _finite(name, "table", entry(a))


def cmd_figures(cfg: RunConfig, path: str) -> int:
    arr, meta, grid = _read_on_grid(path)
    cols, col_label = _figure_axes(meta, grid)
    for name, entry in figures(os.path.splitext(os.path.basename(path))[0]):
        out = os.path.join(cfg.out_dir, name)
        fileio._write_table(out, f"x\\{col_label}", cols, grid.coords, arr, entry)
        print(out)
    return EXIT_OK


# Each subcommand, stated once: (name, help line, input) -> handler.  The
# input is (flag, what it names, the file read from <out> when the flag is
# left out); main calls handler(cfg, path).  The handlers are the values of
# a module-level dict, read at each call, so that rebinding a cmd_* function
# (to trace it, say) also rebinds its dispatch.
_STATE = ("--state", "state file", _STATE_FILE)
_DIRAC = ("--dirac", "distribution file", _DIRAC_FILE)
_STAGES = {
    ("gen-state", "build the bench state file", None): cmd_gen_state,
    ("measure", "simulate the weak-measurement scan", _STATE): cmd_measure,
    ("exact", "exact Dirac distribution of a state", _STATE): cmd_exact,
    ("reconstruct", "density matrix from a distribution", _DIRAC): cmd_reconstruct,
    ("propagate", "Bayes-propagate to displaced planes", _DIRAC): cmd_propagate,
    ("props", "distribution property report", _DIRAC): cmd_props,
    ("figures", "emit CSV heat-map tables", ("--input", "matrix file", _DIRAC_FILE)): cmd_figures,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        path = args.reads and (args.input or os.path.join(cfg.out_dir, args.reads[2]))
        return _STAGES[args.stage](cfg, path)
    except ConfigError as exc:
        print(f"diracsim: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DiracsimError as exc:
        print(f"diracsim: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"diracsim: i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"diracsim: error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
