"""Config-driven command line front end.

Subcommands: gen-state, measure, exact, reconstruct, propagate, props,
figures; only measure takes --seed, --no-noise and --no-correction.  Exit
codes: 0 success, 2 configuration error or unknown flag, 3 runtime or data
error or out of memory.  Each output file is written atomically, so no file
is left half written; a multi-file command that fails keeps the files it
already wrote.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import bayesprop, dirac, fileio, qstate, weaksim
from .config import RunConfig, load_run_config, propagated_name
from .errors import ConfigError, DiracsimError, FormatError
from .qstate import DensityMatrix
from .dirac import DiracDistribution

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, like a config error; subparsers inherit it
        self.exit(EXIT_CONFIG, f"diracsim: config error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key=value config file")
    common.add_argument("--out", metavar="DIR", help="output directory (overrides output.dir)")

    parser = _Parser(
        prog="diracsim",
        description="Dirac quasi-probability bench simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen-state", parents=[common], help="build the bench state file")
    p = sub.add_parser("measure", parents=[common], help="simulate the weak-measurement scan")
    p.add_argument("--state", metavar="PATH", help="state file (default <out>/state.txt)")
    p.add_argument("--seed", type=int, metavar="N", help="override pipeline.seed")
    p.add_argument("--no-noise", action="store_true", help="disable photon shot noise")
    p.add_argument("--no-correction", action="store_true",
                   help="disable the back-action correction")
    p = sub.add_parser("exact", parents=[common], help="exact Dirac distribution of a state")
    p.add_argument("--state", metavar="PATH", help="state file (default <out>/state.txt)")
    p = sub.add_parser("reconstruct", parents=[common], help="density matrix from a distribution")
    p.add_argument("--dirac", metavar="PATH", help="distribution file (default <out>/dirac_exact.txt)")
    p = sub.add_parser("propagate", parents=[common], help="Bayes-propagate to displaced planes")
    p.add_argument("--dirac", metavar="PATH", help="distribution file (default <out>/dirac_exact.txt)")
    p = sub.add_parser("props", parents=[common], help="distribution property report")
    p.add_argument("--dirac", metavar="PATH", help="distribution file (default <out>/dirac_exact.txt)")
    p = sub.add_parser("figures", parents=[common], help="emit CSV heat-map tables")
    p.add_argument("--input", metavar="PATH", help="matrix file (default <out>/dirac_exact.txt)")
    return parser


def _load(args) -> RunConfig:
    overrides = {}
    if args.out:
        overrides["output.dir"] = args.out
    # only measure takes the pipeline flags
    if getattr(args, "seed", None) is not None:
        overrides["pipeline.seed"] = args.seed
    if getattr(args, "no_noise", False):
        overrides["pipeline.noise"] = False
    if getattr(args, "no_correction", False):
        overrides["pipeline.correct"] = False
    return load_run_config(args.config, overrides)


def _input(cfg: RunConfig, given: str | None, name: str) -> str:
    """The input file: the path ``given`` by its flag, else ``<out>/<name>``."""
    return given or os.path.join(cfg.out_dir, name)


def _emit(cfg: RunConfig, name: str, arr, kind: str, grid, **extra) -> None:
    """Write ``arr`` to ``<out>/<name>`` with the headers ``kind``, the grid's
    keys and then ``extra`` in call order, and print the path."""
    path = os.path.join(cfg.out_dir, name)
    fileio.write_matrix(path, arr, {"kind": kind, **fileio.grid_meta(grid), **extra})
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


def _read_state(path: str) -> DensityMatrix:
    arr, _, grid = _read_on_grid(path, "density")
    return qstate._checked_state(grid, arr)


def _read_dirac(path: str) -> DiracDistribution:
    arr, _, grid = _read_on_grid(path, "dirac")
    return DiracDistribution(grid=grid, d=arr)


def cmd_gen_state(cfg: RunConfig, args) -> int:
    state = qstate.build_bench_state(cfg.bench, cfg.grid)
    _emit(cfg, "state.txt", state.rho, "density", cfg.grid, mixed=cfg.bench.mixed)
    return EXIT_OK


def cmd_exact(cfg: RunConfig, args) -> int:
    state = _read_state(_input(cfg, args.state, "state.txt"))
    dist = dirac.dirac_distribution(state)
    _emit(cfg, "dirac_exact.txt", dist.d, "dirac", state.grid)
    return EXIT_OK


def cmd_measure(cfg: RunConfig, args) -> int:
    """Run ``cfg.scans`` scans through :func:`.weaksim.scan_blocks`, adding
    each block's estimate rows into the scans' mean and writing the first
    scan's counts files as its blocks come."""
    state = _read_state(_input(cfg, args.state, "state.txt"))
    grid, n = state.grid, state.grid.n
    phi, budget = cfg.bench.phi, cfg.bench.photon_budget
    readout = weaksim.sliver_readout(state, phi, budget)
    # per scan, the seed of each sliver's shot noise
    scan_seeds = [weaksim.sliver_seeds(weaksim.derived_seed(cfg.seed, 10_000_000 + rep), n)
                  for rep in range(cfg.scans)] if cfg.noise else [None]
    counts_dir = os.path.join(cfg.out_dir, "counts")
    raw = np.zeros((n, n), dtype=complex)  # the scans' summed estimates, then their mean
    for lo, rep, counts, rows in weaksim.scan_blocks(readout, scan_seeds):
        raw[lo:lo + len(rows)] += rows
        if rep == 0:
            for m in range(lo, lo + len(rows)):
                fileio.write_counts(os.path.join(counts_dir, f"sliver_{m:04d}.txt"),
                                    counts[:, m - lo], {
                    "sliver_lo": m, "sliver_hi": m + 1, "phi": phi, "photon_budget": budget,
                    "seed": "none" if scan_seeds[0] is None else scan_seeds[0][m],
                })
    raw /= len(scan_seeds)
    offset = readout.off  # the column of backaction_offset(state, phi)
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


def cmd_reconstruct(cfg: RunConfig, args) -> int:
    dist = _read_dirac(_input(cfg, args.dirac, "dirac_exact.txt"))
    rho = dirac.reconstruct_density(dist)
    _emit(cfg, "density.txt", rho.rho, "density", dist.grid)
    return EXIT_OK


def cmd_propagate(cfg: RunConfig, args) -> int:
    in_path = _input(cfg, args.dirac, "dirac_exact.txt")
    dist = _read_dirac(in_path)
    grid = dist.grid
    if grid.unit_map is None:
        raise FormatError(f"{in_path}: propagate needs the wavelength, focal_length and "
                          "magnification headers")
    for dz in cfg.dz_list:
        kernel = bayesprop.build_kernel_unitary(grid, bayesprop.fresnel_unitary(grid, dz), dz)
        prop = bayesprop.bayes_propagate(dist, kernel)
        _emit(cfg, propagated_name(dz), prop.e, "propagated", grid, dz=dz, kernel=kernel.kind)
        # free this output before the next one is computed
        del prop
    return EXIT_OK


def cmd_props(cfg: RunConfig, args) -> int:
    dist = _read_dirac(_input(cfg, args.dirac, "dirac_exact.txt"))
    n = dist.grid.n
    lines = []

    def check(name, value, ok, detail=""):
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {value}{detail}")

    tol = dirac.NORMALIZATION_TOL
    total = dist.d.sum()
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

    report = "\n".join(lines) + "\n"
    path = os.path.join(cfg.out_dir, "props.txt")
    fileio.atomic_write_text(path, report.encode())
    sys.stdout.write(report)
    return EXIT_OK


def _figure_axes(meta, grid):
    kind = meta.get("kind", "dirac")
    x = grid.coords
    if kind == "density":
        return x, x, "x", "xp"
    if kind == "propagated" and grid.unit_map is not None:
        return x, grid.unit_map.camera_coordinate(grid.momenta), "x", "kp"
    return x, grid.momenta, "x", "p"


def _phase(arr: np.ndarray) -> np.ndarray:
    """``np.angle``, with -pi given as pi."""
    angle = np.angle(arr)
    return np.where(angle <= -np.pi, np.pi, angle)


# each table kind's entries, formed from a block of the matrix's rows
_FIGURE_ENTRIES = {"magnitude": np.abs, "phase": _phase, "real": np.real, "imag": np.imag}


def cmd_figures(cfg: RunConfig, args) -> int:
    in_path = _input(cfg, args.input, "dirac_exact.txt")
    arr, meta, grid = _read_on_grid(in_path)
    rows, cols, row_label, col_label = _figure_axes(meta, grid)
    stem = os.path.splitext(os.path.basename(in_path))[0]
    for kind in cfg.figures:
        path = os.path.join(cfg.out_dir, f"fig_{stem}_{kind}.csv")
        fileio._write_table(path, f"{row_label}\\{col_label}", cols, rows, arr,
                            _FIGURE_ENTRIES[kind])
        print(path)
    return EXIT_OK


_COMMANDS = {
    "gen-state": cmd_gen_state,
    "measure": cmd_measure,
    "exact": cmd_exact,
    "reconstruct": cmd_reconstruct,
    "propagate": cmd_propagate,
    "props": cmd_props,
    "figures": cmd_figures,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load(args)
        return _COMMANDS[args.command](cfg, args)
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
