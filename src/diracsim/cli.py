"""Config-driven command line front end.

Subcommands: gen-state, measure, exact, reconstruct, propagate, props,
figures.  Exit codes: 0 success, 2 configuration error, 3 runtime or data
error.  Each output file is written atomically, so no file is left half
written; a multi-file command that fails keeps the files it already wrote.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain

import numpy as np

from . import bayesprop, dirac, fileio, qstate, weaksim
from .config import RunConfig, load_run_config, propagated_name
from .errors import ConfigError, DiracsimError, FormatError
from .qstate import DensityMatrix
from .dirac import DiracDistribution

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key=value config file")
    common.add_argument("--out", metavar="DIR", help="output directory (overrides output.dir)")
    common.add_argument("--seed", type=int, metavar="N", help="override pipeline.seed")
    common.add_argument("--no-noise", action="store_true", help="disable photon shot noise")
    common.add_argument("--no-correction", action="store_true",
                        help="disable the back-action correction")

    parser = argparse.ArgumentParser(
        prog="diracsim",
        description="Dirac quasi-probability bench simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen-state", parents=[common], help="build the bench state file")
    p = sub.add_parser("measure", parents=[common], help="simulate the weak-measurement scan")
    p.add_argument("--state", metavar="PATH", help="state file (default <out>/state.txt)")
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
    if args.seed is not None:
        overrides["pipeline.seed"] = args.seed
    if args.no_noise:
        overrides["pipeline.noise"] = False
    if args.no_correction:
        overrides["pipeline.correct"] = False
    return load_run_config(args.config, overrides)


def _state_path(cfg: RunConfig, args) -> str:
    return getattr(args, "state", None) or os.path.join(cfg.out_dir, "state.txt")


def _dirac_path(cfg: RunConfig, args) -> str:
    return getattr(args, "dirac", None) or os.path.join(cfg.out_dir, "dirac_exact.txt")


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
    arr.setflags(write=False)
    return DensityMatrix(grid=grid, rho=arr)


def _read_dirac(path: str) -> DiracDistribution:
    arr, _, grid = _read_on_grid(path, "dirac")
    return DiracDistribution(grid=grid, d=arr)


def cmd_gen_state(cfg: RunConfig, args) -> int:
    state = qstate.build_bench_state(cfg.bench, cfg.grid)
    path = os.path.join(cfg.out_dir, "state.txt")
    meta = {"kind": "density", **fileio.grid_meta(cfg.grid), "mixed": cfg.bench.mixed}
    fileio.write_matrix(path, state.rho, meta)
    print(path)
    return EXIT_OK


def cmd_exact(cfg: RunConfig, args) -> int:
    state = _read_state(_state_path(cfg, args))
    dist = dirac.dirac_distribution(state)
    path = os.path.join(cfg.out_dir, "dirac_exact.txt")
    fileio.write_matrix(path, dist.d, {"kind": "dirac", **fileio.grid_meta(state.grid)})
    print(path)
    return EXIT_OK


def cmd_measure(cfg: RunConfig, args) -> int:
    state = _read_state(_state_path(cfg, args))
    phi, budget = cfg.bench.phi, cfg.bench.photon_budget
    # every scan repeats one weak measurement: read it out once, redraw the noise
    expected = weaksim.readout_intensities(state, phi, budget)
    if cfg.noise:
        scan_seeds = [weaksim.derived_seed(cfg.seed, 10_000_000 + rep) for rep in range(cfg.scans)]
    else:
        scan_seeds = [None]
    acc = np.zeros((state.grid.n, state.grid.n), dtype=complex)
    for rep, rep_seed in enumerate(scan_seeds):
        counts = expected if rep_seed is None else weaksim.sample_counts(expected, rep_seed)
        acc += weaksim.estimate_dirac_column(counts, phi)
        if rep == 0:
            first_counts = counts
    n_scans = len(scan_seeds)
    raw = acc / n_scans
    emitted = (raw + weaksim.backaction_offset(state, phi)) if cfg.correct else raw

    base_meta = {
        **fileio.grid_meta(state.grid),
        "phi": phi,
        "photon_budget": budget,
        "noise": cfg.noise,
        "seed": cfg.seed if cfg.noise else "none",
        "scans": n_scans,
        "corrected": cfg.correct,
    }
    dirac_path = os.path.join(cfg.out_dir, "dirac_measured.txt")
    fileio.write_matrix(dirac_path, emitted, {"kind": "dirac", **base_meta})
    counts_dir = os.path.join(cfg.out_dir, "counts")
    for m in range(state.grid.n):
        seed = "none" if scan_seeds[0] is None else weaksim.derived_seed(scan_seeds[0], m)
        fileio.write_counts(os.path.join(counts_dir, f"sliver_{m:04d}.txt"), first_counts[:, m], {
            "sliver_lo": m, "sliver_hi": m + 1, "phi": phi, "photon_budget": budget, "seed": seed,
        })
    print(dirac_path)
    if cfg.correct:
        # lab-style route: reconstruct the uncorrected distribution, then
        # divide the diagonals by cos(phi)
        rec = dirac.reconstruct_density(
            DiracDistribution(grid=state.grid, d=raw)
        )
        fixed = weaksim.correct_diagonals(rec, phi)
        density_path = os.path.join(cfg.out_dir, "density_measured.txt")
        fileio.write_matrix(density_path, fixed.rho, {"kind": "density", **base_meta})
        print(density_path)
    return EXIT_OK


def cmd_reconstruct(cfg: RunConfig, args) -> int:
    dist = _read_dirac(_dirac_path(cfg, args))
    rho = dirac.reconstruct_density(dist)
    path = os.path.join(cfg.out_dir, "density.txt")
    fileio.write_matrix(path, rho.rho, {"kind": "density", **fileio.grid_meta(dist.grid)})
    print(path)
    return EXIT_OK


def cmd_propagate(cfg: RunConfig, args) -> int:
    dist = _read_dirac(_dirac_path(cfg, args))
    grid = dist.grid
    for dz in cfg.dz_list:
        kernel = bayesprop.build_kernel_unitary(grid, bayesprop.fresnel_unitary(grid, dz), dz)
        prop = bayesprop.bayes_propagate(dist, kernel)
        path = os.path.join(cfg.out_dir, propagated_name(dz))
        fileio.write_matrix(path, prop.e, {
            "kind": "propagated", **fileio.grid_meta(grid),
            "dz": dz, "kernel": kernel.kind,
        })
        print(path)
        # free this kernel and its output before the next one is built
        del kernel, prop
    return EXIT_OK


def cmd_props(cfg: RunConfig, args) -> int:
    dist = _read_dirac(_dirac_path(cfg, args))
    n = dist.grid.n
    lines = []

    def check(name, value, ok, detail=""):
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {value}{detail}")

    total = dist.d.sum()
    check("normalization", f"{total:.12g}", abs(total - 1.0) <= 1e-10, " (tol 1e-10)")
    for label, fn in (("marginal_x", dirac.marginal_x), ("marginal_p", dirac.marginal_p)):
        try:
            marg = fn(dist)
            check(label, f"sum={marg.sum():.12g} min={marg.min():.3e}", True)
        except DiracsimError as exc:
            check(label, str(exc), False)
    mu = dirac.purity(dist)
    check("purity", f"{mu:.12g}", 1.0 / n - 1e-10 <= mu <= 1.0 + 1e-10,
          f" (bounds [{1.0 / n:.6g}, 1])")

    report = "\n".join(lines) + "\n"
    path = os.path.join(cfg.out_dir, "props.txt")
    fileio.atomic_write_text(path, report)
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


def cmd_figures(cfg: RunConfig, args) -> int:
    in_path = getattr(args, "input", None) or os.path.join(cfg.out_dir, "dirac_exact.txt")
    arr, meta, grid = _read_on_grid(in_path)
    rows, cols, row_label, col_label = _figure_axes(meta, grid)
    stem = os.path.splitext(os.path.basename(in_path))[0]
    tables = {
        "magnitude": np.abs(arr),
        "phase": np.where(np.angle(arr) <= -np.pi, np.pi, np.angle(arr)),
        "real": arr.real,
        "imag": arr.imag,
    }
    head = f"{row_label}\\{col_label}" + (",%.17g" * len(cols)) % tuple(cols.tolist()) + "\n"
    template = "%.17g" + ",%.17g" * len(cols) + "\n"
    for kind in cfg.figures:
        body = fileio.format_rows(template, np.column_stack((rows, tables[kind])))
        path = os.path.join(cfg.out_dir, f"fig_{stem}_{kind}.csv")
        fileio.atomic_write_text(path, chain([head], body))
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


if __name__ == "__main__":
    sys.exit(main())
