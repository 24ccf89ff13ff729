"""Time each library layer in process, at several lattice sizes.

    python tools/layers.py [--n 64 256 1024] [--repeat K] --out PATH

Each layer is one call of a public function of this repository's package
(``src/``) on the default bench config, with ``dx = 44 mm / n`` and a camera
displacement ``dz = 0.084``: the state build, the full ``validate``
(Cholesky) of a read-only state, the transform, the sliver readout, one
scan's expected counts, seeds, Poisson draws and estimate, the kernel
build, the Bayes product (chirp, analytic, and for n <= 256 dense V), the
reconstruction, a matrix write, and a read from the twin and from the text
alone; inputs are made before a layer is timed.  The start-up row times a
fresh ``python -c "import diracsim, diracsim.cli"`` (CPU from ``wait4``).
PATH gets the host, ``OPENBLAS_NUM_THREADS``, ``PYTHONDONTWRITEBYTECODE``,
and per layer and n the callable (``module:attribute`` in ``diracsim``),
the calls, and the wall and CPU milliseconds' median and quartiles.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import operator
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from diracsim import bayesprop, dirac, fileio, qstate, weaksim  # noqa: E402
from diracsim.config import build_run_config  # noqa: E402

DZ = 0.084
ENV = ("OPENBLAS_NUM_THREADS", "PYTHONDONTWRITEBYTECODE")
STARTUP = "import diracsim, diracsim.cli"


def resolve(name: str):
    """The package attribute that ``module:attribute`` names."""
    module, _, attribute = name.partition(":")
    return operator.attrgetter(attribute)(importlib.import_module(f"diracsim.{module}"))


def layers(n: int, tmp: str) -> list:
    """``(layer, callable name, arguments)`` of each layer at lattice size n."""
    cfg = build_run_config({"grid.n": n, "grid.dx": 44e-3 / n})
    grid, bench = cfg.grid, cfg.bench
    rho = qstate.build_bench_state(bench, grid)
    dist = dirac.dirac_distribution(rho)
    readout = weaksim.sliver_readout(rho, bench.phi, bench.photon_budget)
    expected, seeds = readout.intensities(0, n), weaksim.sliver_seeds(cfg.seed, n)
    counts = weaksim.sample_counts(expected, seeds)
    v, meta = bayesprop.fresnel_unitary(grid, DZ), fileio.grid_meta(grid)
    text, bare = os.path.join(tmp, "twin", "d.txt"), os.path.join(tmp, "bare", "d.txt")
    for path in (text, bare):
        os.makedirs(os.path.dirname(path))
        fileio.write_matrix(path, dist.d, meta)
    shutil.rmtree(os.path.join(os.path.dirname(bare), fileio.TWIN_DIR))
    propagate = "bayesprop:bayes_propagate"
    dense = bayesprop.build_kernel_unitary(grid, np.diag(v), DZ) if n <= 256 else None
    return [
        ("state", "qstate:build_bench_state", (bench, grid)),
        ("validate", "qstate:DensityMatrix.validate", (qstate.DensityMatrix(grid, rho.rho),)),
        ("transform", "dirac:dirac_distribution", (rho,)),
        ("readout", "weaksim:sliver_readout", (rho, bench.phi, bench.photon_budget)),
        ("expected counts", "weaksim:SliverReadout.intensities", (readout, 0, n)),
        ("seeds", "weaksim:sliver_seeds", (cfg.seed, n)),
        ("Poisson", "weaksim:sample_counts", (expected, seeds)),
        ("estimator", "weaksim:estimate_dirac_column", (counts, bench.phi)),
        ("kernel build", "bayesprop:build_kernel_unitary", (grid, v, DZ)),
        ("Bayes chirp", propagate, (dist, bayesprop.build_kernel_unitary(grid, v, DZ))),
        ("Bayes analytic", propagate, (dist, bayesprop.build_kernel_analytic(grid, DZ))),
        ("reconstruct", "dirac:reconstruct_density", (dist,)),
        ("write", "fileio:write_matrix", (text, dist.d, meta)),
        ("read (twin)", "fileio:read_matrix", (text,)),
        ("read (text)", "fileio:read_matrix", (bare,)),
    ] + ([("Bayes dense V", propagate, (dist, dense))] if n <= 256 else [])


def _startup() -> tuple[float, float]:
    """The wall and CPU seconds of one fresh interpreter that imports the package."""
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", STARTUP],
                         {**os.environ, "PYTHONPATH": str(SRC)})
    _, status, usage = os.wait4(pid, 0)
    if status != 0:
        raise RuntimeError(f"{STARTUP!r} ended with wait status {status}")
    return time.perf_counter() - start, usage.ru_utime + usage.ru_stime


def _timed(call, args: tuple) -> tuple[float, float]:
    wall, cpu = time.perf_counter(), time.process_time()
    call(*args)
    return time.perf_counter() - wall, time.process_time() - cpu


def _row(layer: str, n: int | None, name: str, samples: list) -> dict:
    row = {"layer": layer, "n": n, "callable": name, "calls": len(samples)}
    for i, key in enumerate(("wall_ms", "cpu_ms")):
        q1, median, q3 = np.percentile([1e3 * s[i] for s in samples], [25, 50, 75])
        row[key] = {"q1": q1, "median": median, "q3": q3}
    return row


def host() -> dict:
    """The host block of ``BENCH_pr34.json``, read from this process."""
    cpu = platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                   cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    allowed = sorted(os.sched_getaffinity(0))
    return {"cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "nproc": os.cpu_count(),
            "pinned_cpu": allowed if len(allowed) < os.cpu_count() else None}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[64, 256, 1024], help="lattice sizes")
    parser.add_argument("--repeat", type=int, default=7, metavar="K", help="calls per layer")
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    if args.repeat < 1 or min(args.n) < 2:
        parser.error("--repeat must be at least 1 and each --n at least 2")
    rows = [_row("start-up", None, "cli", [_startup() for _ in range(args.repeat)])]
    for n in args.n:
        with tempfile.TemporaryDirectory() as tmp:
            rows += [_row(layer, n, name, [_timed(resolve(name), call_args)
                                           for _ in range(args.repeat)])
                     for layer, name, call_args in layers(n, tmp)]
    args.out.write_text(json.dumps({
        "tool": "tools/layers.py", "argv": sys.argv[1:] if argv is None else argv,
        "host": host(), "env": {key: os.environ.get(key) for key in ENV},
        "config": f"default bench, dx = 44 mm / n, dz = {DZ}, one scan", "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
