#!/usr/bin/env python3
"""Benchmark of the diracsim pipeline: three workloads, gates, and a traced run.

    python3 perfbench/run.py --workload bench_scan --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` every CLI stage runs as its own process, one at
a time, and the end-to-end metrics are printed.  With ``--trace 1`` one chain
runs in this process untraced and one traced, with every public function of
the layer modules wrapped, and the per-layer metrics are printed.  The last
line of stdout is the JSON result; the line before it holds the provenance
and the per-stage breakdown.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from speed import PARTS, SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0))
PINNED_CPU = min(os.sched_getaffinity(0))
# One BLAS thread, and the whole run pinned to one CPU: every stage then runs
# where the speed probe (speed.py) measures, and its CPU time is its cost.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SPAWNS = 10
DET_N = 64  # lattice of the equal-seed determinism check
BENCH_SCANS = 5  # noisy scans of bench_scan; the default config has 10
RUN_BUDGET_S = 150.0  # start no chain expected to end past this point of a run
RUN_LIMIT_S = 170.0   # kill a stage process still running at this point

# Lattice sizes per workload; the smoke test passes smaller ones.
SIZES = {
    "bench_scan": {"n": 256},
    "exact_io_512": {"n": 512},
    "phase_space_lib": {"n": 1024, "n_small": 192},
}

# The speed-probe parts each workload's stage times are rescaled by: the kind
# of work that matches its stages best (see speed.py and README.md).  Set-up
# spawns are rescaled by all three.
PROBE_PARTS = {
    "bench_scan": ("faults",),
    "exact_io_512": ("text",),
    "phase_space_lib": ("matmul",),
}

# End-to-end metrics, reported by every workload.  Stage times, and the
# chain's raw wall and CPU time, are printed beside them without a bound; see
# README.md.
END_TO_END = {"setup_s": "s", "total_ref_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics from the traced run: (span name, statistic).
PER_LAYER_SPANS = (
    ("weaksim.couple", ("calls", "self_s")),
    ("weaksim.readout_intensities", ("calls", "self_s")),
    ("weaksim.scan_with_records", ("calls", "self_s", "useful_ratio")),
    ("weaksim.sample_counts", ("self_s",)),
    ("weaksim.estimate_dirac_column", ("self_s",)),
    ("weaksim.backaction_offset", ("self_s",)),
    ("weaksim.calibrate_estimator", ("calls", "self_s")),
    ("fileio.write_matrix", ("calls", "self_s", "bytes")),
    ("fileio.read_matrix", ("calls", "self_s", "bytes")),
    ("fileio.write_counts", ("calls", "self_s", "bytes")),
    ("fileio.atomic_write_text", ("self_s",)),
    ("cli.cmd_gen_state", ("self_s",)),
    ("cli.cmd_measure", ("self_s",)),
    ("cli.cmd_exact", ("self_s",)),
    ("cli.cmd_propagate", ("self_s",)),
    ("cli.cmd_props", ("self_s",)),
    ("cli.cmd_reconstruct", ("self_s",)),
    ("cli.cmd_figures", ("self_s",)),
    ("qstate.DensityMatrix.validate", ("calls", "self_s", "useful_ratio")),
    ("qstate.build_bench_state", ("self_s",)),
    ("dirac.dirac_distribution", ("self_s",)),
    ("dirac.reconstruct_density", ("self_s",)),
    ("dirac.marginal_x", ("self_s",)),
    ("dirac.marginal_p", ("self_s",)),
    ("dirac.purity", ("self_s",)),
    ("bayesprop.fresnel_unitary", ("self_s",)),
    ("bayesprop.build_kernel_unitary", ("self_s",)),
    ("bayesprop.build_kernel_analytic", ("self_s",)),
    ("bayesprop.bayes_propagate", ("self_s",)),
    ("bayesprop.direct_measure_displaced", ("self_s",)),
    ("lattice.overlap_matrix", ("builds", "self_s")),
    ("config.load_run_config", ("self_s",)),
)
STAT_UNITS = {"calls": "count", "builds": "count", "self_s": "s", "bytes": "B",
              "useful_ratio": "ratio"}
LIB_STEPS = ("state", "transform", "kernel", "displaced")
TRACE_METRICS = {"trace.overhead_s": "s", "trace.traced_total_s": "s",
                 "trace.untraced_total_s": "s", "trace.bookkeeping_s": "s"}

_ALL = frozenset(SIZES)
_SCAN = frozenset({"bench_scan", "phase_space_lib"})
_FILES = frozenset({"bench_scan", "exact_io_512"})
_PROPAGATE = frozenset({"exact_io_512", "phase_space_lib"})
# Workloads predicted to reach each span; the smoke test holds the trace to it.
REACHES = {
    "weaksim.couple": _SCAN,
    "weaksim.readout_intensities": _SCAN,
    "weaksim.scan_with_records": _SCAN,
    "weaksim.sample_counts": frozenset({"bench_scan"}),
    "weaksim.estimate_dirac_column": _SCAN,
    "weaksim.backaction_offset": _SCAN,
    "weaksim.calibrate_estimator": _SCAN,
    "fileio.write_matrix": _FILES,
    "fileio.read_matrix": _FILES,
    "fileio.write_counts": frozenset({"bench_scan"}),
    "fileio.atomic_write_text": _FILES,
    "cli.cmd_gen_state": _FILES,
    "cli.cmd_measure": frozenset({"bench_scan"}),
    "cli.cmd_exact": frozenset({"exact_io_512"}),
    "cli.cmd_propagate": _FILES,
    "cli.cmd_props": frozenset({"exact_io_512"}),
    "cli.cmd_reconstruct": frozenset({"exact_io_512"}),
    "cli.cmd_figures": frozenset({"exact_io_512"}),
    "qstate.DensityMatrix.validate": _ALL,
    "qstate.build_bench_state": _ALL,
    "dirac.dirac_distribution": _ALL,
    "dirac.reconstruct_density": _ALL,
    "dirac.marginal_x": _ALL,
    "dirac.marginal_p": _ALL,
    "dirac.purity": _PROPAGATE,
    "bayesprop.fresnel_unitary": _ALL,
    "bayesprop.build_kernel_unitary": _ALL,
    "bayesprop.build_kernel_analytic": frozenset({"phase_space_lib"}),
    "bayesprop.bayes_propagate": _ALL,
    "bayesprop.direct_measure_displaced": frozenset({"phase_space_lib"}),
    "lattice.overlap_matrix": _ALL,
    "config.load_run_config": _ALL,
}


class StageTime(NamedTuple):
    """When a stage ran (``time.monotonic``) and the CPU seconds it used."""

    start: float
    end: float
    cpu: float

    @property
    def wall(self) -> float:
        return self.end - self.start


def lib_stage_times(chain: dict) -> dict:
    """A library chain's result, with its (start, end, CPU) step lists as StageTimes."""
    chain["times"] = {step: StageTime(*t) for step, t in chain["times"].items()}
    return chain


class StageError(RuntimeError):
    """A stage exited non-zero or timed out; the chain stops there."""


# -- inputs ------------------------------------------------------------------

def write_config(path: Path, n: int, seed: int, extra: str = "") -> Path:
    path.write_text(
        f"grid.n = {n}\n"
        f"grid.dx = {44e-3 / n!r}\n"
        f"pipeline.seed = {seed}\n" + extra,
        encoding="utf-8",
    )
    return path


def make_inputs(workload: str, work: Path, seed: int, sizes: dict) -> dict:
    """Config files for one workload; the seed goes in as ``pipeline.seed``."""
    n = sizes["n"]
    if workload == "phase_space_lib":
        wedge = "bench.mixed = true\nbench.wedge_tilt = 285.6\n"
        return {"config": write_config(work / "big.cfg", n, seed, wedge),
                "small": write_config(work / "small.cfg", sizes["n_small"], seed, wedge)}
    scans = f"pipeline.scans = {BENCH_SCANS}\n" if workload == "bench_scan" else ""
    inputs = {"config": write_config(work / "run.cfg", n, seed, scans)}
    if workload == "bench_scan":
        inputs["det"] = write_config(work / "det.cfg", min(n, DET_N), seed, "pipeline.scans = 2\n")
    return inputs


# -- stage runners -------------------------------------------------------------

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("DIRACSIM_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    return env


class Processes:
    """Runs each stage as its own process; records wall and CPU time and peak RSS.

    A stage's CPU time is the user plus system time of its process, from
    ``wait4``: it leaves out time the stage spent waiting for a core or for
    the disk.
    """

    def __init__(self, work: Path, ledger: "Ledger", deadline: float):
        self.work = work
        self.ledger = ledger
        self.deadline = deadline
        self.env = child_env()
        self.peak_rss_mb = 0.0

    def _spawn(self, argv, log: str) -> tuple[StageTime, str]:
        """Run one process to completion; returns its times and stdout."""
        timeout = max(1.0, self.deadline - time.monotonic())
        out_path = self.work / f"{log}.out"
        with open(out_path, "w") as out, open(self.work / f"{log}.err", "w") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        if proc.returncode != 0:
            tail = (self.work / f"{log}.err").read_text(errors="replace")[-400:]
            raise StageError(f"{log} exited {proc.returncode}: {tail.strip()}")
        return StageTime(start, end, cpu), out_path.read_text()

    def cli(self, label: str, args) -> StageTime:
        argv = [sys.executable, "-m", "diracsim.cli", *map(str, args)]
        with self.ledger.operation(label):
            return self._spawn(argv, label)[0]

    def lib_chains(self, big: Path, small: Path, seconds: float) -> list:
        """Library chains in one child process, repeated for ``seconds``."""
        argv = [sys.executable, str(BENCH_DIR / "libchain.py"), "--config", str(big),
                "--small-config", str(small), "--seconds", str(seconds)]
        with self.ledger.operation("libchain", count=0):
            chains = json.loads(self._spawn(argv, "libchain")[1].strip().splitlines()[-1])
        self.ledger.attempted += len(LIB_STEPS) * len(chains)
        return [lib_stage_times(chain) for chain in chains]


class InProcess:
    """Runs each stage in this process through ``diracsim.cli.main``.

    Per-process caches are cleared before each stage, as a fresh process
    would start without them.
    """

    def __init__(self, work: Path, ledger: "Ledger"):
        import diracsim.weaksim

        self.work = work
        self.ledger = ledger
        self._calibration = diracsim.weaksim.default_calibration  # the lru_cache object

    def cli(self, label: str, args) -> StageTime:
        import diracsim.cli

        self._calibration.cache_clear()
        with self.ledger.operation(label):
            with open(self.work / f"{label}.out", "w") as out, contextlib.redirect_stdout(out):
                start, cpu = time.monotonic(), time.process_time()
                code = diracsim.cli.main([str(a) for a in args])
                end, cpu = time.monotonic(), time.process_time() - cpu
            if code != 0:
                raise StageError(f"{label} exited {code}")
        return StageTime(start, end, cpu)

    def lib_chains(self, big: Path, small: Path, seconds: float) -> list:
        """One library chain; the traced run needs one of each kind."""
        import libchain

        self._calibration.cache_clear()
        with self.ledger.operation("libchain", len(LIB_STEPS)):
            return [lib_stage_times(libchain.run_chain(str(big), str(small)))]


# -- reading outputs for the gates ---------------------------------------------

def read_complex(path: Path):
    """Independent reader of the 'i j re im' matrix format, for the gates."""
    import numpy as np

    header = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, _, value = line[1:].strip().partition("=")
            header[key.strip()] = value.strip()
    rows = np.loadtxt(path, comments="#", ndmin=2)
    n_rows, n_cols = int(header["rows"]), int(header["cols"])
    arr = np.zeros((n_rows, n_cols), dtype=complex)
    arr[rows[:, 0].astype(int), rows[:, 1].astype(int)] = rows[:, 2] + 1j * rows[:, 3]
    return arr


def library():
    """The diracsim modules the gates use as the reference."""
    import diracsim
    import diracsim.config
    import diracsim.fileio
    import diracsim.weaksim

    return diracsim


def exact_of_state(state_path: Path, config: Path):
    """The state file and the library's distribution of it, the gates' reference."""
    ds = library()
    grid = ds.config.load_run_config(str(config)).grid
    rho = read_complex(state_path)
    return rho, ds.dirac_distribution(ds.DensityMatrix(grid=grid, rho=rho)).d


# -- workloads ---------------------------------------------------------------
#
# A chain function runs the workload's stages and returns a list with the
# stage times of each chain run, and a function that evaluates the gates as
# (name, passed, detail) tuples.

def chain_bench_scan(stages, inputs: dict, out: Path, sizes: dict, seconds: float):
    cfg = inputs["config"]
    times = {"gen_state": stages.cli("gen_state", ["gen-state", "--config", cfg, "--out", out])}
    times["measure"] = stages.cli("measure", ["measure", "--config", cfg, "--out", out])
    times["propagate"] = stages.cli("propagate", [
        "propagate", "--config", cfg, "--out", out, "--dirac", out / "dirac_measured.txt"])
    return [times], lambda: gates_bench_scan(inputs, out, sizes)


def gates_bench_scan(inputs, out: Path, sizes: dict):
    import numpy as np

    ds = library()
    n = sizes["n"]
    cfg = ds.config.load_run_config(str(inputs["config"]))
    gates = []
    n_counts = len(list((out / "counts").glob("sliver_*.txt")))
    gates.append(("counts_files", n_counts == n, f"{n_counts} of {n}"))

    measured = read_complex(out / "dirac_measured.txt")
    exact = exact_of_state(out / "state.txt", inputs["config"])[1]
    rms = float(np.sqrt(np.mean(np.abs(measured - exact) ** 2)))
    # Criterion 9's shot-noise law: each estimate entry has variance
    # (c_re^2 + c_im^2) / (n N sin^2 phi) per scan, N the photon budget.
    cal = ds.weaksim.default_calibration()
    level = np.sqrt((cal.c_re ** 2 + cal.c_im ** 2)
                    / (n * cfg.bench.photon_budget * cfg.scans)) / np.sin(cfg.bench.phi)
    ratio = rms / level
    gates.append(("shot_noise_rms", 0.8 <= ratio <= 1.25,
                  f"rms {rms:.3e} = {ratio:.3f} x predicted {level:.3e}"))

    total = measured.sum()
    worst = max(abs(read_complex(out / f"propagated_dz{dz:g}.txt").sum() - total)
                for dz in cfg.dz_list)
    gates.append(("propagated_sum_preserved", worst <= 1e-9, f"{worst:.2e}"))
    return gates


def determinism_gate(stages, inputs: dict, out: Path):
    """Two measure runs with equal seeds must write byte-identical output.

    They run on a small lattice with two scans, so the check costs about a
    second rather than a second full measure.
    """
    det, cfg = out / "det", inputs["det"]
    stages.cli("det_gen_state", ["gen-state", "--config", cfg, "--out", det])
    digests = []
    for tag in ("a", "b"):
        stages.cli(f"det_measure_{tag}", ["measure", "--config", cfg, "--out", det / tag,
                                          "--state", det / "state.txt"])
        digests.append(hashlib.sha256((det / tag / "dirac_measured.txt").read_bytes()).hexdigest())
    return ("equal_seed_identical", digests[0] == digests[1], digests[0][:16])


def chain_exact_io(stages, inputs: dict, out: Path, sizes: dict, seconds: float):
    cfg = inputs["config"]
    times = {}
    for label, command in (("gen_state", "gen-state"), ("exact", "exact"),
                           ("propagate", "propagate"), ("props", "props"),
                           ("reconstruct", "reconstruct"), ("figures", "figures")):
        times[label] = stages.cli(label, [command, "--config", cfg, "--out", out])
    return [times], lambda: gates_exact_io(inputs, out)


def gates_exact_io(inputs, out: Path):
    import numpy as np

    ds = library()
    cfg = ds.config.load_run_config(str(inputs["config"]))
    gates = []
    rho, exact = exact_of_state(out / "state.txt", inputs["config"])
    dev = float(np.max(np.abs(read_complex(out / "dirac_exact.txt") - exact)))
    gates.append(("exact_reread", dev <= 1e-12, f"{dev:.2e}"))

    lines = (out / "props.txt").read_text().splitlines()
    ok = bool(lines) and all(line.startswith("PASS ") for line in lines)
    gates.append(("props_all_pass", ok, f"{len(lines)} lines"))

    dev = float(np.max(np.abs(read_complex(out / "density.txt") - rho)))
    gates.append(("reconstruct_round_trip", dev <= 1e-10, f"{dev:.2e}"))

    worst = max(abs(read_complex(out / f"propagated_dz{dz:g}.txt").sum() - 1.0)
                for dz in cfg.dz_list)
    gates.append(("propagated_normalized", worst <= 1e-9, f"{worst:.2e}"))
    return gates


def chain_phase_space(stages, inputs: dict, out: Path, sizes: dict, seconds: float):
    results = stages.lib_chains(inputs["config"], inputs["small"], seconds)
    gates = []
    for result in results:
        res = result["residuals"]
        gates += [
            ("transform_round_trip", res["round_trip"] <= 1e-10, f"{res['round_trip']:.2e}"),
            ("propagated_normalized", res["propagated_norm"] <= 1e-9,
             f"{res['propagated_norm']:.2e}"),
            ("displaced_vs_bayes", res["displaced_vs_bayes"] <= 1e-9,
             f"{res['displaced_vs_bayes']:.2e}"),
        ]
    return [result["times"] for result in results], lambda: gates


CHAINS = {
    "bench_scan": (chain_bench_scan, ("gen_state", "measure", "propagate")),
    "exact_io_512": (chain_exact_io, ("gen_state", "exact", "propagate", "props",
                                       "reconstruct", "figures")),
    "phase_space_lib": (chain_phase_space, LIB_STEPS),
}


# -- measurement -------------------------------------------------------------

class Ledger:
    """Counts operations: every stage or step and every correctness gate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    @contextlib.contextmanager
    def operation(self, label: str, count: int = 1):
        """Count ``count`` operations, or one failed one if the block raises."""
        try:
            yield
        except (StageError, OSError, ValueError) as exc:
            self.attempted += 1
            self.failed += 1
            self.notes.append(f"{label}: {exc}")
            raise StageError(f"{label} failed") from exc
        self.attempted += count

    def gates(self, gates) -> None:
        for name, passed, detail in gates:
            self.attempted += 1
            if not passed:
                self.failed += 1
                self.notes.append(f"gate {name} failed: {detail}")


def run_chain(workload: str, stages, inputs: dict, out: Path, sizes: dict, first: bool,
              seconds: float = 0.0, tracer=None) -> list | None:
    """One chain, traced if a tracer is given, then its gates untraced.

    Returns the stage times of each chain run (the library workload repeats
    its chain for ``seconds`` in one process), or None if a stage failed.
    """
    chain = CHAINS[workload][0]
    out.mkdir(parents=True)
    try:
        with tracer if tracer is not None else contextlib.nullcontext():
            times, gates = chain(stages, inputs, out, sizes, seconds)
        stages.ledger.gates(gates())
        if workload == "bench_scan" and first:
            stages.ledger.gates([determinism_gate(stages, inputs, out)])
    except StageError:
        return None
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return times


def chain_time(times: dict, clock) -> float:
    """One chain's time, ``clock`` of each stage's StageTime summed over its stages."""
    return sum(clock(t) for t in times.values())


wall_s, cpu_s = attrgetter("wall"), attrgetter("cpu")


def setup_times(stages: Processes, config: Path, spawns: int) -> list:
    """StageTimes of fresh interpreters importing diracsim and loading the config.

    The first call also checks that diracsim comes from this checkout's src/.
    """
    code = ("import diracsim, diracsim.cli; from diracsim.config import load_run_config; "
            f"load_run_config({str(config)!r}); print(diracsim.__file__)")
    argv = [sys.executable, "-c", code]
    times = []
    with stages.ledger.operation("setup"):
        for _ in range(spawns):
            spawn, where = stages._spawn(argv, "setup")
            if not Path(where.strip()).resolve().is_relative_to(SRC.resolve()):
                raise StageError(f"diracsim imported from {where.strip()}, not from {SRC}")
            times.append(spawn)
    return times


def untraced_run(workload, seconds, work, inputs, sizes, ledger):
    """Chains of stage processes for about ``seconds``; end-to-end metrics.

    Half of the set-up samples are taken before the chains and half after,
    so that they do not all fall in one stretch of machine load.  Times are
    CPU times converted to reference seconds by the speed probe.
    """
    run_start = time.monotonic()
    stages = Processes(work, ledger, run_start + RUN_LIMIT_S)
    try:
        with SpeedProbe() as probe:
            setup_times(stages, inputs["config"], 1)  # warm-up: bytecode caches, page cache
            setup = setup_times(stages, inputs["config"], SETUP_SPAWNS // 2)
            chains = []
            start = time.monotonic()
            while True:
                times = run_chain(workload, stages, inputs, work / f"chain{len(chains)}", sizes,
                                  first=not chains, seconds=seconds)
                if times is None:
                    return {}, {}
                chains += times
                # Start chains until the measuring time is used up, and none
                # that would run past the budget of a run.
                typical = statistics.median(chain_time(t, wall_s) for t in chains)
                now = time.monotonic()
                if now - start >= seconds or now - run_start + typical > RUN_BUDGET_S:
                    break
            setup += setup_times(stages, inputs["config"], SETUP_SPAWNS - len(setup))
    except StageError:
        return {}, {}

    def ref(t: StageTime, parts=PROBE_PARTS[workload]) -> float:
        return probe.rescale(t.cpu, t.start, t.end, parts)

    metrics = {"setup_s": statistics.median(ref(t, PARTS) for t in setup),
               "total_ref_s": statistics.median(chain_time(t, ref) for t in chains),
               "peak_rss_mb": stages.peak_rss_mb}
    breakdown = {"setup_wall_s": statistics.median(map(wall_s, setup)),
                 "total_wall_s": statistics.median(chain_time(t, wall_s) for t in chains),
                 "total_cpu_s": statistics.median(chain_time(t, cpu_s) for t in chains)}
    for label in CHAINS[workload][1]:
        breakdown[f"{label}_s"] = statistics.median(ref(t[label]) for t in chains)
    breakdown = {name: {"value": value, "unit": "s"} for name, value in breakdown.items()}
    for part in PARTS:
        breakdown[f"probe_{part}_ms"] = {
            "value": 1e3 * probe.probe_s(run_start, time.monotonic(), (part,)), "unit": "ms"}
    breakdown["chains"] = {"value": len(chains), "unit": "count"}
    return metrics, breakdown


def traced_run(workload, seed, work, inputs, sizes, ledger):
    """One untraced and one traced chain in this process; per-layer metrics."""
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    from tracer import Tracer

    stages = InProcess(work, ledger)
    untraced = run_chain(workload, stages, inputs, work / "untraced", sizes, first=True)
    tracer = Tracer()
    tracer.run_id = f"{workload}-seed{seed}"
    traced = run_chain(workload, stages, inputs, work / "traced", sizes, first=False,
                       tracer=tracer)
    if untraced is None or traced is None:
        return {}, tracer

    summary = tracer.summary()
    metrics = {}
    for span, stats in PER_LAYER_SPANS:
        row = summary.get(span, {})
        calls = row.get("calls", 0)
        for stat in stats:
            if stat in ("calls", "builds"):
                value = calls
            elif stat == "useful_ratio":
                value = row.get("distinct", 0) / calls if calls else 0.0
            else:
                value = row.get(stat, 0)
            metrics[f"{span}.{stat}"] = value
    metrics["trace.traced_total_s"] = chain_time(traced[0], wall_s)
    metrics["trace.untraced_total_s"] = chain_time(untraced[0], wall_s)
    metrics["trace.overhead_s"] = metrics["trace.traced_total_s"] - metrics["trace.untraced_total_s"]
    metrics["trace.bookkeeping_s"] = tracer.overhead_s
    return metrics, tracer


def provenance(workload: str, seed: int, sizes: dict) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "diracsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "pinned_cpu": PINNED_CPU,
        "seed": seed,
        "workload": workload,
        "n": sizes,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: dict | None = None) -> dict:
    """Run one workload; returns the result and its provenance and extras."""
    sizes = dict(SIZES[workload] if sizes is None else sizes)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir()
    ledger = Ledger()
    tracer = None
    try:
        inputs = make_inputs(workload, work, seed, sizes)
        if trace:
            values, tracer = traced_run(workload, seed, work, inputs, sizes, ledger)
            units = {**{f"{s}.{st}": STAT_UNITS[st] for s, stats in PER_LAYER_SPANS
                        for st in stats}, **TRACE_METRICS}
            breakdown = {}
        else:
            values, breakdown = untraced_run(workload, seconds, work, inputs, sizes, ledger)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": ledger.failed == 0 and set(values) == set(units),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }
    return {"result": result, "breakdown": breakdown, "notes": ledger.notes,
            "provenance": provenance(workload, seed, sizes), "tracer": tracer}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that a running stage process is killed
    # and reaped, and the work directory removed, before the runner exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "diracsim" / "__init__.py").is_file():
        print(f"perfbench: no diracsim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.sched_setaffinity(0, {PINNED_CPU})  # stage processes inherit it
    sys.path.insert(0, str(SRC))

    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record = {key: run[key] for key in ("provenance", "breakdown", "notes")}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps({**record, **run["result"]}, indent=1))
    if run["tracer"] is not None:
        run["tracer"].dump(str(OUT / f"spans-{tag}.json"))
    for note in run["notes"]:
        print(f"perfbench: {note}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
