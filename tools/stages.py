"""Time each command-line stage as a process of its own, at several lattice sizes.

    python -S tools/stages.py [--n 64 256 1024] [--scans K] [--repeat R] --out PATH

For each lattice size n the seven stages of ``tools/chains.py`` (its
``STAGES`` and ``ARGS``, and its config writer) run R times in order, on the
default chain with ``grid.n = n``, ``grid.dx = 44 mm / n`` and
``pipeline.scans = K``, each time into a new temporary directory.  Each
stage is ``python -m diracsim.cli``, with ``PYTHONPATH`` at this
repository's ``src`` and started there, so it imports this tree's package;
it sees no ``DIRACSIM_*`` variable of the caller's.  It is started with
``os.posix_spawn`` and reaped with ``os.wait4``, which gives its CPU time
and its own peak RSS.  A spawned process's peak counts that of the process
that spawned it, so run the tool with ``-S``: it then never loads numpy, and
stays far below any stage.

PATH gets the ``host`` and ``env`` blocks of ``tools/layers.py`` (taken by
that tool's own code, in a process of their own), whether numpy was loaded
here, and per stage and n the runs, the exit code, and the wall and CPU
seconds' median and quartiles and the largest peak in MB.  A stage that
exits with a code other than 0 stops the tool with exit 2, and its stderr
is printed; no PATH is written then.  ``--scans 0`` or an ``--n`` below 2
is left for the stage's own config check to refuse.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
SRC = TOOLS.parent / "src"
sys.path.insert(0, str(TOOLS))

from chains import STAGES, write_chain  # noqa: E402

ENV = {**{key: value for key, value in os.environ.items() if not key.startswith("DIRACSIM_")},
       "PYTHONPATH": str(SRC)}
# the host and env blocks, read by tools/layers.py in a process that may load numpy
PROBE = ("import json, os, sys; sys.path.insert(0, sys.argv[1]); import layers; print(json.dumps("
         "{'host': layers.host(), 'env': {key: os.environ.get(key) for key in layers.ENV}}))")


def spawn(argv: list[str], log: str) -> tuple[int, float, float, float]:
    """The exit code, wall and CPU seconds and peak RSS (MB) of one
    ``diracsim argv`` process, whose stdout and stderr go to ``log.stdout``
    and ``log.stderr``; started from the working directory."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, fd, f"{log}.{name}", flags, 0o644)
               for fd, name in ((1, "stdout"), (2, "stderr"))]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "diracsim.cli", *argv], ENV,
                         file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return (os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024)  # kB on Linux


def quartiles(samples: list[float]) -> dict:
    """The first quartile, median and third quartile, interpolated between
    the sorted samples as numpy's ``percentile`` does by default."""
    ranked = sorted(samples)

    def at(q: float) -> float:
        low, frac = divmod(q * (len(ranked) - 1), 1)
        below = ranked[int(low)]
        return below + (ranked[min(int(low) + 1, len(ranked) - 1)] - below) * frac

    return {"q1": at(0.25), "median": at(0.5), "q3": at(0.75)}


def time_chain(n: int, scans: int, repeat: int) -> list[dict] | str:
    """One row per stage at lattice size n, or the refusal of the first stage
    that exits with a code other than 0."""
    overrides = {"grid.n": n, "grid.dx": 0.044 / n, "pipeline.scans": scans}
    runs = {stage: [] for stage in STAGES}
    for _ in range(repeat):
        with tempfile.TemporaryDirectory() as tmp:
            for i, (stage, argv) in enumerate(zip(STAGES, write_chain(Path(tmp), overrides))):
                log = os.path.join(tmp, f"{i}-{stage}")
                code, *measured = spawn(argv, log)
                if code != 0:
                    err = Path(f"{log}.stderr").read_text().strip()
                    return f"n = {n}: {stage} exited {code}: {err}"
                runs[stage].append(measured)
    return [{"stage": stage, "n": n, "runs": repeat, "exit": 0,
             "wall_s": quartiles([wall for wall, _, _ in samples]),
             "cpu_s": quartiles([cpu for _, cpu, _ in samples]),
             "peak_mb": max(peak for _, _, peak in samples)} for stage, samples in runs.items()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[64, 256, 1024], help="lattice sizes")
    parser.add_argument("--scans", type=int, default=10, metavar="K", help="pipeline.scans")
    parser.add_argument("--repeat", type=int, default=5, metavar="R", help="runs of each chain")
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    out, cwd = args.out.resolve(), os.getcwd()
    os.chdir(SRC)  # -m puts the working directory first on a stage's sys.path
    try:
        rows = []
        for n in args.n:
            timed = time_chain(n, args.scans, args.repeat)
            if isinstance(timed, str):
                print(f"stages: {timed}", file=sys.stderr)
                return 2
            rows += timed
    finally:
        os.chdir(cwd)
    probe = subprocess.run([sys.executable, "-c", PROBE, str(TOOLS)], capture_output=True,
                           text=True, check=True, env=ENV)
    out.write_text(json.dumps({
        "tool": "tools/stages.py", "argv": sys.argv[1:] if argv is None else argv,
        **json.loads(probe.stdout), "numpy_loaded": "numpy" in sys.modules,
        "config": f"tools/chains.py's default chain, dx = 44 mm / n, {args.scans} scans",
        "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
