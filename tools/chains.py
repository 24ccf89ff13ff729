"""Run the reference chains of the command line, and compare two trees' runs.

    python tools/chains.py --out DIR [--parent REV] [--small] [--in-process]

Each chain of ``CHAINS`` is a name and its config overrides, written to
``DIR/<label>/<chain>/config.txt``.  The seven ``STAGES`` run in order, each
with ``--config`` and ``--out DIR/<label>/<chain>/out``.  Beside the outputs
go each stage's stdout and stderr, the output directory replaced by
``<out>``, and its exit code: ``<i>-<stage>.stdout``, ``.stderr``, ``.exit``.
A stage that exits with a code other than 0 stops the run with exit 2, so a
config mistake cannot pass as a match.

The stages run as ``python -m diracsim.cli`` processes in ``<tree>/src``
with ``PYTHONPATH=<tree>/src``, so each imports that tree's package whatever
the caller's directory; the tree is this repository (label ``tree``).  With
``--in-process`` they run through the importable package's ``cli.main``.
Neither sees a ``DIRACSIM_*`` variable of the caller's environment.
``--parent REV`` also runs ``git archive REV`` of the repository,
extracted to a temporary directory (label ``parent``), compares the two
runs byte for byte, twins included, prints each file that differs or is
missing, and exits 1 if there is any.  ``--small`` runs the same chains at
n = 16, or n = 17 for a chain of odd n, with dx = 0.044 / n.
"""

from __future__ import annotations

import argparse
import filecmp
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
N64 = {"grid.n": 64, "grid.dx": 0.0006875}
# name: config overrides
CHAINS = {
    "default": {},
    "n64": N64,
    "n64-mixed-wedge": {**N64, "bench.mixed": "true", "bench.wedge_tilt": 285.6},
    # dx = 0.000698 would put the aperture outside the grid, and every stage would exit 2
    "n63": {"grid.n": 63, "grid.dx": 0.044 / 63},
}
STAGES = ("gen-state", "exact", "measure", "reconstruct", "propagate", "props", "figures")
# arguments beyond --config and --out, by stage; <out> is the chain's output directory
ARGS = {"reconstruct": ["--dirac", "<out>/dirac_measured.txt"]}


def _run(tree: Path | None, argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``diracsim argv``: a process on
    ``tree``'s source, or ``cli.main`` in this process when tree is None."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("DIRACSIM_")}
    if tree is not None:
        src = tree / "src"  # -m puts the working directory first on sys.path
        done = subprocess.run([sys.executable, "-m", "diracsim.cli", *argv], capture_output=True,
                              text=True, cwd=src, env={**env, "PYTHONPATH": str(src)})
        return done.returncode, done.stdout, done.stderr
    from diracsim import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), mock.patch.dict(os.environ, env, clear=True):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # an argparse error
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def write_chain(dest: Path, overrides: dict) -> list[list[str]]:
    """Write ``dest/config.txt`` and make ``dest/out``; each stage's arguments, in order."""
    (out := dest / "out").mkdir(parents=True)
    config = dest / "config.txt"
    config.write_text("".join(f"{key} = {value}\n" for key, value in overrides.items()))
    return [[stage, "--config", str(config), "--out", str(out),
             *(arg.replace("<out>", str(out)) for arg in ARGS.get(stage, ()))] for stage in STAGES]


def run_chain(dest: Path, overrides: dict, tree: Path | None, small: bool = False) -> str | None:
    """Run the stages of one chain into ``dest``; None, or the first stage
    that exits with a code other than 0."""
    if small:
        n = 16 if overrides.get("grid.n", 256) % 2 == 0 else 17
        overrides = {**overrides, "grid.n": n, "grid.dx": 0.044 / n}
    out = dest / "out"
    for i, (stage, argv) in enumerate(zip(STAGES, write_chain(dest, overrides))):
        code, stdout, stderr = _run(tree, argv)
        for suffix, text in (("stdout", stdout), ("stderr", stderr), ("exit", f"{code}\n")):
            (dest / f"{i}-{stage}.{suffix}").write_text(text.replace(str(out), "<out>"))
        if code != 0:
            return f"{dest.name}: {stage} exited {code}: {stderr.strip()}"
    return None


def compare(a: Path, b: Path) -> list[str]:
    """One line for each file under ``a`` or ``b`` that the other lacks or
    holds with other bytes."""
    found = [{path.relative_to(root) for path in root.rglob("*") if path.is_file()}
             for root in (a, b)]
    lines = [f"only in {root}: {rel}" for root, mine, other in ((a, *found), (b, *found[::-1]))
             for rel in sorted(mine - other)]
    return lines + [f"differs: {rel}" for rel in sorted(found[0] & found[1])
                    if not filecmp.cmp(a / rel, b / rel, shallow=False)]


def _archive(repo: Path, rev: str, dest: str) -> Path:
    """``git archive rev`` of ``repo``, extracted into ``dest``."""
    tar = subprocess.run(["git", "-C", str(repo), "archive", rev], capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest, filter="data")
    return Path(dest)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="an empty or new directory")
    parser.add_argument("--parent", metavar="REV", help="also run REV and compare the two")
    parser.add_argument("--small", action="store_true", help="run the chains at n = 16 and 17")
    parser.add_argument("--in-process", action="store_true", help="call the importable cli.main")
    args = parser.parse_args(argv)
    if args.in_process and args.parent:
        parser.error("--in-process runs the importable package, so it takes no --parent")
    if args.out.exists() and any(args.out.iterdir()):
        parser.error(f"--out {args.out} is not empty")
    out = args.out.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"tree": None if args.in_process else ROOT}
        if args.parent:
            trees["parent"] = _archive(ROOT, args.parent, tmp)
        for label, tree in trees.items():
            start = time.perf_counter()
            for name, overrides in CHAINS.items():
                if problem := run_chain(out / label / name, overrides, tree, args.small):
                    print(f"chains: {label}: {problem}", file=sys.stderr)
                    return 2
            print(f"chains: {label}: {len(CHAINS) * len(STAGES)} stages in "
                  f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    if not args.parent:
        return 0
    differences = compare(out / "tree", out / "parent")
    print("\n".join(differences) if differences else "chains: no file differs")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
