"""The installed ``diracsim`` script against ``diracsim.cli.main``.

Each case of ``_CASES`` runs one invocation twice, each time in a fresh
directory of its own that starts from the same files: once through the
console script (``diracsim`` on the PATH, or ``python -m diracsim.cli``
where no script is installed, with ``PYTHONPATH`` at this checkout's
``src``), and once in process through ``main(argv)``.  The two runs must
exit alike, print the same stdout and stderr once each run's directory is
replaced by one token, and leave byte-identical trees, twins and counts
included.  So every in-process test speaks for the installed script too.

On the script run every case also holds the error contract: exit code as
the case says, one stderr line on failure and none on success, never a
``Traceback`` or a ``Warning``, and no ``.tmp-*`` file left.  A case that
``writes`` nothing must leave its tree as it found it; ``present`` files
must be non-empty and ``absent`` ones missing, and ``check`` asserts what
is left on the files; ``names`` is a text that the stderr line must hold.

A case starts from its ``files`` (relative path: text) and the outputs of
its ``prior`` invocations, which run once, in process, before its two runs.
"""

import contextlib
import filecmp
import io
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from diracsim.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
_SCRIPT = shutil.which("diracsim")
SCRIPT = [_SCRIPT] if _SCRIPT else [sys.executable, "-m", "diracsim.cli"]
TOKEN = "<dir>"


@dataclass(frozen=True)
class Case:
    argv: str
    files: tuple  # (relative path, text) pairs written before any run
    prior: tuple = ()  # argv strings run in process, in order, before the case
    code: int = 0
    writes: bool = True  # False: the run leaves its tree as it found it
    present: tuple = ()
    absent: tuple = ()
    check: object = None  # called with the script run's directory
    names: str = ""  # a text that the stderr line must hold, such as the refused key


# n = 160 spans two row blocks, so each stage crosses a block boundary
_CHAIN = (("run.cfg", "grid.n = 160\ngrid.dx = 2.75e-4\n"),)
_STAGES = ("gen-state", "exact", "measure --no-noise", "reconstruct", "propagate", "props",
           "figures")
_CHAIN_ARGV = tuple(f"{stage} --config run.cfg --out out" for stage in _STAGES)
# a lattice whose x^2 overflows: dz = 0 propagates, dz = 0.084 is refused
_HUGE = "grid.n = 16\ngrid.dx = 1e200\ngrid.x0 = 0\nbench.aperture_halfwidth = 7e200\n" \
        "bench.edge_position = 1e199\n"
_HUGE_FILES = (("huge0.cfg", _HUGE + "propagation.dz = 0\n"),
               ("huge1.cfg", _HUGE + "propagation.dz = 0.084\n"))
_HUGE_ARGV = tuple(f"{stage} --config huge0.cfg --out huge"
                   for stage in ("gen-state", "exact", "propagate"))
_SMALL = "grid.n = 16\ngrid.dx = 0.00275\n"
# a good dz, then one whose chirp phase overflows: refused before any plane
_LATE = (("late.cfg", _SMALL + "propagation.dz = 0.084, 1e308\n"),)
_LATE_ARGV = tuple(f"{stage} --config late.cfg --out late" for stage in ("gen-state", "exact"))
# a finite wedge_tilt whose bench phase overflows the lattice
_TILT = "grid.n = 16\ngrid.dx = 1\ngrid.x0 = 0\nbench.aperture_halfwidth = 8\n" \
        "bench.edge_position = 0\nbench.wedge_tilt = 1e308\n"
# a finite entry whose magnitude overflows a figure table
_BIG_ENTRY = "# diracsim matrix v1\n# rows=2\n# cols=2\n# kind=dirac\n# n=2\n# dx=1\n# x0=0\n" \
             "0 0 1.7e308 1.7e308\n0 1 0 0\n1 0 0 0\n1 1 0 0\n"
# finite entries whose transform overflows
_OVERFLOW = "# diracsim matrix v1\n# rows=2\n# cols=2\n# kind=dirac\n# n=2\n# dx=1\n# x0=0\n" \
            "0 0 1e308 0\n0 1 1e308 0\n1 0 1e308 0\n1 1 1e308 0\n"


def _all_pass(root):
    lines = (root / "out" / "props.txt").read_text().splitlines()
    assert lines and all(line.startswith("PASS") for line in lines), lines


def _kept(path):
    assert path.read_text() == "kept\n"


def _flag_headers(root):
    lines = (root / "flags" / "dirac_measured.txt").read_text().splitlines()
    assert "# seed=5" in lines and "# corrected=false" in lines


_CASES = {
    **{f"chain {stage}": Case(argv, _CHAIN, _CHAIN_ARGV[:k], **(
        dict(present=("out/props.txt",), check=_all_pass) if stage == "props" else {}))
       for k, (stage, argv) in enumerate(zip(_STAGES, _CHAIN_ARGV))},
    "help": Case("--help", ()),
    # measure's flags reach the config through the script too
    "measure flags": Case(
        "measure --seed 5 --no-correction --state out/state.txt --config run.cfg --out flags",
        _CHAIN, _CHAIN_ARGV[:1], present=("flags/dirac_measured.txt",),
        absent=("flags/density_measured.txt",), check=_flag_headers),
    "exact --seed": Case("exact --seed 1 --config run.cfg --out seeded", _CHAIN, code=2,
                         writes=False),
    "empty propagation.dz": Case("propagate --config run.cfg --out empty",
                                 (("run.cfg", _CHAIN[0][1] + "propagation.dz =\n"),),
                                 code=2, writes=False),
    # a lattice numpy cannot shape, and an empty output.dir, each from the cwd
    "grid.n of 1e21": Case("gen-state --config big.cfg",
                           (("big.cfg", "grid.n = 1000000000000000000000\n"),),
                           code=2, writes=False),
    "empty output.dir": Case("gen-state --config nodir.cfg", (("nodir.cfg", "output.dir =\n"),),
                             code=2, writes=False),
    "x^2 overflow gen-state": Case(_HUGE_ARGV[0], _HUGE_FILES),
    "x^2 overflow exact": Case(_HUGE_ARGV[1], _HUGE_FILES, _HUGE_ARGV[:1]),
    "x^2 overflow propagate at dz 0": Case(_HUGE_ARGV[2], _HUGE_FILES, _HUGE_ARGV[:2],
                                           present=("huge/propagated_dz0.txt",)),
    "x^2 overflow propagate at dz 0.084": Case("propagate --config huge1.cfg --out huge",
                                               _HUGE_FILES, _HUGE_ARGV, code=2, writes=False),
    "dz of 1e308 after a good dz": Case("propagate --config late.cfg --out late", _LATE,
                                        _LATE_ARGV, code=2, writes=False),
    "wedge_tilt of 1e308": Case("gen-state --config tilt.cfg --out tilt",
                                (("tilt.cfg", _TILT),), code=2, writes=False),
    "reconstruct of 1e308 entries": Case("reconstruct --dirac overflow/dirac.txt --out overflow",
                                         (("overflow/dirac.txt", _OVERFLOW),), code=3,
                                         writes=False),
    "figures of a 1.7e308 entry": Case("figures --input d.txt --out fo/deep",
                                       (("d.txt", _BIG_ENTRY),), code=3, writes=False),
    "config key set twice": Case("gen-state --config twice.cfg --out twice",
                                 (("twice.cfg", "grid.n = 16\ngrid.n = 32\ngrid.dx = 0.00275\n"),),
                                 code=2, writes=False),
    # the error names the file in the way, not a temporary under it
    "--out a regular file": Case("gen-state --config late.cfg --out f",
                                 _LATE + (("f", "kept\n"),), code=3, writes=False,
                                 check=lambda root: _kept(root / "f")),
    ".diracsim-cache a regular file": Case(
        "gen-state --config late.cfg --out late", _LATE + (("late/.diracsim-cache", "kept\n"),),
        code=3, writes=False, check=lambda root: _kept(root / "late" / ".diracsim-cache")),
    # a '#' begins a comment only at the start of a line or after whitespace
    "output.dir run#2 in a file": Case(
        "gen-state --config hash.cfg",
        (("hash.cfg", _SMALL + "output.dir = run#2  # a comment\n"),),
        present=("run#2/state.txt",), absent=("run",)),
    "grid.n of 16#x": Case("gen-state --config hash.cfg --out hash",
                           (("hash.cfg", "grid.n = 16#x\ngrid.dx = 0.00275\n"),), code=2,
                           writes=False),
    # a refused value is named by its config key
    "propagation.dz of 0.1, -1": Case("gen-state --config dz.cfg --out dz",
                                      (("dz.cfg", _SMALL + "propagation.dz = 0.1, -1\n"),),
                                      code=2, writes=False, names="propagation.dz: displacement"),
    "bench.photon_budget of -1": Case("gen-state --config budget.cfg --out budget",
                                      (("budget.cfg", _SMALL + "bench.photon_budget = -1\n"),),
                                      code=2, writes=False, names="bench.photon_budget -1.0"),
    "config file with a byte-order mark": Case("gen-state --config bom.cfg --out bom",
                                               (("bom.cfg", "\ufeff" + _SMALL),),
                                               present=("bom/state.txt",)),
}


@contextlib.contextmanager
def _cwd(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def _in_process(argv, root):
    """Exit code, stdout and stderr of ``main(argv)`` run in ``root``."""
    out, err = io.StringIO(), io.StringIO()
    with _cwd(root), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv.split())
        except SystemExit as exc:
            code = exc.code
    return code or 0, out.getvalue(), err.getvalue()


def _script(argv, root):
    """The console script started in ``root``; ``communicate`` gives its streams."""
    return subprocess.Popen(SCRIPT + argv.split(), cwd=root, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env={**os.environ, "PYTHONPATH": str(SRC)})


def _tokened(root, code, out, err):
    """A run's exit code and streams, with its directory replaced by one token."""
    return code, out.replace(str(root), TOKEN), err.replace(str(root), TOKEN)


def _tree(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


@pytest.fixture(scope="module")
def start(tmp_path_factory):
    """The directory a case starts from, built once per (files, prior)."""
    built = {}

    def build(files, prior):
        if (files, prior) not in built:
            root = tmp_path_factory.mktemp("start")
            if prior:
                shutil.copytree(build(files, prior[:-1]), root, dirs_exist_ok=True)
                assert _in_process(prior[-1], root)[0] == 0, prior[-1]
            else:
                for name, text in files:
                    (root / name).parent.mkdir(parents=True, exist_ok=True)
                    (root / name).write_text(text, encoding="utf-8")
            built[files, prior] = root
        return built[files, prior]

    return build


@pytest.mark.parametrize("name", list(_CASES))
def test_the_script_runs_as_main_does(name, start, tmp_path, monkeypatch):
    case = _CASES[name]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal width
    monkeypatch.setenv("PYTHON_COLORS", "0")  # and may colour it on Python 3.14
    origin = start(case.files, case.prior)
    root, other = tmp_path / "script", tmp_path / "main"
    shutil.copytree(origin, root)
    shutil.copytree(origin, other)
    with _script(case.argv, root) as script:  # runs while main does
        in_process = _in_process(case.argv, other)
        out, err = script.communicate()
    code = script.returncode

    assert code == case.code, err
    assert "Traceback" not in err and "Warning" not in err, err
    assert len(err.splitlines()) == (1 if code else 0), err
    assert case.names in err, err
    tree = _tree(root)
    assert not [p for p in tree if os.path.basename(p).startswith(".tmp-")], tree
    if not case.writes:
        assert tree == _tree(origin)
    for path in case.present:
        assert (root / path).stat().st_size > 0, path
    for path in case.absent:
        assert not (root / path).exists(), path
    if case.check:
        case.check(root)

    assert _tokened(other, *in_process) == _tokened(root, code, out, err)
    assert _tree(other) == tree
    assert [p for p in tree if (root / p).is_file()
            and not filecmp.cmp(root / p, other / p, shallow=False)] == []
