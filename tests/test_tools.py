import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from diracsim.fileio import TWIN_DIR

TOOLS = Path(__file__).resolve().parent.parent / "tools"
SRC = TOOLS.parent / "src"
CODE_LINES = TOOLS / "code_lines.py"
CHAINS = TOOLS / "chains.py"
LAYERS = TOOLS / "layers.py"

_MODULE = '''"""Module docstring
over two lines."""

import os  # a trailing comment keeps its line


# a comment-only line
@decorator(
    1)
def f(a,
      b):
    """Docstring."""
    x = {
        "k": 1,

        # inside a literal
    }
    return x


class C:
    """Docstring."""
'''


def test_code_lines_counts_statement_lines_less_docstrings_comments_and_blanks(tmp_path):
    # import, two decorator lines, two def lines, three of the literal's
    # lines, return, class
    (tmp_path / "m.py").write_text(_MODULE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n')
    out = subprocess.run([sys.executable, str(CODE_LINES), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["     0  empty.py", "    10  m.py", "    10  total"]


def _chains():
    """tools/chains.py as a module."""
    spec = importlib.util.spec_from_file_location("chains", CHAINS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_chains_small_in_process_runs_are_identical(tmp_path):
    chains = _chains()
    runs = [tmp_path / "a", tmp_path / "b"]
    for run in runs:
        assert chains.main(["--small", "--in-process", "--out", str(run)]) == 0
    exits = sorted((runs[0] / "tree").rglob("*.exit"))
    assert len(exits) == len(chains.CHAINS) * len(chains.STAGES) == 28
    assert {path.read_text() for path in exits} == {"0\n"}
    assert (runs[0] / "tree" / "n63" / "out" / "props.txt").read_text().count("PASS") == 4
    assert list((runs[0] / "tree" / "n63" / "out").glob(f"{TWIN_DIR}/dirac_exact.txt.*.npy"))
    assert chains.compare(runs[0], runs[1]) == []
    # a byte changed and a file removed are each named
    (runs[1] / "tree" / "n64" / "out" / "props.txt").write_text("FAIL\n")
    (runs[1] / "tree" / "default" / "4-propagate.stdout").unlink()
    assert chains.compare(runs[0], runs[1]) == [
        f"only in {runs[0]}: {Path('tree/default/4-propagate.stdout')}",
        f"differs: {Path('tree/n64/out/props.txt')}"]


def test_chains_refuses_a_chain_whose_stage_exits_2(tmp_path, capsys):
    chains = _chains()
    # dx = 0.000698 puts the aperture outside an n = 63 grid, so every stage exits 2
    outside = {"grid.n": 63, "grid.dx": 0.000698}
    problem = chains.run_chain(tmp_path / "outside", outside, None)
    assert problem.startswith("outside: gen-state exited 2: diracsim: config error:")
    assert (tmp_path / "outside" / "0-gen-state.exit").read_text() == "2\n"
    assert not (tmp_path / "outside" / "1-exact.exit").exists()
    # the tool refuses the run, at any size
    chains.CHAINS = {"edge": {"bench.edge_position": 1.0}, **chains.CHAINS}
    assert chains.main(["--small", "--in-process", "--out", str(tmp_path / "all")]) == 2
    assert capsys.readouterr().err.startswith("chains: tree: edge: gen-state exited 2")


def _git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=chains", "-c", "user.email=c@test",
                    "-c", "commit.gpgsign=false", *args], check=True, capture_output=True)


def test_chains_parent_runs_each_tree_from_its_own_source(tmp_path, monkeypatch, capsys):
    chains = _chains()
    # a repository whose HEAD holds a stub cli, and whose work tree holds this package
    repo = tmp_path / "repo"
    package = repo / "src" / "diracsim"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text('print("stub")\n')
    _git(repo, "init", "-q")
    _git(repo, "add", ".")
    _git(repo, "commit", "-qm", "stub")
    shutil.rmtree(package)
    shutil.copytree(SRC / "diracsim", package, ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(chains, "ROOT", repo)
    monkeypatch.setattr(chains, "CHAINS", {"n64": chains.CHAINS["n64"]})
    monkeypatch.setattr(chains, "STAGES", ("gen-state",))
    # python -m would import this directory's package ahead of PYTHONPATH
    monkeypatch.chdir(SRC)
    assert chains.main(["--small", "--parent", "HEAD", "--out", str(tmp_path / "a")]) == 1
    assert f"differs: {Path('n64/0-gen-state.stdout')}" in capsys.readouterr().out.splitlines()
    assert (tmp_path / "a" / "parent" / "n64" / "0-gen-state.stdout").read_text() == "stub\n"
    assert (tmp_path / "a" / "tree" / "n64" / "0-gen-state.exit").read_text() == "0\n"
    assert list((tmp_path / "a" / "tree" / "n64" / "out").iterdir())
    _git(repo, "add", "-A")
    _git(repo, "commit", "-qm", "package")
    assert chains.main(["--small", "--parent", "HEAD", "--out", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out == "chains: no file differs\n"


# the library layers that the North star names, each timed at every n
NAMED_LAYERS = {"state", "validate", "transform", "readout", "expected counts", "seeds", "Poisson",
                "estimator", "kernel build", "Bayes chirp", "Bayes analytic", "Bayes dense V",
                "reconstruct", "write", "read (twin)", "read (text)"}


def test_layers_times_every_named_layer_through_the_package(tmp_path):
    out = tmp_path / "layers.json"
    subprocess.run([sys.executable, str(LAYERS), "--n", "16", "--repeat", "1", "--out", str(out)],
                   capture_output=True, check=True)
    record = json.loads(out.read_text())
    rows = record["rows"]
    assert [row["layer"] for row in rows if row["n"] is None] == ["start-up"]
    assert sorted(row["layer"] for row in rows if row["n"] == 16) == sorted(NAMED_LAYERS)
    for row in rows:
        assert row["calls"] == 1
        times = [row[kind][stat] for kind in ("wall_ms", "cpu_ms") for stat in ("q1", "median", "q3")]
        assert all(math.isfinite(t) and t > 0 for t in times), row
        # the timed callable resolves in the package, so a rename in src/ fails here
        module, _, attribute = row["callable"].partition(":")
        found = importlib.import_module(f"diracsim.{module}")
        for part in filter(None, attribute.split(".")):
            found = getattr(found, part)
        assert callable(found) or not attribute
    bench = json.loads((TOOLS.parent / "BENCH_pr34.json").read_text())
    assert set(record["host"]) == set(bench["host"])
    assert set(record["env"]) == {"OPENBLAS_NUM_THREADS", "PYTHONDONTWRITEBYTECODE"}


STAGE_TIMER = TOOLS / "stages.py"


def test_stages_times_every_stage_as_its_own_process_without_numpy(tmp_path):
    out = tmp_path / "stages.json"
    subprocess.run([sys.executable, "-S", str(STAGE_TIMER), "--n", "16", "--scans", "1",
                    "--repeat", "1", "--out", str(out)], capture_output=True, check=True,
                   timeout=60)
    record = json.loads(out.read_text())
    assert [row["stage"] for row in record["rows"]] == list(_chains().STAGES)
    for row in record["rows"]:
        assert (row["n"], row["runs"], row["exit"]) == (16, 1, 0), row
        values = [row[kind][stat] for kind in ("wall_s", "cpu_s") for stat in ("q1", "median", "q3")]
        assert all(math.isfinite(v) and v > 0 for v in values + [row["peak_mb"]]), row
    # the tool never loads numpy, so no stage's peak counts a numpy of the tool's
    assert record["numpy_loaded"] is False
    bench = json.loads((TOOLS.parent / "BENCH_pr34.json").read_text())
    assert set(record["host"]) == set(bench["host"])
    assert set(record["env"]) == {"OPENBLAS_NUM_THREADS", "PYTHONDONTWRITEBYTECODE"}


def test_stages_refuses_a_run_whose_stage_exits_non_zero(tmp_path):
    out = tmp_path / "stages.json"
    done = subprocess.run([sys.executable, "-S", str(STAGE_TIMER), "--n", "16", "--scans", "0",
                           "--repeat", "1", "--out", str(out)], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith("stages: n = 16: gen-state exited 2: diracsim: config error: "
                                  "pipeline.scans"), done.stderr
    assert not out.exists()
