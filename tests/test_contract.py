"""The documented error contract, driven over config values.

Each config key is set in a file to each value of ``_VALUES``, and every
stage runs in process at n = 16 with the cwd in the test's own directory.
Every run must exit 0, 2 or 3, write at most one stderr line and raise
nothing (tier-1 turns warnings into errors, so a printed warning fails it
too).  Every matrix file that a stage exiting 0 names on stdout must read
back through ``read_matrix``, and nothing may be written outside the output
directory.  The cases are fixed, so the run is derandomised.
"""

import functools
import os

import pytest

from diracsim import cli
from diracsim.config import DEFAULTS
from diracsim.fileio import read_matrix

_BASE = {"grid.n": "16", "grid.dx": repr(44e-3 / 16)}
_VALUES = ["nan", "inf", "-inf", "1e400", "-1", "0", "-0", "1e-320", "1e308", "", "1_0",
           "0x10", "9" * 30, "é", "\0"]
_STAGES = [["gen-state"], ["exact"], ["measure"], ["measure", "--no-noise"], ["reconstruct"],
           ["propagate"], ["props"], ["figures"]]
# thirty 9s of scans is a valid request for 10**30 - 1 scans, not an input
# error: it would run until memory runs out, so that one pair is left out
_SKIPPED = {("pipeline.scans", "9" * 30)}


@pytest.mark.parametrize("key", list(DEFAULTS))
def test_every_config_value_keeps_the_error_contract(tmp_path, monkeypatch, capsys, key):
    outside = {path: sorted(os.listdir(path)) for path in (os.getcwd(), tmp_path.parent)}
    # one parser for every run: building it is most of a refused run's time
    monkeypatch.setattr(cli, "_build_parser", functools.lru_cache(cli._build_parser))
    cases = [(str(index), value) for index, value in enumerate(_VALUES)
             if (key, value) not in _SKIPPED]
    for name, value in cases:
        work = tmp_path / name
        work.mkdir()
        monkeypatch.chdir(work)
        settings = {**_BASE, key: value}
        (work / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in settings.items()),
                                      encoding="utf-8")
        for stage in _STAGES:
            code = cli.main([*stage, "--config", "run.cfg"])
            out, err = capsys.readouterr()
            case = f"{key} = {value!r}: {' '.join(stage)}"
            assert code in (0, 2, 3), case
            assert len(err.splitlines()) <= 1, (case, err)
            for path in out.splitlines() if code == 0 else ():
                if path.endswith(".txt") and os.path.basename(path) != "props.txt":
                    read_matrix(path)
        out_dir = value.strip() if key == "output.dir" else "out"
        assert set(os.listdir(work)) <= {"run.cfg", out_dir}, (key, value)
    monkeypatch.undo()
    assert sorted(os.listdir(tmp_path)) == sorted(name for name, _ in cases)
    assert outside == {path: sorted(os.listdir(path)) for path in outside}
