"""The documented error contract, driven over config values, environment
values, damaged files and damaged twins.

Each config key is set in a file, and each ``DIRACSIM_*`` variable in the
environment, to each value of ``_VALUES``, and every stage runs in process
at n = 16 with the cwd in the test's own directory.  Every matrix file that
a stage exiting 0 names on stdout must read back through ``read_matrix``,
and nothing may be written outside the output directory.

The files of an n = 9 chain (``state.txt``, ``dirac_exact.txt`` and one
``propagated_dz*.txt``) are then damaged one way at a time, a token swapped,
a line deleted, duplicated or cut, and so are their twins, and each file is
read by every stage that takes it, once with ``.diracsim-cache/`` and once
without.  ``exact``, ``reconstruct`` and ``props`` must write nothing after
an input error, and the exit code, the message and every text file written
must be the same with the twin as without it.

Every run must exit 0, 2 or 3 and write at most one stderr line, with no
traceback, and raise nothing (tier-1 turns warnings into errors, so a
printed warning fails it too).  The cases are fixed, so the run is
derandomised.
"""

import contextlib
import io
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from diracsim import UnitMap, cli, make_grid
from diracsim.config import DEFAULTS, _env_key
from diracsim.fileio import grid_meta, read_matrix, write_matrix
from conftest import TWIN_DIR, drop_twins, huge_twin, twin_name

_BASE = {"grid.n": "16", "grid.dx": repr(44e-3 / 16)}
_VALUES = ["nan", "inf", "-inf", "1e400", "-1", "0", "-0", "1e-320", "1e308", "", "1_0",
           "0x10", "9" * 30, "é", "\0"]
_STAGES = [["gen-state"], ["exact"], ["measure"], ["measure", "--no-noise"], ["reconstruct"],
           ["propagate"], ["props"], ["figures"]]
# thirty 9s of scans is a valid request for 10**30 - 1 scans, not an input
# error: it would run until memory runs out, so that one pair is left out
_SKIPPED = {("pipeline.scans", "9" * 30)}


def _checked_run(capsys, argv, case):
    """Run one stage; check the exit code and stderr, and return both."""
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), case
    assert len(err.splitlines()) <= 1 and "Traceback" not in err, (case, err)
    return code, out, err


def _value_cases(tmp_path, monkeypatch, capsys, key, route):
    """Every stage with ``key`` set to each value, in the config file or in
    the environment."""
    outside = {path: sorted(os.listdir(path)) for path in (os.getcwd(), tmp_path.parent)}
    cases = [(str(index), value) for index, value in enumerate(_VALUES)
             if (key, value) not in _SKIPPED
             and not (route == "env" and "\0" in value)]  # the environment holds no NUL
    for name, value in cases:
        work = tmp_path / name
        work.mkdir()
        monkeypatch.chdir(work)
        settings = {**_BASE, key: value} if route == "file" else _BASE
        if route == "env":
            monkeypatch.setenv(_env_key(key), value)
        (work / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in settings.items()),
                                      encoding="utf-8")
        for stage in _STAGES:
            case = f"{key} = {value!r} ({route}): {' '.join(stage)}"
            code, out, _ = _checked_run(capsys, [*stage, "--config", "run.cfg"], case)
            for path in out.splitlines() if code == 0 else ():
                if path.endswith(".txt") and os.path.basename(path) != "props.txt":
                    read_matrix(path)
        out_dir = value.strip() if key == "output.dir" else "out"
        assert set(os.listdir(work)) <= {"run.cfg", out_dir}, (key, value)
    monkeypatch.undo()
    assert sorted(os.listdir(tmp_path)) == sorted(name for name, _ in cases)
    assert outside == {path: sorted(os.listdir(path)) for path in outside}


@pytest.mark.parametrize("key", list(DEFAULTS))
def test_every_config_value_keeps_the_error_contract(tmp_path, monkeypatch, capsys, key):
    _value_cases(tmp_path, monkeypatch, capsys, key, "file")


@pytest.mark.parametrize("key", list(DEFAULTS))
def test_every_environment_value_keeps_the_error_contract(tmp_path, monkeypatch, capsys, key):
    _value_cases(tmp_path, monkeypatch, capsys, key, "env")


# -- damaged files and twins of an n = 9 chain

_PROPAGATED = "propagated_dz0.084.txt"
_CHAIN_CFG = f"grid.n = 9\ngrid.dx = {44e-3 / 9!r}\npropagation.dz = 0.084\n"
# each file, with every stage that takes it and the flag that names it
_READERS = {
    "state.txt": [["exact", "--state"], ["measure", "--state"],
                  ["measure", "--no-noise", "--state"], ["figures", "--input"]],
    "dirac_exact.txt": [["reconstruct", "--dirac"], ["propagate", "--dirac"],
                        ["props", "--dirac"], ["figures", "--input"]],
    _PROPAGATED: [["figures", "--input"]],
}
_WRITE_NOTHING = {"exact", "reconstruct", "props"}  # one output, written last
_TOKENS = ["nan", "inf", "1e400", "1.7976931348623157e308", "-0", "1_0", "\x00", "é", ""]


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The outputs of gen-state, exact and propagate at n = 9, with twins."""
    root = tmp_path_factory.mktemp("chain")
    (root / "run.cfg").write_text(_CHAIN_CFG)
    for stage in ("gen-state", "exact", "propagate"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([stage, "--config", str(root / "run.cfg"),
                             "--out", str(root / "out")]) == 0
    return root


def _edited_texts(text):
    """Each damage of a matrix file's bytes: a header token (the dx value)
    and a body token (the real part of the first entry) swapped for each of
    ``_TOKENS``, and a header and a body line deleted, duplicated or cut."""
    lines = text.splitlines(keepends=True)
    dx = next(i for i, line in enumerate(lines) if line.startswith(b"# dx="))
    body = next(i for i, line in enumerate(lines) if not line.startswith(b"#"))
    fields = lines[body].split(b" ")
    edits = {}
    for token in _TOKENS:
        raw = token.encode()
        edits[f"dx={token!r}"] = lines[:dx] + [b"# dx=" + raw + b"\n"] + lines[dx + 1:]
        edits[f"re={token!r}"] = (lines[:body] + [b" ".join(fields[:2] + [raw] + fields[3:])]
                                  + lines[body + 1:])
    for where, i in (("header", dx), ("body", body)):
        edits[f"{where} line deleted"] = lines[:i] + lines[i + 1:]
        edits[f"{where} line duplicated"] = lines[:i + 1] + lines[i:]
        edits[f"{where} line cut"] = lines[:i] + [lines[i][:len(lines[i]) // 2]] + lines[i + 1:]
    return {name: b"".join(edit) for name, edit in edits.items()}


def _twin_damages(chain_out, name):
    """Each damage of the twin of ``name``: the bytes written over it."""
    data = (chain_out / TWIN_DIR / twin_name(chain_out / name)).read_bytes()
    other = "state.txt" if name == "dirac_exact.txt" else "dirac_exact.txt"
    arr = read_matrix(chain_out / name)[0]
    nan, buf, shaped = arr.copy(), io.BytesIO(), io.BytesIO()
    nan[4, 4] = np.nan
    np.save(buf, nan)
    np.save(shaped, arr[:, :-1])
    flipped = bytearray(data)
    flipped[-1] ^= 1
    return {
        "truncated": data[:len(data) // 2],
        "garbage": b"not a twin\n" * 64,
        "nan": buf.getvalue(),
        "another shape": shaped.getvalue(),
        "another file's twin": (chain_out / TWIN_DIR / twin_name(chain_out / other)).read_bytes(),
        "one bit flipped": bytes(flipped),
        "huge declared shape": huge_twin(),
    }


def _written(directory):
    """Every text file under ``directory``, by relative path, with its bytes."""
    return {str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()
            and TWIN_DIR not in path.parts}


def _read_by_every_stage(capsys, case_dir, name, damage, twin):
    """Each stage that takes ``case_dir/name``: its code, stderr and files."""
    outcomes = []
    for index, (*stage, flag) in enumerate(_READERS[name]):
        fresh = case_dir / f"{'twin' if twin else 'text'}-{index}"
        case = f"{name}, {damage}, {'with' if twin else 'without'} twins: {' '.join(stage)}"
        code, _, err = _checked_run(capsys, [*stage, "--config", str(case_dir / "run.cfg"),
                                             "--out", str(fresh), flag, str(case_dir / name)],
                                    case)
        if code and stage[0] in _WRITE_NOTHING:
            assert not fresh.exists(), case
        outcomes.append((code, err, _written(fresh) if fresh.exists() else {}))
    return outcomes


def _twin_and_text_agree(capsys, case_dir, name, damage):
    """The outcomes of every stage that reads ``name``, which must be the same
    with its twin and without."""
    with_twins = _read_by_every_stage(capsys, case_dir, name, damage, twin=True)
    if (case_dir / TWIN_DIR).exists():
        drop_twins(case_dir)
    assert with_twins == _read_by_every_stage(capsys, case_dir, name, damage, twin=False), damage
    return with_twins


@pytest.mark.parametrize("name", sorted(_READERS))
def test_a_damaged_file_keeps_the_error_contract(chain, tmp_path, capsys, name):
    source = chain / "out"
    for index, (damage, text) in enumerate(_edited_texts((source / name).read_bytes()).items()):
        case_dir = tmp_path / str(index)
        shutil.copytree(source, case_dir)
        shutil.copy(chain / "run.cfg", case_dir)
        (case_dir / name).write_bytes(text)
        _twin_and_text_agree(capsys, case_dir, name, damage)


@pytest.mark.parametrize("name", sorted(_READERS))
def test_a_damaged_twin_keeps_the_error_contract(chain, tmp_path, capsys, name):
    source = chain / "out"
    for index, (damage, data) in enumerate(_twin_damages(source, name).items()):
        case_dir = tmp_path / str(index)
        shutil.copytree(source, case_dir)
        shutil.copy(chain / "run.cfg", case_dir)
        Path(case_dir, TWIN_DIR, twin_name(case_dir / name)).write_bytes(data)
        _twin_and_text_agree(capsys, case_dir, name, damage)


# -- n = 4 files whose finite entries overflow inside a stage

def _overflowing(case):
    """A: a state with the anti-Hermitian pair rho[0, 1] = -rho[1, 0] = 1.7e308,
    which overflows rho - rho^H; B: a state whose diagonal of 1.7e308
    overflows the trace; C: a distribution of 1e308 throughout, which
    overflows every transform and sum."""
    rho = np.eye(4, dtype=complex) / 4
    if case == "A":
        rho[0, 1], rho[1, 0] = 1.7e308, -1.7e308
    elif case == "B":
        np.fill_diagonal(rho, 1.7e308)
    else:
        return "dirac_exact.txt", "dirac", np.full((4, 4), 1e308 + 0j)
    return "state.txt", "density", rho


_REFUSED_STATE = {"A": "density matrix not Hermitian (residual inf)",
                  "B": "density matrix trace (inf+0j) deviates from 1"}


@pytest.mark.parametrize("case", ["A", "B", "C"])
def test_a_file_whose_finite_entries_overflow_keeps_the_error_contract(tmp_path, capsys, case):
    """No stage prints a warning or writes a matrix holding nan or inf, with
    the file's twin or without.  At the parent each state printed an overflow
    warning before its message, and reconstruct and propagate wrote nan and
    inf from C with warnings and exited 0, and props passed its marginals."""
    name, kind, arr = _overflowing(case)
    grid = make_grid(4, 1.0, 0.0, UnitMap(wavelength=780e-9, focal_length=1.0))
    write_matrix(tmp_path / name, arr, {"kind": kind, **grid_meta(grid)})
    (tmp_path / "run.cfg").write_text("")
    outcomes = _twin_and_text_agree(capsys, tmp_path, name, case)
    stages = [" ".join(stage) for *stage, _ in _READERS[name]]
    for stage, (code, err, files) in zip(stages, outcomes):
        for path, data in files.items():
            tokens = set(re.split(rb"[\s,]+", data))
            assert path == "props.txt" or not {b"nan", b"inf", b"-inf"} & tokens, (stage, path)
        if stage == "figures":
            assert code == 0 and len(files) == 4, stage
        elif case in _REFUSED_STATE:
            assert (code, err, files) == (3, f"diracsim: error: {_REFUSED_STATE[case]}\n", {})
        elif stage == "props":
            lines = files["props.txt"].decode().splitlines()
            assert code == 0 and [line.split()[0] for line in lines] == ["FAIL"] * 4, lines
            assert lines[1] == "FAIL marginal_x: position marginal sums to inf, which is not finite"
        else:
            written = "density.txt" if stage == "reconstruct" else "propagated_dz0.084.txt"
            message = f"diracsim: error: {written} not written: the matrix holds nan or inf\n"
            assert (code, err, files) == (3, message, {}), stage
