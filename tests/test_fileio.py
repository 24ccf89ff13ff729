import collections
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import diracsim
from diracsim import _format17, fileio, make_grid, UnitMap
from diracsim.cli import main
from diracsim.errors import ContractError, FormatError, NumericalIntegrityError
from diracsim.fileio import grid_from_meta, grid_meta, read_matrix, write_counts, write_matrix
from diracsim.weaksim import READOUT_KEYS

from conftest import (TWIN_DIR, count_text_parses, counts_file_oracle, drop_twins,
                      figure_csv_oracle, huge_twin, load_counts, matrix_file_oracle, twin_name)


def _sample_matrix():
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    arr[0, 0] = np.pi
    arr[1, 1] = 1e-300 + 1e300j
    arr[2, 2] = 0.1 + 0.2j
    return arr


def test_matrix_round_trip_bit_exact(tmp_path):
    path = str(tmp_path / "m.txt")
    arr = _sample_matrix()
    meta = {"kind": "dirac", "n": 5, "dx": 0.1, "x0": 0.0, "note": "hello"}
    write_matrix(path, arr, meta)
    first = Path(path).read_bytes()
    drop_twins(tmp_path)  # the text parser, not the twin
    back, meta_back = read_matrix(path)
    assert np.array_equal(back, arr)
    assert meta_back["kind"] == "dirac"
    write_matrix(path, back, meta_back)
    second = Path(path).read_bytes()
    assert first == second


def test_matrix_format_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a matrix file\n")
    with pytest.raises(FormatError, match=":1"):
        read_matrix(str(path))

    path.write_text("# diracsim matrix v1\n# rows=2\n# cols=2\n0 0 1 0\n")
    with pytest.raises(FormatError, match="missing 3"):
        read_matrix(str(path))

    path.write_text("# diracsim matrix v1\n# rows=2\n# cols=2\n0 0 1\n")
    with pytest.raises(FormatError, match=":4"):
        read_matrix(str(path))

    path.write_text("# diracsim matrix v1\n# rows=2\n# cols=2\n0 5 1 0\n")
    with pytest.raises(FormatError, match=":4.*out of bounds"):
        read_matrix(str(path))

    path.write_text("# diracsim matrix v1\n# rows=1\n# cols=1\n0 0 1 0\n0 0 1 0\n")
    with pytest.raises(FormatError, match=":5.*duplicate"):
        read_matrix(str(path))

    path.write_text("# diracsim matrix v1\n# badheader\n0 0 1 0\n")
    with pytest.raises(FormatError, match=":2"):
        read_matrix(str(path))

    # a shape claim far beyond the body is reported, not allocated
    path.write_text("# diracsim matrix v1\n# rows=10000000000\n# cols=10000000000\n0 0 1 0\n")
    with pytest.raises(FormatError, match="missing 99999999999999999999 matrix entries"):
        read_matrix(str(path))


@pytest.mark.parametrize("data, message", [
    pytest.param(b"", r":1: missing magic line '# diracsim matrix v1'", id="empty"),
    pytest.param(b"# diracsim matrix v2\n# rows=1\n# cols=1\n0 0 1 0\n",
                 r":1: missing magic line", id="other-version"),
    pytest.param(b"# diracsim counts v1\n# n=1\n0 1 2 3 4\n",
                 r":1: missing magic line", id="counts-file"),
    pytest.param(b"# diracsim matrix v1\n# rows=1\n# cols 1\n0 0 1 0\n",
                 r":3: malformed header line '# cols 1'", id="header-without-equals"),
    pytest.param(b"# diracsim matrix v1\n# rows=1\n# cols=1\n# dx=0.5\n# dx=1.0\n0 0 1 0\n",
                 r":5: repeated header key 'dx'", id="repeated-key"),
    pytest.param(b"# diracsim matrix v1\n# rows=1\n0 0 1 0\n",
                 r": missing or invalid rows/cols header \('cols'\)", id="missing-cols"),
    pytest.param(b"# diracsim matrix v1\n# rows=two\n# cols=1\n0 0 1 0\n",
                 r": missing or invalid rows/cols header \(.*'two'\)", id="word-rows"),
    pytest.param(b"# diracsim matrix v1\n# rows=1\n# cols=1.5\n0 0 1 0\n",
                 r": missing or invalid rows/cols header \(.*'1.5'\)", id="fractional-cols"),
    pytest.param(b"# diracsim matrix v1\n# rows=-1\n# cols=2\n",
                 r": missing or invalid rows/cols header \(negative shape -1x2\)",
                 id="negative-rows"),
    pytest.param(b"# diracsim matrix v1\n# rows=1\n# cols=1\n0 0 1 \xff\n",
                 r"^cannot read .*'utf-8' codec", id="not-utf8"),
    pytest.param(None, r"^cannot read .*No such file", id="missing-file"),
])
def test_matrix_header_and_read_errors(tmp_path, data, message):
    """Errors found before the body is parsed name the file (and the line)."""
    path = tmp_path / "bad.txt"
    if data is not None:
        path.write_bytes(data)
    with pytest.raises(FormatError, match=message) as info:
        read_matrix(str(path))
    assert str(path) in str(info.value)


def test_a_directory_and_a_failing_twin_lookup_cannot_be_read(tmp_path, monkeypatch):
    """An OSError raised while the file is open, its twin lookup included, is
    a FormatError naming the file, as a missing file is."""
    with pytest.raises(FormatError) as info:
        read_matrix(str(tmp_path))
    assert str(info.value) == f"cannot read {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'"

    path = str(tmp_path / "m.txt")
    write_matrix(path, np.eye(2), {})
    assert os.listdir(tmp_path / TWIN_DIR)

    def refused(directory):
        raise PermissionError(13, "Permission denied", directory)

    monkeypatch.setattr(fileio.os, "listdir", refused)
    with pytest.raises(FormatError) as info:
        read_matrix(path)
    assert str(info.value) == (f"cannot read {path}: [Errno 13] Permission denied: "
                               f"'{tmp_path / TWIN_DIR}'")
    assert isinstance(info.value.__cause__, PermissionError)


def test_grid_meta_round_trip():
    grid = make_grid(16, 0.25, 1.5, UnitMap(780e-9, 1.0, 4.935))
    meta = {k: str(v) for k, v in grid_meta(grid).items()}
    back = grid_from_meta(meta)
    assert back == grid
    plain = make_grid(8, 0.5)
    assert grid_from_meta({k: str(v) for k, v in grid_meta(plain).items()}) == plain
    with pytest.raises(FormatError):
        grid_from_meta({"n": "8"})
    for key, value in (("dx", "-1"), ("x0", "nan"), ("wavelength", "nan"),
                       ("focal_length", "inf"), ("magnification", "0")):
        bad = {k: str(v) for k, v in grid_meta(grid).items()}
        bad[key] = value
        with pytest.raises(FormatError, match=f"f.txt: incomplete or invalid grid header.*{key}"):
            grid_from_meta(bad, "f.txt")


def _counts_meta(sliver=0, phi=0.1, budget=10.0, seed="none"):
    return {"sliver_lo": sliver, "sliver_hi": sliver + 1, "phi": phi,
            "photon_budget": budget, "seed": seed}


def test_counts_round_trip(tmp_path):
    """Counts files are output only; they load with np.loadtxt and rewrite to
    the same bytes."""
    rng = np.random.default_rng(1)
    counts = np.abs(rng.standard_normal((len(READOUT_KEYS), 6))) * 100
    path = str(tmp_path / "c.txt")
    meta = _counts_meta(2, 0.22, 1e6)
    write_counts(path, counts, meta)
    first = Path(path).read_bytes()
    assert first == counts_file_oracle(counts, meta)
    back, meta = load_counts(path)
    assert list(meta) == ["n", "sliver_lo", "sliver_hi", "phi", "photon_budget", "seed"]
    assert (meta["sliver_lo"], meta["sliver_hi"]) == ("2", "3")
    assert float(meta["phi"]) == 0.22
    assert meta["seed"] == "none"
    assert back.shape == (len(READOUT_KEYS), 6)
    assert np.array_equal(back, counts)
    del meta["n"]
    write_counts(path, back, meta)
    assert Path(path).read_bytes() == first

    write_counts(path, counts, _counts_meta(seed=12345))
    assert load_counts(path)[1]["seed"] == "12345"


def test_non_finite_entries_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# diracsim matrix v1\n# rows=1\n# cols=2\n0 0 1 0\n0 1 1 nan\n")
    with pytest.raises(FormatError, match=r":5: non-finite value in '0 1 1 nan'"):
        read_matrix(str(path))


# -- references: independent line-by-line readers, which split the file with
# str.splitlines.  Error messages must match them word for word (non-finite
# values aside, which they accept).  The writers' byte oracles are in conftest.py.

def _ref_read_lines(path, magic):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != magic:
        raise FormatError(f"{path}:1: missing magic line {magic!r}")
    meta = {}
    body_start = 1
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.startswith("#"):
            body_start = lineno
            break
        text = line[1:].strip()
        if "=" not in text:
            raise FormatError(f"{path}:{lineno}: malformed header line {line!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        if key in meta:
            raise FormatError(f"{path}:{lineno}: repeated header key {key!r}")
        meta[key] = value.strip()
        body_start = lineno + 1
    return lines, meta, body_start


def _ref_read_matrix(path):
    lines, meta, body_start = _ref_read_lines(path, fileio.MATRIX_MAGIC)
    try:
        rows, cols = int(meta["rows"]), int(meta["cols"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: missing or invalid rows/cols header ({exc})") from exc
    arr = np.zeros((rows, cols), dtype=complex)
    seen = np.zeros((rows, cols), dtype=bool)
    for lineno, line in enumerate(lines[body_start - 1:], start=body_start):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise FormatError(f"{path}:{lineno}: expected 'i j re im', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            re, im = float(parts[2]), float(parts[3])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        if not (0 <= i < rows and 0 <= j < cols):
            raise FormatError(f"{path}:{lineno}: index ({i}, {j}) out of bounds")
        if seen[i, j]:
            raise FormatError(f"{path}:{lineno}: duplicate entry ({i}, {j})")
        seen[i, j] = True
        arr[i, j] = complex(re, im)
    if not seen.all():
        raise FormatError(f"{path}: missing {int((~seen).sum())} matrix entries")
    return arr


def _outcome(read, path):
    """A reader's values as bytes, or its FormatError message."""
    try:
        result = read(path)
    except FormatError as exc:
        return "error", str(exc)
    if isinstance(result, tuple):
        result = result[0]
    return "ok", result.tobytes()


_MATRIX_HEAD = "# diracsim matrix v1\n# rows=2\n# cols=2\n"
_MATRIX_OK = "0 0 1 0\n0 1 2 0\n1 0 3 -0\n1 1 4 5e-324\n"


@pytest.mark.parametrize("text", [
    _MATRIX_HEAD + _MATRIX_OK,
    _MATRIX_HEAD + "\n0 0 1 0\n   \n0 1 2 0\n\n1 0 3 -0\n1 1 4 5e-324\n\n",
    _MATRIX_HEAD + "0\t0\t1\t0\n0 1\t2 0\n 1  0 3 -0 \n1\t1 4\t5e-324\n",
    # a tab, CRLF endings and trailing blank lines
    (_MATRIX_HEAD + _MATRIX_OK).replace(" 1 ", "\t1\t", 1).replace("\n", "\r\n") + "\n\n",
    _MATRIX_HEAD + "1 1 4 5e-324\n1 0 3 -0\n0 1 2 0\n0 0 1 0\n",
    _MATRIX_HEAD + "0 0 1 0\n# note\n0 1 2 0\n1 0 3 -0\n1 1 4 5e-324\n",
    _MATRIX_HEAD + "0 0 1 0\n1.0 1 2 0\n1 0 3 -0\n1 1 4 5e-324\n",
    _MATRIX_HEAD + "0 0 1 0\n0 1 2\n1 0 3 -0\n1 1 4 5e-324\n",
    _MATRIX_HEAD + "0 0 1 0\n0 1 2 0 7\n1 0 3 -0\n1 1 4 5e-324\n",
    _MATRIX_HEAD + "0 0 1 0\n0 1 2 0\n1 0 3 -0\n1 1 4 5e-324\n0 0 1 0\n",
    _MATRIX_HEAD + "0 0 1 0\n0 1 2 0\n0 1 3 -0\n1 1 4 5e-324\n",
    _MATRIX_HEAD + "0 0 1 0\n0 1 2 0\n1 1 4 5e-324\n",
    _MATRIX_HEAD + "0 0 1 0\n0 1 2 0\n1 -1 3 0\n1 1 4 5e-324\n",
    _MATRIX_HEAD + "0 0 1 0\n0 1 2 0\n-1 0 3 0\n1 1 4 5e-324\n",
    _MATRIX_HEAD + "0 0 1 0\n0 1 2 0\n1 0 0x1 0\n1 1 4 5e-324\n",
    _MATRIX_HEAD + "0 0 1 0\n0 1 2 0\n1_0 0 3 0\n1 1 4 5e-324\n",
    _MATRIX_HEAD + "0 0 1_0 0\n+0 1 2 0\n1 0 3 -0\n1 1 4 5e-324\n",
    "# diracsim matrix v1\n# rows=2\n0 0 1 0\n",
    "# diracsim matrix v1\n# rows=0\n# cols=0\n",
    "# diracsim matrix v1\n# rows=1\n# cols=1\n# rows=1\n0 0 1 0\n",
    (_MATRIX_HEAD + _MATRIX_OK).replace("\n", "\r"),
    (_MATRIX_HEAD + "0 0 1 0\n\n0 1 x 0\n1 0 3 -0\n1 1 4 5e-324\n").replace("\n", "\r"),
])
def test_readers_match_line_reference(tmp_path, text):
    """Accepted files give the reference's values, rejected ones its message."""
    path = str(tmp_path / "f.txt")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    assert _outcome(read_matrix, path) == _outcome(_ref_read_matrix, path)


_NUMBERS = ["0", "1", "2", "-1", "+1", "1.0", "0.5", "-0", "-2.5e-3", "5e-324",
            "1e300", "1_0", "0x1", "x", "#"]


@st.composite
def _body(draw, numbers, separators):
    """'i j re im' rows covering the 2 x 2 matrix of ``_MATRIX_HEAD`` once each,
    then up to four edits that may break the body: a changed token, a blank,
    comment, dropped, repeated or longer line."""
    rows = [[str(i), str(j)] + [draw(st.sampled_from(["0", "1", "2.5", "-0"])) for _ in range(2)]
            for i, j in draw(st.permutations([(0, 0), (0, 1), (1, 0), (1, 1)]))]
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(["token", "token", "blank", "comment", "drop",
                                     "repeat", "extra"]))
        at = draw(st.integers(0, len(rows)))
        if edit == "blank":
            rows.insert(at, [])
        elif edit == "comment":
            rows.insert(at, ["#", "note"])
        elif at == len(rows) or not rows[at]:
            continue
        elif edit == "token":
            rows[at][draw(st.integers(0, len(rows[at]) - 1))] = draw(st.sampled_from(numbers))
        elif edit == "drop":
            rows.pop(at)
        elif edit == "repeat":
            rows.insert(at, list(rows[at]))
        else:
            rows[at] = rows[at] + ["0"]
    return "".join(draw(st.sampled_from(separators)).join(row) + "\n" for row in rows)


def _matrix_file(tmp_path, body):
    path = str(tmp_path / "f.txt")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_MATRIX_HEAD + body)
    return path


_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


@_SETTINGS
@given(data=st.data())
def test_readers_agree_with_reference_on_finite_bodies(tmp_path, data):
    body = data.draw(_body(_NUMBERS, [" ", "\t", "  "]))
    path = _matrix_file(tmp_path, body)
    assert _outcome(read_matrix, path) == _outcome(_ref_read_matrix, path)


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\xa0", " \x0b\x0c "])
def test_vertical_tab_form_feed_and_no_break_space_separate_fields(tmp_path, sep):
    """A line ends only at \\n, \\r or \\r\\n, and ``str.split`` takes these
    characters as field separators: the values are those of the same body with
    spaces, and an extra field is named on its own line.  The reference reader
    cannot check this, as ``str.splitlines`` ends a line at \\x0b and \\x0c."""
    (tmp_path / "spaced").mkdir()
    spaced = _matrix_file(tmp_path / "spaced", _MATRIX_OK)
    path = _matrix_file(tmp_path, _MATRIX_OK.replace(" ", sep))
    assert _outcome(read_matrix, path) == _outcome(_ref_read_matrix, spaced)
    extra = "0 1 2 0 7".replace(" ", sep)
    path = _matrix_file(tmp_path, _MATRIX_OK.replace("0 1 2 0", "0 1 2 0 7").replace(" ", sep))
    assert _outcome(read_matrix, path) == (
        "error", f"{path}:5: expected 'i j re im', got {extra!r}")


_SPECIAL = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.2250738585072014e-308,
            1e300, -1e300, 1e-300, -1e-300, 1.7e308, np.pi, 0.1]
_VALUE = st.one_of(st.sampled_from(_SPECIAL), st.floats())
_FINITE_VALUE = st.one_of(st.sampled_from([v for v in _SPECIAL if np.isfinite(v)]),
                          st.floats(allow_nan=False, allow_infinity=False))
# counts are finite and >= 0 (``write_counts`` refuses the rest); whole ones take its %d path
_COUNT_SPECIAL = [v for v in _SPECIAL if np.isfinite(v) and v >= 0]
_COUNT = st.one_of(st.sampled_from(_COUNT_SPECIAL), st.integers(0, 2 ** 60).map(float),
                   st.floats(min_value=0.0, allow_infinity=False))


def _draw_array(data, shape, value=_VALUE):
    size = int(np.prod(shape))
    return np.array(data.draw(st.lists(value, min_size=size, max_size=size)),
                    dtype=float).reshape(shape)


@_SETTINGS
@given(rows=st.sampled_from([1, 2, 3, 5, 7]), cols=st.sampled_from([1, 2, 4, 5, 9]),
       seed=st.sampled_from([None, 0, 12345]), finite=st.booleans(), data=st.data())
@example(rows=3, cols=5, seed=None, finite=False, data=None)
@example(rows=3, cols=5, seed=None, finite=True, data=None)
def test_writers_match_per_element_reference(tmp_path, monkeypatch, rows, cols, seed, finite,
                                             data):
    """Counts files match their oracle and load back.  The matrix writer and
    reader keep one contract: an array is refused exactly when some entry is
    nan or inf, and the directory stays as it was; any other array is written
    as the oracle's bytes and reads back bit for bit from its twin and, with
    the twin gone, from its text."""
    arr = np.empty((rows, cols), dtype=complex)
    if data is None:  # every special value, in both parts and in each analyzer
        special = np.array(_SPECIAL)
        if finite:  # the finite ones, repeated to the same length
            special = np.resize(special[np.isfinite(special)], len(special))
        arr.real, arr.imag = special.reshape(rows, cols), special[::-1].reshape(rows, cols)
        counts = np.array([np.roll(_COUNT_SPECIAL, 4 * k)[:cols] for k in range(len(READOUT_KEYS))])
    else:
        value = _FINITE_VALUE if finite else _VALUE
        arr.real = _draw_array(data, (rows, cols), value)
        arr.imag = _draw_array(data, (rows, cols), value)
        counts = _draw_array(data, (len(READOUT_KEYS), cols), _COUNT)
    meta = {"kind": "dirac", "n": rows, "dx": 0.1, "x0": -0.0, "mixed": True}
    counts_meta = _counts_meta(0, 0.2255, 1e8, "none" if seed is None else seed)
    matrix_path, counts_path = tmp_path / "m.txt", str(tmp_path / "c.txt")
    write_counts(counts_path, counts, counts_meta)
    assert Path(counts_path).read_bytes() == counts_file_oracle(counts, counts_meta)
    assert load_counts(counts_path)[0].tobytes() == counts.tobytes()

    parses = count_text_parses(monkeypatch)
    if not np.isfinite(arr.view(float)).all():
        _assert_refused(tmp_path, matrix_path, "matrix", write_matrix, arr, meta)
        return
    write_matrix(str(matrix_path), arr, meta)
    assert matrix_path.read_bytes() == matrix_file_oracle(arr, meta)
    assert read_matrix(str(matrix_path))[0].tobytes() == arr.tobytes() and not parses
    drop_twins(tmp_path)
    assert read_matrix(str(matrix_path))[0].tobytes() == arr.tobytes() and len(parses) == 1


@settings(derandomize=True, max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.sampled_from([2, 3, 5, 8]), kind=st.sampled_from(["dirac", "density", "propagated"]),
       data=st.data())
def test_figure_csv_matches_per_element_reference(tmp_path, n, kind, data):
    finite = st.one_of(st.sampled_from([v for v in _SPECIAL if np.isfinite(v)]),
                       st.floats(allow_nan=False, allow_infinity=False))
    arr = np.empty((n, n), dtype=complex)
    arr.real, arr.imag = _draw_array(data, (n, n), finite), _draw_array(data, (n, n), finite)
    grid = make_grid(n, 0.25, 0.5, UnitMap(780e-9, 1.0, 4.935))
    _figures_match_oracle(tmp_path, arr, {"kind": kind, **grid_meta(grid)}, grid)


def _figures_match_oracle(tmp_path, arr, meta, grid):
    """Each table that ``_write_table`` writes matches the oracle; one whose
    oracle holds an inf cell is refused, and nothing is written.
    ``figures`` writes the same bytes when |z| is finite everywhere, and else
    exits 3."""
    from diracsim.cli import _figure_axes

    in_path, out = str(tmp_path / "in.txt"), str(tmp_path / "out")
    write_matrix(in_path, arr, meta)
    finite = np.isfinite(np.abs(arr)).all()
    assert main(["figures", "--input", in_path, "--out", out]) == (0 if finite else 3)
    cols, col_label = _figure_axes(meta, grid)
    corner = f"x\\{col_label}"
    for table, entry in fileio.FIGURE_ENTRIES.items():
        want = figure_csv_oracle(arr, grid.coords, cols, corner, table)
        path = tmp_path / f"{table}.csv"
        if {b"nan", b"inf", b"-inf"} & set(want.replace(b"\n", b",").split(b",")):
            _assert_refused(tmp_path, path, "table", fileio._write_table, corner, cols,
                            grid.coords, arr, entry)
            continue
        fileio._write_table(str(path), corner, cols, grid.coords, arr, entry)
        assert path.read_bytes() == want
        if finite:
            assert Path(out, f"fig_in_{table}.csv").read_bytes() == want


def _tree(directory):
    """Every file and directory under ``directory``, twins included, by
    relative path, with a file's bytes (None for a directory)."""
    return {str(path.relative_to(directory)): None if path.is_dir() else path.read_bytes()
            for path in sorted(Path(directory).rglob("*"))}


def _assert_refused(directory, path, what, write, *args):
    """``write(path, *args)`` raises the NumericalIntegrityError that names
    the file of ``path`` and its ``what``, and leaves every file and
    directory under ``directory`` as it was."""
    before = _tree(directory)
    with pytest.raises(NumericalIntegrityError) as info:
        write(str(path), *args)
    assert str(info.value) == f"{Path(path).name} not written: the {what} holds nan or inf"
    assert _tree(directory) == before


# -- byte oracles: edge values, edge shapes and strided inputs

_EDGE = [np.nan, np.inf, -np.inf, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
         -1.7976931348623157e308]
_NAN_INF = [v for v in _EDGE if not np.isfinite(v)]  # write_matrix refuses these


def _edge_matrix(shape, seed):
    """Random normal entries with every finite ``_EDGE`` value and every
    ``_TIES`` value somewhere in the real part and somewhere in the imaginary
    part."""
    edges = [v for v in _EDGE if np.isfinite(v)] + _TIES
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((2,) + shape)
    for part in parts:
        part.reshape(-1)[rng.choice(part.size, len(edges), replace=False)] = edges
    arr = np.empty(shape, dtype=complex)
    arr.real, arr.imag = parts
    return arr


def _assert_each_nan_inf_refused(directory, path, arr):
    """``write_matrix`` refuses ``arr`` with nan, inf or -inf in the real or
    the imaginary part of its first or its last entry, and leaves
    ``directory`` as it was."""
    for value in _NAN_INF:
        for at in (0, 1, -2, -1):
            bad = np.array(arr, order="C")
            bad.view(float).reshape(-1)[at] = value
            _assert_refused(directory, path, "matrix", write_matrix, bad, _META)


_META = {"kind": "dirac", "n": 3, "dx": 0.125, "x0": -0.0, "mixed": False, "note": "é"}


@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
def test_write_matrix_bytes_match_oracle(tmp_path, layout):
    arr = _edge_matrix((3, 5), seed=11)
    if layout == "transposed":
        arr = arr.T
        assert not arr.flags.c_contiguous
    path = tmp_path / "m.txt"
    write_matrix(str(path), arr, _META)
    assert path.read_bytes() == matrix_file_oracle(arr, _META)
    _assert_each_nan_inf_refused(tmp_path, path, arr)


@pytest.mark.parametrize("re, im", list(zip(_EDGE, _EDGE[::-1])) + [(np.pi, -0.1)])
def test_write_matrix_1x1_bytes_match_oracle(tmp_path, re, im):
    arr = np.empty((1, 1), dtype=complex)
    arr.real, arr.imag = re, im
    path = tmp_path / "m.txt"
    if not np.isfinite([re, im]).all():
        _assert_refused(tmp_path, path, "matrix", write_matrix, arr, _META)
        return
    write_matrix(str(path), arr, _META)
    assert path.read_bytes() == matrix_file_oracle(arr, _META)


def _edge_counts(kind):
    """(4, 9) counts as a strided view, the way ``measure`` slices one sliver
    out of a scan's (4, n, n) array."""
    rng = np.random.default_rng(3)
    scan = rng.uniform(0.0, 1e3, (len(READOUT_KEYS), 2, 9))
    if kind == "integer":
        scan = rng.poisson(1e6, scan.shape)
        scan[:, 0, :3] = [0, 1, 2 ** 53 + 1]
    elif kind == "whole":
        scan = np.floor(scan)
        scan[:, 0, :3] = [0.0, 1e17, 2.0 ** 60]
    else:
        scan[:, 0, :len(_COUNT_EDGE)] = _COUNT_EDGE
    return scan[:, 0, :]


_COUNT_EDGE = [v for v in _EDGE if np.isfinite(v) and v >= 0]  # -0, 5e-324, the largest double


@pytest.mark.parametrize("kind", ["integer", "whole", "fractional"])
def test_write_counts_bytes_match_oracle(tmp_path, kind):
    counts = _edge_counts(kind)
    assert not counts.flags.c_contiguous
    meta = _counts_meta(4, 0.2255, 1e8, 987654321)
    path = str(tmp_path / "c.txt")
    write_counts(path, counts, meta)
    assert Path(path).read_bytes() == counts_file_oracle(counts, meta)


@pytest.mark.parametrize("value, whole", [(0.0, True), (1.0, True), (1e16, True),
                                          (99999999999999984.0, True), (1e17, False),
                                          (-0.0, False)])
def test_whole_counts_print_as_g17(tmp_path, monkeypatch, value, whole):
    """Whole counts in [+0, 1e17) take the %d template; 1e17 (``1e+17``) and
    -0 (``-0``) take the %.17g kernel.  Either way each prints as
    ``b"%.17g" % value``."""
    templates = []
    template = fileio._counts_template
    monkeypatch.setattr(fileio, "_counts_template",
                        lambda *args: templates.append(args) or template(*args))
    path = tmp_path / "c.txt"
    write_counts(str(path), np.full((len(READOUT_KEYS), 2), value), _counts_meta())
    assert path.read_bytes().splitlines()[-2:] == [
        b"%d " % k + b" ".join([b"%.17g" % value] * len(READOUT_KEYS)) for k in range(2)]
    assert templates == ([(2,)] if whole else [])


def test_counts_files_of_one_length_share_their_index_words(tmp_path):
    """Counts that are not whole take the kernel, whose index words are
    built once per length and held read-only."""
    fileio._index_words.cache_clear()
    for m in range(3):
        write_counts(str(tmp_path / f"c{m}.txt"), np.full((len(READOUT_KEYS), 5), 0.5),
                     _counts_meta())
    info = fileio._index_words.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert not fileio._index_words(5, b"").flags.writeable


_BAD_COUNTS = {
    "3-rows": np.ones((3, 5)),
    "1-d": np.ones(len(READOUT_KEYS)),
    "3-d": np.ones((len(READOUT_KEYS), 2, 2)),
    "nan": np.full((len(READOUT_KEYS), 2), np.nan),
    "inf": np.full((len(READOUT_KEYS), 2), np.inf),
    "negative": np.full((len(READOUT_KEYS), 2), -1.0),
}


@pytest.mark.parametrize("kind", sorted(_BAD_COUNTS))
def test_write_counts_refuses_bad_counts(tmp_path, kind):
    """A wrong shape or a count that is not finite and >= 0 is refused before
    anything is written: no file, no temporary, not even the directory."""
    with pytest.raises(ContractError, match="counts must"):
        write_counts(str(tmp_path / "out" / "c.txt"), _BAD_COUNTS[kind], _counts_meta())
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2)])
def test_write_matrix_refuses_an_array_that_is_not_2d(tmp_path, shape):
    """A 0-D, 1-D or 3-D array is refused before anything is written: no
    file, no temporary, no twin, not even the directory."""
    with pytest.raises(ContractError, match=r"^matrix must be 2-D, got shape \("):
        write_matrix(str(tmp_path / "out" / "m.txt"), np.zeros(shape, complex), _META)
    assert os.listdir(tmp_path) == []


def test_figure_csv_bytes_match_oracle(tmp_path):
    arr = _edge_matrix((4, 4), seed=5)
    grid = make_grid(4, 0.25, -0.375, UnitMap(780e-9, 1.0, 4.935))
    # |z| overflows at the first corner, whose magnitude table is refused, and not at the second
    for k, corner in enumerate([complex(1.7976931348623157e308, -1.7976931348623157e308),
                                complex(1.7976931348623157e308, -0.0)]):
        arr[0, 0] = corner
        (tmp_path / str(k)).mkdir()
        _figures_match_oracle(tmp_path / str(k), arr, {"kind": "propagated", **grid_meta(grid)},
                              grid)


# -- the %.17g kernel against Python's own formatting

def _kernel_bytes(x):
    """Each number's field from ``_format17.render``, its zero bytes dropped."""
    x = np.asarray(x, dtype=float)
    fields = _format17.render(x).T.copy().view(np.uint8).reshape(len(x), 4 * _format17.WORDS)
    return [bytes(field[field != 0]) for field in fields]


def _python_bytes(x):
    return [b"%.17g" % v for v in np.asarray(x, dtype=float).tolist()]


def _bits_as_float(bits):
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


# y = |x| 10**(16 - X) is exactly k + 1/2 for these: the 17th digit is a tie
# that Python rounds to even, so they must take the fallback
_TIES = [1000000000000000.25, 1000000000000000.75, 2056702818342368.25,
         2056702818342368.75, 100000000000000.125, 100000000000000.375,
         866407059001864.125, 866407059001864.875]
# exactly 17 significant digits: no rounding at all
_SEVENTEEN = [2056702818342368.5, 866407059001864.5]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.integers(0, 2 ** 64 - 1).map(_bits_as_float)),
                max_size=40))
def test_kernel_matches_python_formatting(values):
    assert _kernel_bytes(values) == _python_bytes(values)


def test_kernel_at_decade_boundaries_ties_and_edges():
    from fractions import Fraction

    for v in _TIES:
        exponent = len(b"%d" % int(v)) - 1
        y = Fraction(v) * Fraction(10) ** (16 - exponent)
        assert y - int(y) == Fraction(1, 2), v
    decades = 10.0 ** np.arange(-307, 308)
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
             1.7976931348623157e308, np.inf, -np.inf, np.nan, 1e-290, 1e290, 0.1, 1e-5,
             9.9999999999999996e-281, 99999999999999999.0, 1e16, 1e17, 1e22, 1e23]
    with np.errstate(over="ignore"):  # the largest double steps up to inf
        up = np.nextafter(edges, np.inf)
    values = np.concatenate([decades, np.nextafter(decades, 0), np.nextafter(decades, np.inf),
                             _TIES, _SEVENTEEN, edges, np.nextafter(edges, 0), up])
    values = np.concatenate([values, -values])
    assert _kernel_bytes(values) == _python_bytes(values)


@pytest.mark.parametrize("length", [0, 1, fileio._BLOCK - 1, fileio._BLOCK, fileio._BLOCK + 1])
def test_kernel_on_block_lengths(length):
    rng = np.random.default_rng(length)
    values = rng.standard_normal(length) * 10.0 ** rng.integers(-40, 40, length)
    values[::7] = rng.integers(0, 2 ** 64, len(values[::7]), dtype=np.uint64).view(np.float64)
    assert _kernel_bytes(values) == _python_bytes(values)
    assert fileio._lines(values[:, None], b"\0") == b"".join(b"%.17g\n" % v for v in values)


@pytest.mark.parametrize("cols", [fileio._BLOCK // 2 - 1, fileio._BLOCK // 2,
                                  fileio._BLOCK // 2 + 1])
def test_write_matrix_across_a_block_boundary(tmp_path, cols):
    arr = _edge_matrix((3, cols), seed=cols)
    path = tmp_path / "m.txt"
    write_matrix(str(path), arr, _META)
    assert path.read_bytes() == matrix_file_oracle(arr, _META)
    _assert_each_nan_inf_refused(tmp_path, path, arr)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e4, 1e4, exclude_min=True, exclude_max=True), max_size=40),
       st.one_of(st.none(), st.floats(min_value=1e4, allow_infinity=False),
                 st.floats(max_value=-1e4, allow_infinity=False)))
@example(values=[0.5, -9999.999999999998], large=12345.678)
def test_kernel_with_and_without_a_large_integer_part(values, large):
    """A block whose integer parts are all below 10**4 takes the one-group
    shortcut; one value of |x| >= 1e4 sends the whole block the long way."""
    if large is not None:
        values = values + [large]
    assert _kernel_bytes(values) == _python_bytes(values)


@pytest.mark.parametrize("shape", [(3, 0), (0, 3), (1, 0), (0, 0)])
def test_write_matrix_of_an_empty_shape(tmp_path, shape):
    path = str(tmp_path / "m.txt")
    write_matrix(path, np.zeros(shape, complex), _META)
    assert Path(path).read_bytes() == matrix_file_oracle(np.zeros(shape, complex), _META)


# -- output files: permissions, no stray temporaries, bounded writer memory

@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_get_the_umask_mode(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        write_matrix(str(tmp_path / "m.txt"), _sample_matrix(), _META)
        write_counts(str(tmp_path / "c.txt"), np.ones((len(READOUT_KEYS), 3)), _counts_meta())
        fileio.atomic_write_text(str(tmp_path / "t.txt"), [b"text\n"])
    finally:
        os.umask(old)
    twin = os.path.join(TWIN_DIR, twin_name(tmp_path / "m.txt"))
    for name in ("m.txt", "c.txt", "t.txt", twin):
        assert os.stat(tmp_path / name).st_mode & 0o777 == mode, name


def _failing_chunks():
    yield b"first\n"
    raise RuntimeError("disk gone")


def test_failed_write_leaves_no_temporary(tmp_path):
    with pytest.raises(RuntimeError, match="disk gone"):
        fileio.atomic_write_text(str(tmp_path / "t.txt"), _failing_chunks())
    assert os.listdir(tmp_path) == []


def test_failed_write_removes_the_missing_parents_it_made(tmp_path):
    """At the parent a refused write left the directories it had made."""
    with pytest.raises(RuntimeError, match="disk gone"):
        fileio.atomic_write_text(str(tmp_path / "a" / "b" / "c" / "t.txt"), _failing_chunks())
    assert os.listdir(tmp_path) == []


def test_failed_write_keeps_the_directories_that_were_there(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(RuntimeError, match="disk gone"):
        fileio.atomic_write_text(str(tmp_path / "empty" / "new" / "t.txt"), _failing_chunks())
    assert sorted(os.listdir(tmp_path)) == ["empty"] and os.listdir(tmp_path / "empty") == []


def test_failed_write_keeps_a_directory_another_write_filled(tmp_path):
    fileio.atomic_write_text(str(tmp_path / "kept" / "one.txt"), [b"one\n"])
    with pytest.raises(RuntimeError, match="disk gone"):
        fileio.atomic_write_text(str(tmp_path / "kept" / "two.txt"), _failing_chunks())
    assert os.listdir(tmp_path / "kept") == ["one.txt"]


def test_a_directory_that_is_a_regular_file_is_the_error_reported(tmp_path):
    """At the parent the unlink of a temporary that never existed raised
    ``[Errno 20] Not a directory: '.../.tmp-<random hex>'`` in its place."""
    (tmp_path / "f").write_text("kept\n")
    with pytest.raises(FileExistsError) as info:
        fileio.atomic_write_text(str(tmp_path / "f" / "t.txt"), [b"one\n"])
    assert str(info.value) == f"[Errno 17] File exists: '{tmp_path / 'f'}'"
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "counts").write_text("kept\n")
    with pytest.raises(FileExistsError, match="counts'$"):
        fileio.atomic_write_text(str(tmp_path / "d" / "counts" / "c.txt"), [b"one\n"])
    assert sorted(os.listdir(tmp_path)) == ["d", "f"] and os.listdir(tmp_path / "d") == ["counts"]
    assert (tmp_path / "f").read_text() == (tmp_path / "d" / "counts").read_text() == "kept\n"


def test_a_twin_directory_that_is_not_a_directory_is_refused_before_the_text(tmp_path):
    """At the parent the text was written first, then the twin failed."""
    path = tmp_path / "m.txt"
    (tmp_path / TWIN_DIR).write_text("kept\n")
    with pytest.raises(NotADirectoryError) as info:
        write_matrix(str(path), _sample_matrix(), _META)
    assert str(info.value) == f"[Errno 20] Not a directory: '{tmp_path / TWIN_DIR}'"
    assert os.listdir(tmp_path) == [TWIN_DIR]
    # an earlier text stays as it was
    path.write_text("earlier\n")
    with pytest.raises(NotADirectoryError):
        write_matrix(str(path), _sample_matrix(), _META)
    assert path.read_text() == "earlier\n" and (tmp_path / TWIN_DIR).read_text() == "kept\n"
    # an array holding nan is refused as such, before the twin directory is looked at
    _assert_refused(tmp_path, path, "matrix", write_matrix, np.full((2, 2), np.nan + 0j), _META)


def test_failed_twin_write_removes_the_fresh_twin_directory(tmp_path, monkeypatch):
    def no_space(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(np, "save", no_space)
    path = tmp_path / "fresh" / "m.txt"
    with pytest.raises(OSError, match="No space"):
        write_matrix(str(path), _sample_matrix(), _META)
    assert os.listdir(path.parent) == ["m.txt"]


# -- binary twins: taken only when they match the text's SHA-256

_TWIN_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.2250738585072014e-308,
                1e-300, -1e-300, np.nextafter(1e-300, 0), 1e300, -1e300,
                np.nextafter(1e300, np.inf), 1.7976931348623157e308, np.pi, 0.1]


@_SETTINGS
@given(rows=st.integers(0, 4), cols=st.integers(0, 4), transposed=st.booleans(),
       data=st.data())
def test_twin_read_equals_text_read_bit_for_bit(tmp_path, monkeypatch, rows, cols,
                                                transposed, data):
    value = st.one_of(st.sampled_from(_TWIN_VALUES),
                      st.floats(allow_nan=False, allow_infinity=False))
    arr = np.empty((rows, cols), dtype=complex)
    arr.real = _draw_array(data, (rows, cols), value)
    arr.imag = _draw_array(data, (rows, cols), value)
    if transposed:
        arr = np.ascontiguousarray(arr.T).T
    path = str(tmp_path / "m.txt")
    write_matrix(path, arr, _META)
    with monkeypatch.context() as patch:  # once per example
        parses = count_text_parses(patch)
        twin, meta = read_matrix(path)
        assert parses == []
        drop_twins(tmp_path)
        text, text_meta = read_matrix(path)
        assert len(parses) == 1
    assert meta == text_meta
    for back in (twin, text):
        assert back.dtype == complex and back.flags.c_contiguous and back.shape == arr.shape
        assert back.tobytes() == np.ascontiguousarray(arr).tobytes()


def test_text_edited_in_place_wins_over_its_twin(tmp_path, monkeypatch):
    path = tmp_path / "m.txt"
    arr = _sample_matrix()
    write_matrix(str(path), arr, _META)
    twin = twin_name(path)
    text = path.read_bytes()
    line = f"2 2 {format(arr[2, 2].real, '.17g')} ".encode()
    assert line == b"2 2 0.10000000000000001 " and text.count(line) == 1
    path.write_bytes(text.replace(line, b"2 2 0.10000000000000002 "))  # one digit, same length
    assert os.listdir(tmp_path / TWIN_DIR) == [twin]
    parses = count_text_parses(monkeypatch)
    back, _ = read_matrix(str(path))
    assert len(parses) == 1
    assert back[2, 2].real == 0.10000000000000002 and back[2, 2].real != arr[2, 2].real
    back[2, 2] = arr[2, 2]
    assert back.tobytes() == arr.tobytes()


def _npy(arr, **kwargs):
    import io

    buf = io.BytesIO()
    np.save(buf, arr, **kwargs)
    return buf.getvalue()


def _zip(arr):
    import io

    buf = io.BytesIO()
    np.savez(buf, arr)
    return buf.getvalue()


_BAD_TWINS = {
    "empty": lambda arr: b"",
    "garbage": lambda arr: b"not a twin\n" * 50,
    "truncated": lambda arr: _npy(arr)[:-16],
    "header-only": lambda arr: _npy(arr)[:128],
    "float64": lambda arr: _npy(arr.real),
    "complex64": lambda arr: _npy(arr.real.clip(-1e30, 1e30).astype(np.complex64)),
    "big-endian": lambda arr: _npy(arr.astype(">c16")),
    "object": lambda arr: _npy(arr.astype(object), allow_pickle=True),
    "pickled": lambda arr: pickle.dumps(arr),
    "npz": _zip,
    "transposed-shape": lambda arr: _npy(np.ascontiguousarray(arr.T)),
    "flat": lambda arr: _npy(arr.reshape(-1)),
    "extra-row": lambda arr: _npy(np.vstack([arr, arr[:1]])),
    "huge-declared-shape": lambda arr: huge_twin(),
    "nan": lambda arr: _npy(np.where(np.arange(arr.size).reshape(arr.shape) == 7, np.nan, arr)),
    "inf-imag": lambda arr: _npy(arr + np.where(np.arange(arr.size).reshape(arr.shape) == 3,
                                                1j * np.inf, 0)),
    "directory": None,
}


@pytest.mark.parametrize("kind", sorted(_BAD_TWINS))
def test_a_bad_twin_is_ignored(tmp_path, monkeypatch, kind):
    """A twin that does not hold a finite complex128 array of the header's
    shape gives way to the text, with no error and no warning."""
    path = tmp_path / "m.txt"
    arr = _edge_matrix((3, 5), seed=2)
    arr[~np.isfinite(arr)] = 1.5 - 0.25j
    write_matrix(str(path), arr, _META)
    twin = tmp_path / TWIN_DIR / twin_name(path)
    twin.unlink()
    if _BAD_TWINS[kind] is None:
        twin.mkdir()
    else:
        twin.write_bytes(_BAD_TWINS[kind](arr))
    parses = count_text_parses(monkeypatch)
    back, _ = read_matrix(str(path))
    assert len(parses) == 1
    assert back.tobytes() == arr.tobytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_a_fifo_under_a_twin_name_gives_way_to_the_text(tmp_path):
    """A FIFO with no writer under a twin's name is not waited on: the text is
    read.  The read runs in a child process with a timeout, so a read that
    waits fails the test instead of hanging it."""
    path = tmp_path / "m.txt"
    arr = _sample_matrix()
    write_matrix(str(path), arr, _META)
    twin = tmp_path / TWIN_DIR / twin_name(path)
    twin.unlink()
    os.mkfifo(twin)
    code = ("import sys; from diracsim.fileio import read_matrix; "
            "sys.stdout.buffer.write(read_matrix(sys.argv[1])[0].tobytes())")
    src = os.path.dirname(os.path.dirname(diracsim.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code, str(path)], env=env, capture_output=True,
                         timeout=30, check=True)
    assert run.stdout == arr.tobytes()


_WRITERS = {
    "matrix": lambda path, meta: write_matrix(path, np.eye(2, dtype=complex), meta),
    "counts": lambda path, meta: write_counts(path, np.ones((len(READOUT_KEYS), 3)), meta),
}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"])
@pytest.mark.parametrize("where", ["key", "value"])
def test_writers_refuse_a_header_line_break(tmp_path, writer, brk, where):
    """A line break in a header key or value would add a line to the file: a
    counts row (``seed="none\\n7 9 9 9 9"``) or a header key nobody wrote
    (``kind="dirac\\n# n=5"``).  Both writers refuse it and leave nothing."""
    meta = {f"see{brk}d": "none"} if where == "key" else {"seed": f"none{brk}7 9 9 9 9"}
    with pytest.raises(ContractError, match="line break"):
        _WRITERS[writer](str(tmp_path / "f.txt"), {"kind": "dirac", **meta})
    assert os.listdir(tmp_path) == []


# headers the reader would give back otherwise: {"a": "b=1"}, " v " as "v",
# "k\t" as "k", "\x0b" as "", and " k" and "k" as one key read twice
_UNREADABLE_HEADERS = [{"a=b": 1}, {"k": " v "}, {"k\t": 1}, {"k": "\x0b"}, {" k": 1, "k": 2}]


@pytest.mark.parametrize("writer", sorted(_WRITERS))
@pytest.mark.parametrize("meta", _UNREADABLE_HEADERS, ids=repr)
def test_writers_refuse_a_header_that_does_not_read_back(tmp_path, writer, meta):
    """A header the reader would not give back as written is refused before a
    byte is written, so write -> read -> write keeps the bytes.  At the parent
    each was written, and the last one gave a file ``read_matrix`` refuses."""
    with pytest.raises(ContractError, match="does not read back as written"):
        _WRITERS[writer](str(tmp_path / "f.txt"), meta)
    assert os.listdir(tmp_path) == []


# characters the reader splits or strips at, or that end a key, and any other
_HEADER_TEXT = st.text(st.one_of(st.sampled_from(" \t\x0b\x0c\x1c\x85\xa0\u2028\n\r=#"),
                                 st.characters(codec="utf-8")), max_size=5)
# text with no separator, space or control character, which reads back as written
_PLAIN_TEXT = st.text(st.characters(codec="utf-8", exclude_categories=("Z", "Cc"),
                                    exclude_characters="="), max_size=5)


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(writer=st.sampled_from(sorted(_WRITERS)),
       meta=st.one_of(*(st.dictionaries(text, st.one_of(text, st.integers()), max_size=3)
                        for text in (_HEADER_TEXT, _PLAIN_TEXT))))
def test_a_written_header_reads_back_as_written(tmp_path, writer, meta):
    """Any drawn header is either refused, with nothing left behind, or read
    back key for key and value for value as it was written."""
    path = tmp_path / writer / "f.txt"
    try:
        _WRITERS[writer](str(path), meta)
    except ContractError:
        assert not path.parent.exists()
        return
    own = {"rows": "2", "cols": "2"} if writer == "matrix" else {"n": "3"}
    read = read_matrix(path)[1] if writer == "matrix" else load_counts(path)[1]
    assert read == {**own, **{key: str(value) for key, value in meta.items()}}
    shutil.rmtree(path.parent)


@pytest.mark.parametrize("flag, text", [(True, "true"), (np.True_, "true"), (np.False_, "false")],
                         ids=repr)
@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_a_numpy_bool_in_meta_is_written_as_a_python_bool_is(tmp_path, writer, flag, text):
    path = tmp_path / "f.txt"
    _WRITERS[writer](str(path), {"mixed": flag})
    read = read_matrix(path)[1] if writer == "matrix" else load_counts(path)[1]
    assert read["mixed"] == text


@pytest.mark.parametrize("writer, meta, message", [
    ("matrix", {"rows": 5}, "rows=5 is not the body's 2"),
    ("matrix", {"cols": 3}, "cols=3 is not the body's 2"),
    ("matrix", {"kind": "dirac", "cols": "02"}, "cols=02 is not the body's 2"),
    ("counts", {"n": 7}, "n=7 is not the body's 3"),
])
def test_writers_refuse_a_meta_key_they_set_to_another_value(tmp_path, writer, meta, message):
    """``rows``/``cols`` of a matrix and ``n`` of counts are the body's shape:
    a ``meta`` that sets one otherwise is refused, and nothing is left."""
    with pytest.raises(ContractError, match=f"^meta {message}$"):
        _WRITERS[writer](str(tmp_path / "sub" / "f.txt"), meta)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("writer, own", [("matrix", {"rows": 2, "cols": "2"}),
                                         ("counts", {"n": np.int64(3)})])
def test_a_meta_key_the_writer_sets_to_the_same_value_is_written_once(tmp_path, writer, own):
    """The ``meta`` that ``read_matrix`` returns holds ``rows`` and ``cols``:
    passed back with the body's shape, it writes the bytes of the bare header."""
    _WRITERS[writer](str(tmp_path / "bare.txt"), {"kind": "dirac"})
    _WRITERS[writer](str(tmp_path / "own.txt"), {**own, "kind": "dirac"})
    assert (tmp_path / "own.txt").read_bytes() == (tmp_path / "bare.txt").read_bytes()


def test_rewriting_a_file_leaves_one_twin_per_name(tmp_path):
    names = ["m.txt", "m.txt.txt", "n.txt"]  # "m.txt." starts the twins of "m.txt.txt" too
    rng = np.random.default_rng(4)
    for name in names + ["m.txt", "m.txt", "n.txt"]:
        write_matrix(str(tmp_path / name), rng.standard_normal((3, 3)) + 0j, _META)
    write_matrix(str(tmp_path / "m.txt"), np.eye(3), _META)
    write_matrix(str(tmp_path / "m.txt"), np.eye(3), _META)  # the same digest: replaced in place
    assert sorted(os.listdir(tmp_path)) == sorted([TWIN_DIR] + names)
    assert sorted(os.listdir(tmp_path / TWIN_DIR)) == sorted(twin_name(tmp_path / name)
                                                             for name in names)
    assert np.array_equal(read_matrix(str(tmp_path / "m.txt"))[0], np.eye(3))


def test_a_twin_named_by_the_text_digest_alone_is_never_read_and_goes(tmp_path, monkeypatch):
    """Earlier versions named a twin ``<name>.<text sha256>.npy``; such a twin
    of another array gives way to the text, and goes at the next write as
    any other twin of that name, or whose text is gone, does."""
    path = tmp_path / "m.txt"
    write_matrix(str(path), _sample_matrix(), _META)
    drop_twins(tmp_path)
    (tmp_path / TWIN_DIR).mkdir()
    text_digest = twin_name(path).split(".")[2]
    for name in ("m.txt", "gone.txt"):
        (tmp_path / TWIN_DIR / f"{name}.{text_digest}.npy").write_bytes(
            _npy(2 * _sample_matrix()))
    parses = count_text_parses(monkeypatch)
    assert read_matrix(str(path))[0].tobytes() == _sample_matrix().tobytes()
    assert len(parses) == 1
    write_matrix(str(path), _sample_matrix(), _META)
    assert os.listdir(tmp_path / TWIN_DIR) == [twin_name(path)]


def test_a_twin_whose_text_is_gone_goes_at_the_next_write(tmp_path):
    for name in ("a.txt", "b.txt"):
        write_matrix(str(tmp_path / name), _sample_matrix(), _META)
    (tmp_path / "a.txt").unlink()
    write_matrix(str(tmp_path / "b.txt"), 2 * _sample_matrix(), _META)
    assert os.listdir(tmp_path / TWIN_DIR) == [twin_name(tmp_path / "b.txt")]
    # a refused nan array leaves the text and its twin as they were
    _assert_refused(tmp_path, tmp_path / "b.txt", "matrix", write_matrix,
                    np.full((2, 2), np.nan + 0j), _META)


def test_failed_matrix_write_leaves_no_temporary_and_no_twin(tmp_path, monkeypatch):
    path = str(tmp_path / "m.txt")
    body = fileio._matrix_body

    def failing(arr):
        yield next(body(arr))
        raise RuntimeError("disk gone")

    monkeypatch.setattr(fileio, "_matrix_body", failing)
    with pytest.raises(RuntimeError, match="disk gone"):
        write_matrix(path, _sample_matrix(), _META)
    assert os.listdir(tmp_path) == []

    # over an earlier version: that text and its twin stay as they were
    monkeypatch.setattr(fileio, "_matrix_body", body)
    write_matrix(path, _sample_matrix(), _META)
    before = Path(path).read_bytes()
    monkeypatch.setattr(fileio, "_matrix_body", failing)
    with pytest.raises(RuntimeError, match="disk gone"):
        write_matrix(path, 2 * _sample_matrix(), _META)
    assert Path(path).read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == [TWIN_DIR, "m.txt"]
    assert os.listdir(tmp_path / TWIN_DIR) == [twin_name(path)]

    # a failed twin write leaves no temporary, and the old twin no longer matches
    old_twin = twin_name(path)
    monkeypatch.setattr(fileio, "_matrix_body", body)

    def no_space(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(np, "save", no_space)
    with pytest.raises(OSError, match="No space"):
        write_matrix(path, 2 * _sample_matrix(), _META)
    assert os.listdir(tmp_path / TWIN_DIR) == [old_twin] != [twin_name(path)]
    assert read_matrix(path)[0].tobytes() == (2 * _sample_matrix()).tobytes()


def _traced_peak(fn, *args):
    """Bytes allocated at the peak of ``fn(*args)`` beyond what was live before."""
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_writers_memory_stays_under_a_megabyte(tmp_path, monkeypatch):
    """The writers render fixed-size blocks: at n = 512 neither a matrix file
    nor a figure table holds more than 1 MB in formatting at once, and at
    n = 2048, where a block of either is one row, a 2-row slice through them
    stays under it too."""
    n = 512
    rng = np.random.default_rng(7)
    arr = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    grid = make_grid(n, 44e-3 / n, 22e-3, UnitMap(780e-9, 1.0, 4.935))
    in_path = str(tmp_path / "in.txt")
    assert _traced_peak(write_matrix, in_path, arr, {"kind": "dirac", **grid_meta(grid)}) <= 2 ** 20

    peaks = []
    write_table = fileio._write_table
    monkeypatch.setattr(fileio, "_write_table",
                        lambda *args: peaks.append(_traced_peak(write_table, *args)))
    assert main(["figures", "--input", in_path, "--out", str(tmp_path / "out")]) == 0
    assert len(peaks) == 4 and max(peaks) <= 2 ** 20, peaks

    n = 2048
    rows = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    body = _traced_peak(collections.deque, fileio._matrix_body(rows), 0)  # drops each block
    table = _traced_peak(write_table, str(tmp_path / "t.csv"), "x\\p",
                         np.linspace(-1.0, 1.0, n), np.arange(2.0), rows, np.abs)
    assert max(body, table) <= 2 ** 20, (body, table)
