import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from diracsim import fileio, make_grid, UnitMap
from diracsim.cli import main
from diracsim.errors import FormatError
from diracsim.fileio import (grid_from_meta, grid_meta, read_counts, read_matrix,
                             write_counts, write_matrix)
from diracsim.weaksim import READOUT_KEYS


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
    first = open(path, "rb").read()
    back, meta_back = read_matrix(path)
    assert np.array_equal(back, arr)
    assert meta_back["kind"] == "dirac"
    write_matrix(path, back, meta_back)
    second = open(path, "rb").read()
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
    rng = np.random.default_rng(1)
    counts = np.abs(rng.standard_normal((len(READOUT_KEYS), 6))) * 100
    path = str(tmp_path / "c.txt")
    write_counts(path, counts, _counts_meta(2, 0.22, 1e6))
    first = open(path, "rb").read()
    back, meta = read_counts(path)
    assert list(meta) == ["n", "sliver_lo", "sliver_hi", "phi", "photon_budget", "seed"]
    assert (meta["sliver_lo"], meta["sliver_hi"]) == ("2", "3")
    assert float(meta["phi"]) == 0.22
    assert meta["seed"] == "none"
    assert back.shape == (len(READOUT_KEYS), 6)
    assert np.array_equal(back, counts)
    del meta["n"]
    write_counts(path, back, meta)
    assert open(path, "rb").read() == first

    write_counts(path, counts, _counts_meta(seed=12345))
    assert read_counts(path)[1]["seed"] == "12345"


def test_counts_format_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# diracsim counts v1\n# n=2\n# sliver_lo=0\n# sliver_hi=1\n"
                    "# phi=0.1\n# photon_budget=1\n# seed=none\n0 1 2 3\n")
    with pytest.raises(FormatError, match="k D A L R"):
        read_counts(str(path))
    path.write_text("# diracsim counts v1\n# n=2\n")
    with pytest.raises(FormatError, match="header"):
        read_counts(str(path))
    path.write_text(f"# diracsim counts v1\n# n={2 ** 62}\n# sliver_lo=0\n# sliver_hi=1\n"
                    "# phi=0.1\n# photon_budget=1\n# seed=none\n0 1 2 3 4\n")
    with pytest.raises(FormatError, match=f"missing {2 ** 62 - 1} momentum rows"):
        read_counts(str(path))


def test_non_finite_entries_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# diracsim matrix v1\n# rows=1\n# cols=2\n0 0 1 0\n0 1 1 nan\n")
    with pytest.raises(FormatError, match=r":5: non-finite value in '0 1 1 nan'"):
        read_matrix(str(path))
    path.write_text("# diracsim counts v1\n# n=2\n# sliver_lo=0\n# sliver_hi=1\n"
                    "# phi=0.1\n# photon_budget=1\n# seed=none\n"
                    "0 1 2 3 4\n\n1 1 -inf 3 4\n")
    with pytest.raises(FormatError, match=r":10: non-finite value in '1 1 -inf 3 4'"):
        read_counts(str(path))


# -- references: the per-element writers and line-by-line readers that the
# row-at-a-time I/O replaced.  Outputs must match them byte for byte and
# error messages word for word (non-finite values aside, which they accepted).

def _ref_fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _ref_matrix_text(arr, meta):
    lines = ["# diracsim matrix v1"]
    header = {"rows": arr.shape[0], "cols": arr.shape[1]}
    header.update(meta)
    for key, value in header.items():
        lines.append(f"# {key}={_ref_fmt(value)}")
    for i in range(arr.shape[0]):
        for j in range(arr.shape[1]):
            z = arr[i, j]
            lines.append(f"{i} {j} {_ref_fmt(z.real)} {_ref_fmt(z.imag)}")
    return "\n".join(lines) + "\n"


def _ref_counts_text(counts, meta):
    n = len(counts["D"])
    lines = ["# diracsim counts v1"]
    header = {"n": n, **meta}
    for key, value in header.items():
        lines.append(f"# {key}={_ref_fmt(value)}")
    for k in range(n):
        row = " ".join(_ref_fmt(float(counts[key][k])) for key in READOUT_KEYS)
        lines.append(f"{k} {row}")
    return "\n".join(lines) + "\n"


def _ref_csv_text(arr, rows, cols, corner, kind):
    table = {
        "magnitude": np.abs(arr),
        "phase": np.where(np.angle(arr) <= -np.pi, np.pi, np.angle(arr)),
        "real": arr.real,
        "imag": arr.imag,
    }[kind]
    lines = [",".join([corner] + [format(c, ".17g") for c in cols])]
    for i in range(table.shape[0]):
        lines.append(",".join([format(rows[i], ".17g")]
                              + [format(v, ".17g") for v in table[i]]))
    return "\n".join(lines) + "\n"


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
        meta[key.strip()] = value.strip()
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


def _ref_read_counts(path):
    lines, meta, body_start = _ref_read_lines(path, fileio.COUNTS_MAGIC)
    try:
        n = int(meta["n"])
        for key in ("sliver_lo", "sliver_hi"):
            int(meta[key])
        float(meta["phi"]), float(meta["photon_budget"])
        if meta.get("seed", "none") != "none":
            int(meta["seed"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: missing or invalid counts header ({exc})") from exc
    counts = {key: np.zeros(n) for key in READOUT_KEYS}
    seen = np.zeros(n, dtype=bool)
    for lineno, line in enumerate(lines[body_start - 1:], start=body_start):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 5:
            raise FormatError(f"{path}:{lineno}: expected 'k D A L R', got {line!r}")
        try:
            k = int(parts[0])
            vals = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        if not 0 <= k < n:
            raise FormatError(f"{path}:{lineno}: momentum index {k} out of bounds")
        if seen[k]:
            raise FormatError(f"{path}:{lineno}: duplicate momentum index {k}")
        seen[k] = True
        for key, val in zip(READOUT_KEYS, vals):
            counts[key][k] = val
    if not seen.all():
        raise FormatError(f"{path}: missing {int((~seen).sum())} momentum rows")
    return counts


def _line_parser_only(reader):
    """``reader`` with the one-pass parse bypassed: the module's line parser alone."""
    def read(path):
        with open(path, encoding="utf-8") as fh:
            if reader is read_matrix:
                meta, lineno = fileio._read_header(fh, path, fileio.MATRIX_MAGIC)
                return fileio._read_matrix_lines(fh, path, lineno,
                                                 int(meta["rows"]), int(meta["cols"]))
            meta, lineno = fileio._read_header(fh, path, fileio.COUNTS_MAGIC)
            return fileio._read_counts_lines(fh, path, lineno, int(meta["n"]))
    return read


def _outcome(read, path):
    """A reader's values as bytes, or its FormatError message."""
    try:
        result = read(path)
    except FormatError as exc:
        return "error", str(exc)
    if isinstance(result, tuple):
        result = result[0]
    if isinstance(result, dict):
        return "ok", b"".join(result[key].tobytes() for key in READOUT_KEYS)
    return "ok", result.tobytes()


def _forbid_line_parser(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the line-by-line parser ran on a valid file")
    monkeypatch.setattr(fileio, "_read_matrix_lines", forbidden)
    monkeypatch.setattr(fileio, "_read_counts_lines", forbidden)


_MATRIX_HEAD = "# diracsim matrix v1\n# rows=2\n# cols=2\n"
_COUNTS_HEAD = ("# diracsim counts v1\n# n=3\n# sliver_lo=0\n# sliver_hi=1\n"
                "# phi=0.1\n# photon_budget=1\n# seed=none\n")
_MATRIX_OK = "0 0 1 0\n0 1 2 0\n1 0 3 -0\n1 1 4 5e-324\n"
_COUNTS_OK = "0 1 2 3 4\n1 5 6 7 8\n2 0 0 0 1e300\n"


@pytest.mark.parametrize("reader, text", [
    (read_matrix, _MATRIX_HEAD + _MATRIX_OK),
    (read_matrix, _MATRIX_HEAD + "\n0 0 1 0\n   \n0 1 2 0\n\n1 0 3 -0\n1 1 4 5e-324\n\n"),
    (read_matrix, _MATRIX_HEAD + "0\t0\t1\t0\n0 1\t2 0\n 1  0 3 -0 \n1\t1 4\t5e-324\n"),
    (read_matrix, _MATRIX_HEAD + "1 1 4 5e-324\n1 0 3 -0\n0 1 2 0\n0 0 1 0\n"),
    (read_matrix, _MATRIX_HEAD + "0 0 1 0\n# note\n0 1 2 0\n1 0 3 -0\n1 1 4 5e-324\n"),
    (read_matrix, _MATRIX_HEAD + "0 0 1 0\n1.0 1 2 0\n1 0 3 -0\n1 1 4 5e-324\n"),
    (read_matrix, _MATRIX_HEAD + "0 0 1 0\n0 1 2\n1 0 3 -0\n1 1 4 5e-324\n"),
    (read_matrix, _MATRIX_HEAD + "0 0 1 0\n0 1 2 0 7\n1 0 3 -0\n1 1 4 5e-324\n"),
    (read_matrix, _MATRIX_HEAD + "0 0 1 0\n0 1 2 0\n1 0 3 -0\n1 1 4 5e-324\n0 0 1 0\n"),
    (read_matrix, _MATRIX_HEAD + "0 0 1 0\n0 1 2 0\n0 1 3 -0\n1 1 4 5e-324\n"),
    (read_matrix, _MATRIX_HEAD + "0 0 1 0\n0 1 2 0\n1 1 4 5e-324\n"),
    (read_matrix, _MATRIX_HEAD + "0 0 1 0\n0 1 2 0\n1 -1 3 0\n1 1 4 5e-324\n"),
    (read_matrix, _MATRIX_HEAD + "0 0 1 0\n0 1 2 0\n1 0 0x1 0\n1 1 4 5e-324\n"),
    (read_matrix, _MATRIX_HEAD + "0 0 1 0\n0 1 2 0\n1_0 0 3 0\n1 1 4 5e-324\n"),
    (read_matrix, _MATRIX_HEAD + "0 0 1_0 0\n+0 1 2 0\n1 0 3 -0\n1 1 4 5e-324\n"),
    (read_matrix, "# diracsim matrix v1\n# rows=2\n0 0 1 0\n"),
    (read_matrix, "# diracsim matrix v1\n# rows=0\n# cols=0\n"),
    (read_counts, _COUNTS_HEAD + _COUNTS_OK),
    (read_counts, _COUNTS_HEAD + "\n2\t0 0\t0 1e300\n\n0 1 2 3 4\n 1 5 6 7 8 \n"),
    (read_counts, _COUNTS_HEAD + "0 1 2 3 4\n# note\n1 5 6 7 8\n2 0 0 0 1e300\n"),
    (read_counts, _COUNTS_HEAD + "0 1 2 3 4\n1.0 5 6 7 8\n2 0 0 0 1e300\n"),
    (read_counts, _COUNTS_HEAD + "0 1 2 3 4\n1 5 6 7\n2 0 0 0 1e300\n"),
    (read_counts, _COUNTS_HEAD + "0 1 2 3 4\n1 5 6 7 8 9\n2 0 0 0 1e300\n"),
    (read_counts, _COUNTS_HEAD + "0 1 2 3 4\n3 5 6 7 8\n2 0 0 0 1e300\n"),
    (read_counts, _COUNTS_HEAD + "0 1 2 3 4\n0 5 6 7 8\n2 0 0 0 1e300\n"),
    (read_counts, _COUNTS_HEAD + "0 1 2 3 4\n2 0 0 0 1e300\n"),
    (read_counts, _COUNTS_HEAD + "0 1 2 3 4\n1 5 6 7 8_0\n2 0 0 0 1e300\n"),
])
def test_readers_match_line_reference(tmp_path, reader, text):
    """Accepted files give the reference's values, rejected ones its message."""
    path = str(tmp_path / "f.txt")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    reference = _ref_read_matrix if reader is read_matrix else _ref_read_counts
    assert _outcome(reader, path) == _outcome(reference, path)


@pytest.mark.parametrize("reader", [read_matrix, read_counts])
def test_valid_files_never_reach_line_parser(tmp_path, monkeypatch, reader):
    path = str(tmp_path / "f.txt")
    text = (_MATRIX_HEAD + _MATRIX_OK if reader is read_matrix
            else _COUNTS_HEAD + _COUNTS_OK)
    # blank lines, tabs, reordered rows and CRLF endings are all valid
    text = text.replace(" 1 ", "\t1\t", 1).replace("\n", "\r\n") + "\n\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    expected = _outcome(reader, path)
    _forbid_line_parser(monkeypatch)
    assert _outcome(reader, path) == expected


_NUMBERS = ["0", "1", "2", "-1", "+1", "1.0", "0.5", "-0", "-2.5e-3", "5e-324",
            "1e300", "1_0", "0x1", "x", "#"]
_NON_FINITE = ["nan", "inf", "-Infinity", "1e400"]


@st.composite
def _body(draw, index_shape, n_values, numbers, separators):
    """Rows covering ``index_shape`` once each, then up to four edits that may
    break the body: a changed token, a blank, comment, dropped, repeated or
    longer line."""
    index = np.indices(index_shape).reshape(len(index_shape), -1).T.tolist()
    rows = [[str(v) for v in idx] + [draw(st.sampled_from(["0", "1", "2.5", "-0"]))
                                      for _ in range(n_values)]
            for idx in draw(st.permutations(index))]
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


def _parse_both(tmp_path, reader, body):
    path = str(tmp_path / "f.txt")
    head = _MATRIX_HEAD if reader is read_matrix else _COUNTS_HEAD
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(head + body)
    return path


_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


@_SETTINGS
@given(data=st.data(), reader=st.sampled_from([read_matrix, read_counts]))
def test_one_pass_parse_agrees_with_line_parser(tmp_path, data, reader):
    """Whatever the one-pass parse accepts, the module's line parser accepts
    with the same values; whatever it rejects gets the line parser's message."""
    shape, n_values = ((2, 2), 2) if reader is read_matrix else ((3,), 4)
    body = data.draw(_body(shape, n_values, _NUMBERS + _NON_FINITE,
                           [" ", "\t", "  ", "\x0c", "\xa0", " \x0b"]))
    path = _parse_both(tmp_path, reader, body)
    assert _outcome(reader, path) == _outcome(_line_parser_only(reader), path)


@_SETTINGS
@given(data=st.data(), reader=st.sampled_from([read_matrix, read_counts]))
def test_readers_agree_with_reference_on_finite_bodies(tmp_path, data, reader):
    shape, n_values = ((2, 2), 2) if reader is read_matrix else ((3,), 4)
    body = data.draw(_body(shape, n_values, _NUMBERS, [" ", "\t", "  "]))
    path = _parse_both(tmp_path, reader, body)
    reference = _ref_read_matrix if reader is read_matrix else _ref_read_counts
    assert _outcome(reader, path) == _outcome(reference, path)


_SPECIAL = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.2250738585072014e-308,
            1e300, -1e300, 1e-300, -1e-300, 1.7e308, np.pi, 0.1]
_VALUE = st.one_of(st.sampled_from(_SPECIAL), st.floats())


def _draw_array(data, shape, value=_VALUE):
    size = int(np.prod(shape))
    return np.array(data.draw(st.lists(value, min_size=size, max_size=size)),
                    dtype=float).reshape(shape)


@_SETTINGS
@given(rows=st.sampled_from([1, 2, 3, 5, 7]), cols=st.sampled_from([1, 2, 4, 5, 9]),
       seed=st.sampled_from([None, 0, 12345]), data=st.data())
@example(rows=3, cols=5, seed=None, data=None)
def test_writers_match_per_element_reference(tmp_path, monkeypatch, rows, cols, seed, data):
    if data is None:  # every special value, in both parts and in each analyzer
        special = np.array(_SPECIAL)
        arr = np.empty((rows, cols), dtype=complex)
        arr.real, arr.imag = special.reshape(rows, cols), special[::-1].reshape(rows, cols)
        counts = {key: np.roll(special, 4 * k)[:cols] for k, key in enumerate(READOUT_KEYS)}
    else:
        arr = np.empty((rows, cols), dtype=complex)
        arr.real, arr.imag = _draw_array(data, (rows, cols)), _draw_array(data, (rows, cols))
        counts = {key: _draw_array(data, (cols,)) for key in READOUT_KEYS}
    meta = {"kind": "dirac", "n": rows, "dx": 0.1, "x0": -0.0, "mixed": True}
    counts_meta = _counts_meta(0, 0.2255, 1e8, "none" if seed is None else seed)
    matrix_path, counts_path = str(tmp_path / "m.txt"), str(tmp_path / "c.txt")
    write_matrix(matrix_path, arr, meta)
    write_counts(counts_path, np.array([counts[key] for key in READOUT_KEYS]), counts_meta)
    assert open(matrix_path, "rb").read() == _ref_matrix_text(arr, meta).encode()
    assert open(counts_path, "rb").read() == _ref_counts_text(counts, counts_meta).encode()

    _forbid_line_parser(monkeypatch)
    if np.isfinite(arr.view(float)).all():
        assert read_matrix(matrix_path)[0].tobytes() == arr.tobytes()
    if all(np.isfinite(c).all() for c in counts.values()):
        back = read_counts(counts_path)[0]
        assert all(back[i].tobytes() == counts[key].tobytes()
                   for i, key in enumerate(READOUT_KEYS))


@settings(derandomize=True, max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.sampled_from([2, 3, 5, 8]), kind=st.sampled_from(["dirac", "density", "propagated"]),
       data=st.data())
def test_figure_csv_matches_per_element_reference(tmp_path, n, kind, data):
    from diracsim.cli import _figure_axes

    finite = st.one_of(st.sampled_from([v for v in _SPECIAL if np.isfinite(v)]),
                       st.floats(allow_nan=False, allow_infinity=False))
    arr = np.empty((n, n), dtype=complex)
    arr.real, arr.imag = _draw_array(data, (n, n), finite), _draw_array(data, (n, n), finite)
    grid = make_grid(n, 0.25, 0.5, UnitMap(780e-9, 1.0, 4.935))
    meta = {"kind": kind, **grid_meta(grid)}
    in_path, out = str(tmp_path / "in.txt"), str(tmp_path / "out")
    write_matrix(in_path, arr, meta)
    assert main(["figures", "--input", in_path, "--out", out]) == 0
    rows, cols, row_label, col_label = _figure_axes(meta, grid)
    for table in ("magnitude", "phase", "real", "imag"):
        got = open(os.path.join(out, f"fig_in_{table}.csv"), "rb").read()
        assert got == _ref_csv_text(arr, rows, cols, f"{row_label}\\{col_label}", table).encode()
