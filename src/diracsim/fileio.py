"""Text file formats: complex matrices, measurement counts.

Both formats are line oriented and diff friendly.  Header lines are
``# key=value`` pairs; body rows hold indices plus numbers serialized with
17 significant digits, which round-trips IEEE doubles exactly, so
write -> read -> write reproduces identical bytes.  A line ends at a newline
(``\\r\\n`` and ``\\r`` read as one); any other whitespace separates fields.
Files are written to a temporary name and renamed into place only on success.

Writers format a whole body row per ``%`` operation and stream the rows to
the file.  Readers parse the body in one ``np.loadtxt`` pass and check
bounds, duplicates, missing rows and finiteness with array operations.  Only
when that pass or a check fails is the body read again line by line, which
names the first bad line (or accepts a number spelling such as ``1_0`` that
only Python's own parser reads).
"""

from __future__ import annotations

import contextlib
import math
import os
import tempfile
import warnings
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError, FormatError
from .lattice import Grid, UnitMap, make_grid
from .weaksim import READOUT_KEYS

MATRIX_MAGIC = "# diracsim matrix v1"
COUNTS_MAGIC = "# diracsim counts v1"

_MATRIX_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("re", float), ("im", float)])
_COUNTS_ROW = np.dtype([("k", np.int64)] + [(key, float) for key in READOUT_KEYS])


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def format_rows(template: str, rows: Iterable[np.ndarray]) -> Iterator[str]:
    """Yield ``template % tuple(row)`` for each 1-D float array in ``rows``.

    ``'%.17g' % x`` gives the same bytes as ``format(x, '.17g')``, nan, inf
    and -0 included; ``'%d'`` prints a whole float as an integer.
    """
    for row in rows:
        yield template % tuple(row.tolist())


def atomic_write_text(path: str, text: str | Iterable[str]) -> None:
    """Write ``text``, one string or an iterable of chunks, to ``path`` atomically."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def grid_meta(grid: Grid) -> dict:
    meta = {"n": grid.n, "dx": grid.dx, "x0": grid.x0}
    if grid.unit_map is not None:
        meta["wavelength"] = grid.unit_map.wavelength
        meta["focal_length"] = grid.unit_map.focal_length
        meta["magnification"] = grid.unit_map.magnification
    return meta


def grid_from_meta(meta: dict, path: str = "<meta>") -> Grid:
    try:
        unit_map = None
        if "wavelength" in meta:
            unit_map = UnitMap(
                wavelength=float(meta["wavelength"]),
                focal_length=float(meta["focal_length"]),
                magnification=float(meta["magnification"]),
            )
        return make_grid(int(meta["n"]), float(meta["dx"]), float(meta["x0"]), unit_map)
    except (KeyError, ValueError, ConfigError) as exc:
        raise FormatError(f"{path}: incomplete or invalid grid header ({exc})") from exc


def _header_text(magic: str, header: dict) -> str:
    return magic + "\n" + "".join(f"# {key}={_fmt(value)}\n" for key, value in header.items())


def _matrix_rows(arr: np.ndarray) -> Iterator[np.ndarray]:
    """Each matrix row as the 'i j re im' entries of its columns, flattened."""
    entries = np.empty((arr.shape[1], 4))
    entries[:, 1] = np.arange(arr.shape[1])
    for i, row in enumerate(arr):
        entries[:, 0] = i
        entries[:, 2] = row.real
        entries[:, 3] = row.imag
        yield entries.ravel()


def write_matrix(path: str, arr: np.ndarray, meta: dict) -> None:
    """Write a complex matrix with '# key=value' headers and 'i j re im' rows."""
    arr = np.asarray(arr, dtype=complex)
    header = {"rows": arr.shape[0], "cols": arr.shape[1]}
    header.update(meta)
    body = format_rows("%d %d %.17g %.17g\n" * arr.shape[1], _matrix_rows(arr))
    atomic_write_text(path, chain([_header_text(MATRIX_MAGIC, header)], body))


@contextlib.contextmanager
def _reading(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _read_header(fh, path: str, magic: str):
    """Read the magic line and the '# key=value' headers.

    Returns ``(meta, lineno)``, ``lineno`` being the number of the first body
    line, and leaves ``fh`` at that line.
    """
    if fh.readline().rstrip("\n") != magic:
        raise FormatError(f"{path}:1: missing magic line {magic!r}")
    meta = {}
    lineno = 2
    while True:
        start = fh.tell()
        line = fh.readline()
        if not line.startswith("#"):
            fh.seek(start)
            return meta, lineno
        line = line.rstrip("\n")
        text = line[1:].strip()
        if "=" not in text:
            raise FormatError(f"{path}:{lineno}: malformed header line {line!r}")
        key, _, value = text.partition("=")
        meta[key.strip()] = value.strip()
        lineno += 1


def _parse_body(fh, dtype: np.dtype):
    """Every remaining row of ``fh`` in one C pass, or None if np.loadtxt rejects one.

    ``comments=None`` keeps a '#' line in the body an error.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            return np.loadtxt(fh, dtype=dtype, comments=None, ndmin=1)
        except ValueError:
            return None


def _positions(table, index_fields, shape, value_fields):
    """Flat positions of the parsed rows, or None unless they fill ``shape``
    exactly once, within bounds, with finite values."""
    if table is None or len(table) != math.prod(shape):
        return None
    flat = np.zeros(len(table), dtype=np.int64)
    for name, size in zip(index_fields, shape):
        index = table[name]
        if len(index) and (index.min() < 0 or index.max() >= size):
            return None
        flat = flat * size + index
    if not (np.bincount(flat, minlength=len(flat)) == 1).all():
        return None
    if not all(np.isfinite(table[name]).all() for name in value_fields):
        return None
    return flat


def read_matrix(path: str):
    """Read a matrix file; returns ``(array, meta)`` with meta values as strings."""
    with _reading(path) as fh:
        meta, lineno = _read_header(fh, path, MATRIX_MAGIC)
        try:
            rows, cols = int(meta["rows"]), int(meta["cols"])
            if rows < 0 or cols < 0:
                raise ValueError(f"negative shape {rows}x{cols}")
        except (KeyError, ValueError) as exc:
            raise FormatError(f"{path}: missing or invalid rows/cols header ({exc})") from exc
        body = fh.tell()
        table = _parse_body(fh, _MATRIX_ROW)
        flat = _positions(table, ("i", "j"), (rows, cols), ("re", "im"))
        if flat is None:
            fh.seek(body)
            return _read_matrix_lines(fh, path, lineno, rows, cols), meta
    values = np.empty((rows * cols, 2))
    values[flat, 0] = table["re"]
    values[flat, 1] = table["im"]
    return values.view(complex).reshape(rows, cols), meta


def _read_matrix_lines(lines, path: str, first_lineno: int, rows: int, cols: int):
    """The line-by-line body parser: the values, or a FormatError naming the first bad line.

    Memory grows with the lines read, not with the shape the header claims.
    """
    entries = {}
    for lineno, line in enumerate(lines, start=first_lineno):
        line = line.rstrip("\n")
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
        if not (math.isfinite(re) and math.isfinite(im)):
            raise FormatError(f"{path}:{lineno}: non-finite value in {line!r}")
        if not (0 <= i < rows and 0 <= j < cols):
            raise FormatError(f"{path}:{lineno}: index ({i}, {j}) out of bounds")
        if (i, j) in entries:
            raise FormatError(f"{path}:{lineno}: duplicate entry ({i}, {j})")
        entries[i, j] = complex(re, im)
    if len(entries) < rows * cols:
        raise FormatError(f"{path}: missing {rows * cols - len(entries)} matrix entries")
    arr = np.empty((rows, cols), dtype=complex)
    for index, value in entries.items():
        arr[index] = value
    return arr


def write_counts(path: str, counts: np.ndarray, meta: dict) -> None:
    """Write one sliver's counts, shape (4, n) in ``READOUT_KEYS`` order, with
    '# n=' and then ``meta`` as headers; body rows are 'k N_D N_A N_L N_R'."""
    n = counts.shape[1]
    header = {"n": n, **meta}
    table = np.column_stack((np.arange(n), counts.T))
    body = format_rows("%d" + " %.17g" * len(READOUT_KEYS) + "\n", table)
    atomic_write_text(path, chain([_header_text(COUNTS_MAGIC, header)], body))


def read_counts(path: str):
    """Read a counts file; returns ``(counts, meta)``, counts of shape (4, n) in
    ``READOUT_KEYS`` order and meta values as strings."""
    with _reading(path) as fh:
        meta, lineno = _read_header(fh, path, COUNTS_MAGIC)
        try:
            n = int(meta["n"])
            if n < 0:
                raise ValueError(f"negative n={n}")
            int(meta["sliver_lo"]), int(meta["sliver_hi"])
            float(meta["phi"]), float(meta["photon_budget"])
            if meta.get("seed", "none") != "none":
                int(meta["seed"])
        except (KeyError, ValueError) as exc:
            raise FormatError(f"{path}: missing or invalid counts header ({exc})") from exc
        body = fh.tell()
        table = _parse_body(fh, _COUNTS_ROW)
        flat = _positions(table, ("k",), (n,), READOUT_KEYS)
        if flat is None:
            fh.seek(body)
            return _read_counts_lines(fh, path, lineno, n), meta
    counts = np.empty((len(READOUT_KEYS), n))
    for i, key in enumerate(READOUT_KEYS):
        counts[i, flat] = table[key]
    return counts, meta


def _read_counts_lines(lines, path: str, first_lineno: int, n: int) -> np.ndarray:
    """The line-by-line body parser: the values, or a FormatError naming the first bad line.

    Memory grows with the lines read, not with the ``n`` the header claims.
    """
    rows = {}
    for lineno, line in enumerate(lines, start=first_lineno):
        line = line.rstrip("\n")
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
        if not all(math.isfinite(v) for v in vals):
            raise FormatError(f"{path}:{lineno}: non-finite value in {line!r}")
        if not 0 <= k < n:
            raise FormatError(f"{path}:{lineno}: momentum index {k} out of bounds")
        if k in rows:
            raise FormatError(f"{path}:{lineno}: duplicate momentum index {k}")
        rows[k] = vals
    if len(rows) < n:
        raise FormatError(f"{path}: missing {n - len(rows)} momentum rows")
    counts = np.empty((len(READOUT_KEYS), n))
    for k, vals in rows.items():
        counts[:, k] = vals
    return counts
