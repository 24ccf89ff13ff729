"""Text file formats: complex matrices (read and written), measurement counts
(written only).

Both formats are line oriented and diff friendly.  Header lines are
``# key=value`` pairs; body rows hold indices plus numbers serialized with
17 significant digits, which round-trips IEEE doubles exactly, so
write -> read -> write reproduces identical bytes.  A line ends at a newline
(``\\r\\n`` and ``\\r`` read as one); any other whitespace separates fields.
Files are written to a temporary name and renamed into place only on success.

Writers fill ``bytes`` templates, built per file shape with the index columns
as literal text, so a ``%`` operation formats only floats; the bytes go to a
binary handle unencoded.  The matrix reader parses the body in one
``np.loadtxt`` pass and checks bounds, duplicates, missing entries and
finiteness with array operations.  Only when that pass or a check fails is
the body read again line by line, which names the first bad line (or accepts
a number spelling such as ``1_0`` that only Python's own parser reads).  No
command reads counts files back; they load with ``np.loadtxt(path, comments="#")``.
"""

from __future__ import annotations

import contextlib
import math
import os
import tempfile
import warnings
from functools import lru_cache
from itertools import chain
from typing import Iterable

import numpy as np

from .errors import ConfigError, FormatError
from .lattice import Grid, UnitMap, make_grid
from .weaksim import READOUT_KEYS

MATRIX_MAGIC = "# diracsim matrix v1"
COUNTS_MAGIC = "# diracsim counts v1"

_MATRIX_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("re", float), ("im", float)])


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def atomic_write_text(path: str, data: bytes | Iterable[bytes]) -> None:
    """Write UTF-8 text, as ``bytes`` or an iterable of ``bytes`` chunks such
    as the writers' filled templates, to ``path`` atomically, through a binary
    handle.  ``b'%.17g' % x`` is ``format(x, '.17g')``, nan, inf and -0 included."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines([data] if isinstance(data, bytes) else data)
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


def _header_bytes(magic: str, header: dict) -> bytes:
    text = magic + "\n" + "".join(f"# {key}={_fmt(value)}\n" for key, value in header.items())
    return text.encode()


def write_matrix(path: str, arr: np.ndarray, meta: dict) -> None:
    """Write a complex matrix with '# key=value' headers and 'i j re im' rows."""
    arr = np.asarray(arr, dtype=complex)
    header = {"rows": arr.shape[0], "cols": arr.shape[1], **meta}
    # row i's template: these parts joined by b"i ", filled with its re, im pairs
    parts = [b""] + [b"%d %%.17g %%.17g\n" % j for j in range(arr.shape[1])]
    values = np.ascontiguousarray(arr).view(float)
    body = ((b"%d " % i).join(parts) % tuple(row.tolist()) for i, row in enumerate(values))
    atomic_write_text(path, chain([_header_bytes(MATRIX_MAGIC, header)], body))


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


def _parse_body(fh):
    """Every remaining 'i j re im' row of ``fh`` in one C pass, or None if
    np.loadtxt rejects one.

    ``comments=None`` keeps a '#' line in the body an error.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            return np.loadtxt(fh, dtype=_MATRIX_ROW, comments=None, ndmin=1)
        except ValueError:
            return None


def _positions(table, rows: int, cols: int):
    """Flat positions of the parsed rows, or None unless they fill the
    ``rows x cols`` matrix exactly once, within bounds, with finite values."""
    if table is None or len(table) != rows * cols:
        return None
    i, j = table["i"], table["j"]
    if len(table) and (i.min() < 0 or i.max() >= rows or j.min() < 0 or j.max() >= cols):
        return None
    flat = i * cols + j
    if not (np.bincount(flat, minlength=len(flat)) == 1).all():
        return None
    if not (np.isfinite(table["re"]).all() and np.isfinite(table["im"]).all()):
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
        table = _parse_body(fh)
        flat = _positions(table, rows, cols)
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
    counts = np.asarray(counts, dtype=float)
    n = counts.shape[1]
    body = _counts_template(n) % tuple(counts.T.ravel().tolist())
    atomic_write_text(path, [_header_bytes(COUNTS_MAGIC, {"n": n, **meta}), body])


@lru_cache(maxsize=1)  # measure writes n files of one shape
def _counts_template(n: int) -> bytes:
    return b"".join(b"%d%s\n" % (k, b" %.17g" * len(READOUT_KEYS)) for k in range(n))
