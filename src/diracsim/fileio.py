"""Text file formats: complex matrices (read and written), measurement counts
(written only).

Both formats are line oriented and diff friendly.  Header lines are
``# key=value`` pairs; body rows hold indices plus numbers serialized with
17 significant digits, which round-trips IEEE doubles exactly, so
write -> read -> write reproduces identical bytes.  A line ends at a newline
(``\\r\\n`` and ``\\r`` read as one); any other whitespace separates fields.
Files are written to a temporary name and renamed into place only on success;
they get the permissions a plain ``open(path, "w")`` would give (0666 less
the umask).

Matrix bodies and the ``figures`` CSV tables go through one vectorized
kernel, ``_format17.render``, whose output is byte for byte ``b"%.17g" % x``.
It is exact because it takes the 17 digits as round(y) of a two-float
y = |x| 10**(16 - X), good to about 2**-100, with the exponent X corrected
from the floor of the unrounded y; y within 1e-6 of a half, nan, +-inf and
|x| outside [1e-290, 1e290] fall back to ``b"%.17g" % x`` one value at a
time, and +-0 is written as ``0`` or ``-0``.  The writers render about 4096
numbers per block, which keeps their working memory under a megabyte at any
matrix size.  Index columns, separators and newlines go into a block as
literal bytes beside the kernel's fixed-width fields, and dropping every zero
byte of the block leaves its lines.  Counts files keep a ``bytes`` template
filled by ``%``: their integer-valued counts take dtoa's fast integer path.

The matrix reader parses the body in one ``np.loadtxt`` pass and checks
bounds, duplicates, missing entries and finiteness with array operations.
Only when that pass or a check fails is the body read again line by line,
which names the first bad line (or accepts a number spelling such as ``1_0``
that only Python's own parser reads).  No command reads counts files back;
they load with ``np.loadtxt(path, comments="#")``.
"""

from __future__ import annotations

import contextlib
import math
import os
import warnings
from functools import lru_cache
from itertools import chain
from typing import Iterable

import numpy as np

from ._format17 import WORDS, render
from .errors import ConfigError, FormatError
from .lattice import Grid, UnitMap, make_grid

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
    """Write UTF-8 text, as ``bytes`` or an iterable of ``bytes`` chunks, to
    ``path`` atomically, through a binary handle.

    The temporary file is created with mode 0666 less the umask, as
    ``open(path, "w")`` would create ``path``, and is removed if the write fails.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # O_EXCL: a unique name, never an existing file; 0o666: the umask applies
    tmp = os.path.join(directory, ".tmp-" + os.urandom(8).hex())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
    atomic_write_text(path, chain([_header_bytes(MATRIX_MAGIC, header)], _matrix_body(arr)))


def _matrix_body(arr: np.ndarray):
    """The 'i j re im' lines of ``arr`` in row-major order, one block of
    ``_BLOCK`` numbers at a time."""
    rows, cols = arr.shape
    # "i " and "j" as zero-padded byte rows; the zero bytes drop out with the rest
    row_text, col_text = _index_text(rows, b" "), _index_text(cols, b"")
    step = _BLOCK // 2
    for start in range(0, rows * cols, step):
        values = arr.flat[start:start + step]
        i, j = np.divmod(np.arange(start, start + len(values)), cols)
        yield _lines(values.view(float).reshape(-1, 2), b"  ", (row_text[i], col_text[j]))


def _write_table(path: str, corner: str, cols: np.ndarray, rows: np.ndarray,
                 table: np.ndarray) -> None:
    """Write a CSV table: a ``corner,cols...`` line, then ``rows[i],table[i]...``
    for every row, each number as ``%.17g``."""
    cols, rows = np.asarray(cols, dtype=float), np.asarray(rows, dtype=float)
    corner = np.frombuffer(corner.encode(), np.uint8)[None]
    head = _lines(cols[None, :], b"," * len(cols), (corner,))
    step = max(1, _BLOCK // (len(cols) + 1))
    leads = b"\0" + b"," * len(cols)
    body = (_lines(np.column_stack((rows[start:start + step], table[start:start + step])), leads)
            for start in range(0, len(rows), step))
    atomic_write_text(path, chain([head], body))


def _index_text(count: int, suffix: bytes) -> np.ndarray:
    """Row k is ``b"%d" % k + suffix``, zero-padded to a common width."""
    width = len(b"%d" % max(count - 1, 0)) + len(suffix)
    text = b"".join((b"%d" % k + suffix).ljust(width, b"\0") for k in range(count))
    return np.frombuffer(text, np.uint8).reshape(count, width)


_BLOCK = 4096  # numbers per rendered block: the writers' memory does not grow with n


def _lines(values: np.ndarray, leads: bytes, prefix: tuple = ()) -> bytes:
    """One text line per row of ``values``: the row's bytes from each array
    of ``prefix`` in turn, then each number as ``%.17g`` preceded by its byte
    of ``leads`` (zero for none), then a newline."""
    count, per_line = values.shape
    width = sum(part.shape[1] for part in prefix)
    skip = -(-width // 4)
    buf = np.zeros((count, skip + WORDS * per_line + 1), np.uint32)
    text = buf.view(np.uint8)
    at = 0
    for part in prefix:
        text[:, at:at + part.shape[1]] = part
        at += part.shape[1]
    render(values, buf[:, skip:skip + WORDS * per_line].reshape(count, per_line, WORDS))
    text[:, 4 * skip:4 * (skip + WORDS * per_line):4 * WORDS] = np.frombuffer(leads, np.uint8)
    text[:, -4] = ord("\n")
    return text.tobytes().translate(None, b"\0")


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
    line, and leaves ``fh`` at that line.  A key may appear only once.
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
        key = key.strip()
        if key in meta:
            raise FormatError(f"{path}:{lineno}: repeated header key {key!r}")
        meta[key] = value.strip()
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
    """Write one sliver's counts, shape (4, n) in analyzer order D, A, L, R, with
    '# n=' and then ``meta`` as headers; body rows are 'k N_D N_A N_L N_R'."""
    counts = np.asarray(counts, dtype=float)
    rows, n = counts.shape
    body = _counts_template(rows, n) % tuple(counts.T.ravel().tolist())
    atomic_write_text(path, [_header_bytes(COUNTS_MAGIC, {"n": n, **meta}), body])


@lru_cache(maxsize=1)  # measure writes n files of one shape
def _counts_template(rows: int, n: int) -> bytes:
    return b"".join(b"%d%s\n" % (k, b" %.17g" * rows) for k in range(n))
