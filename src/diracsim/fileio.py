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
time, and +-0 is written as ``0`` or ``-0``.  The writers render at most
4096 numbers per block, which keeps their working memory under a megabyte at
any matrix size.  A block is stacked as word rows, one per word position of
its lines: the index words (built once per file, then broadcast over whole
rows or sliced along one long row), the kernel's field rows with each
separator OR'd into word 0, and a newline row.  A word that is zero in every
field is left out, one ``tobytes`` of the transpose is the only
transposition, and dropping every zero byte leaves the lines.  Counts files
fill a cached ``bytes`` template: ``%d`` when every count is a whole number
in [+0, 1e17), where it prints what ``%.17g`` prints, else ``%.17g``.  Counts
not of shape (4, n), finite and >= 0 are refused before a byte is written.

The matrix reader parses the body in one ``np.loadtxt`` pass and checks
bounds, duplicates, missing entries and finiteness with array operations.
Only when that pass or a check fails is the body read again line by line,
which names the first bad line (or accepts a number spelling such as ``1_0``
that only Python's own parser reads).  No command reads counts files back;
they load with ``np.loadtxt(path, comments="#")``.

Header keys and values may hold no line break (``\\n`` or ``\\r``): it would
add a line to the file, so both writers refuse it with a ``ContractError``
before they write a byte.  They refuse in the same way a ``meta`` key that
they set themselves (``rows`` and ``cols`` of a matrix, ``n`` of counts) to a
value other than the body's shape; the same value, as in the ``meta`` that
``read_matrix`` returns, is written once, as if it were left out.

Each matrix file of finite values also gets a binary twin,
``.diracsim-cache/<file name>.<sha256 hex>.npy`` beside it, keyed by the
SHA-256 of its text: ``write_matrix`` takes the digest as the text streams
out, then saves the array with ``np.save(..., allow_pickle=False)``,
atomically and with the text's mode.  An array holding nan or inf gets no
twin: the reader would refuse it and parse the text to name the bad line.
After every matrix write, each other twin in that directory is deleted if it
is of the same file name or its text file is gone.  ``read_matrix`` checks
the header as always, hashes the whole file in 1 MiB chunks and returns the
twin named by that digest only if it loads without pickle as a finite
complex128 array of the header's shape.  Anything else (no twin, an edited
text, a damaged twin) parses the text as before, so values, messages and
exit codes do not depend on the twin.  A twin is never trusted without the
digest check, the directory is safe to delete, and a twin costs 16 B per
entry against about 53 B of text (+30 %).  Counts files and the ``figures``
tables get no twin.  ``hashlib`` is imported inside the two functions that
hash, so importing the package loads no OpenSSL.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
import warnings
from dataclasses import asdict, fields
from functools import lru_cache
from itertools import chain
from typing import Iterable

import numpy as np

from ._format17 import WORDS, render
from .errors import ConfigError, ContractError, FormatError
from .lattice import Grid, UnitMap, make_grid

MATRIX_MAGIC = "# diracsim matrix v1"
COUNTS_MAGIC = "# diracsim counts v1"

_MATRIX_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("re", float), ("im", float)])

TWIN_DIR = ".diracsim-cache"
_TWIN_NAME = re.compile(r"(.+)\.[0-9a-f]{64}\.npy")  # captures the text file's name
_HASH_CHUNK = 1 << 20  # bytes hashed at a time: a read's memory does not grow with the file


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


@contextlib.contextmanager
def _atomic_binary(path: str):
    """A binary handle on a temporary file that replaces ``path`` when the
    block ends without error, and is removed when it raises.

    The temporary file is created with mode 0666 less the umask, as
    ``open(path, "w")`` would create ``path``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # O_EXCL: a unique name, never an existing file; 0o666: the umask applies
    tmp = os.path.join(directory, ".tmp-" + os.urandom(8).hex())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, data: bytes | Iterable[bytes]) -> None:
    """Write UTF-8 text, as ``bytes`` or an iterable of ``bytes`` chunks, to
    ``path`` atomically (see ``_atomic_binary``)."""
    with _atomic_binary(path) as fh:
        fh.writelines([data] if isinstance(data, bytes) else data)


def grid_meta(grid: Grid) -> dict:
    units = {} if grid.unit_map is None else asdict(grid.unit_map)
    return {"n": grid.n, "dx": grid.dx, "x0": grid.x0, **units}


def grid_from_meta(meta: dict, path: str = "<meta>") -> Grid:
    try:
        unit_map = None
        if "wavelength" in meta:
            unit_map = UnitMap(**{key.name: float(meta[key.name]) for key in fields(UnitMap)})
        return make_grid(int(meta["n"]), float(meta["dx"]), float(meta["x0"]), unit_map)
    except (KeyError, ValueError, ConfigError) as exc:
        raise FormatError(f"{path}: incomplete or invalid grid header ({exc})") from exc


def _header_bytes(magic: str, own: dict, meta: dict) -> bytes:
    """The magic line and one '# key=value' line per entry of the writer's
    ``own`` keys, then of ``meta``.  A ``meta`` key that ``own`` sets to
    another value, or a key or value holding a line break, is a ContractError."""
    for key in sorted(own.keys() & meta.keys()):
        if _fmt(meta[key]) != _fmt(own[key]):
            raise ContractError(f"meta {key}={_fmt(meta[key])} is not the body's {_fmt(own[key])}")
    header = {**own, **meta}
    text = magic + "\n" + "".join(f"# {key}={_fmt(value)}\n" for key, value in header.items())
    if text.count("\n") != len(header) + 1 or "\r" in text:
        raise ContractError(f"a header key or value holds a line break: {header!r}")
    return text.encode()


def _twin_path(path: str, digest: str) -> str:
    directory, name = os.path.split(os.path.abspath(path))
    return os.path.join(directory, TWIN_DIR, f"{name}.{digest}.npy")


def write_matrix(path: str, arr: np.ndarray, meta: dict) -> None:
    """Write a complex matrix with '# key=value' headers and 'i j re im' rows,
    then, if every value is finite, its binary twin, named by the SHA-256 of
    the text.  An array that is not 2-D is a ContractError, raised before any
    file or directory is made."""
    import hashlib  # here: importing the package loads no OpenSSL

    arr = np.asarray(arr, dtype=complex)
    if arr.ndim != 2:
        raise ContractError(f"matrix must be 2-D, got shape {arr.shape}")
    head = _header_bytes(MATRIX_MAGIC, {"rows": arr.shape[0], "cols": arr.shape[1]}, meta)
    digest = hashlib.sha256()
    with _atomic_binary(path) as fh:
        for chunk in chain([head], _matrix_body(arr)):
            digest.update(chunk)
            fh.write(chunk)
    twin = _twin_path(path, digest.hexdigest())
    cache, keep = os.path.split(twin)
    if np.isfinite(arr).all():  # read_matrix refuses any other twin
        with _atomic_binary(twin) as fh:
            np.save(fh, arr, allow_pickle=False)
    # drop the other twins of this name, and those whose text is gone
    for name in os.listdir(cache) if os.path.isdir(cache) else ():
        text = _TWIN_NAME.fullmatch(name)
        if text and name != keep and (text[1] == os.path.basename(path) or not os.path.exists(
                os.path.join(os.path.dirname(cache), text[1]))):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(cache, name))


def _matrix_body(arr: np.ndarray):
    """The 'i j re im' lines of ``arr`` in row-major order, one block of at
    most ``_BLOCK`` numbers at a time: whole rows, or a slice of one row when
    a row holds more than a block."""
    rows, cols = arr.shape
    if not rows * cols:
        return
    # "i " and "j" as word rows, built once: each block broadcasts them
    row_words, col_words = _index_words(rows, b" "), _index_words(cols, b"")
    wide = min(cols, _BLOCK // 2)
    tall = _BLOCK // 2 // wide
    for i in range(0, rows, tall):
        for j in range(0, cols, wide):
            block = arr[i:i + tall, j:j + wide]
            prefix = (np.broadcast_to(row_words[:, i:i + len(block), None],
                                      (len(row_words),) + block.shape),
                      np.broadcast_to(col_words[:, None, j:j + block.shape[1]],
                                      (len(col_words),) + block.shape))
            yield _lines(block.ravel().view(float).reshape(-1, 2), b"  ", prefix)


def _write_table(path: str, corner: str, cols: np.ndarray, rows: np.ndarray,
                 arr: np.ndarray, entry) -> None:
    """Write a CSV table: a ``corner,cols...`` line, then ``rows[i],t[i]...``
    for every row, each number as ``%.17g``, where the table ``t`` is
    ``entry(arr)`` for an elementwise ``entry`` such as ``np.abs``.  It is
    formed one block of rows at a time, so no whole table is held."""
    cols, rows = np.asarray(cols, dtype=float), np.asarray(rows, dtype=float)
    head = _lines(cols[None, :], b"," * len(cols), (_words(corner.encode())[:, None],))
    step = max(1, _BLOCK // (len(cols) + 1))
    leads = b"\0" + b"," * len(cols)
    body = (_lines(np.column_stack((rows[i:i + step], entry(arr[i:i + step]))), leads)
            for i in range(0, len(rows), step))
    atomic_write_text(path, chain([head], body))


def _words(text: bytes) -> np.ndarray:
    """``text`` zero-padded to whole uint32 words."""
    return np.frombuffer(text.ljust(-(-len(text) // 4) * 4, b"\0"), np.uint32)


def _index_words(count: int, suffix: bytes) -> np.ndarray:
    """Column k is ``b"%d" % k + suffix`` as zero-padded uint32 words."""
    width = -(-(len(b"%d" % max(count - 1, 0)) + len(suffix)) // 4) * 4
    text = b"".join((b"%d" % k + suffix).ljust(width, b"\0") for k in range(count))
    return np.frombuffer(text, np.uint32).reshape(count, width // 4).T.copy()


_BLOCK = 4096  # numbers per rendered block: the writers' memory does not grow with n
_NEWLINE = _words(b"\n")


def _lines(values: np.ndarray, leads: bytes, prefix: tuple = ()) -> bytes:
    """One text line per row of ``values``: the row's words from each array
    of ``prefix`` in turn (shape (words,) + the lines' shape), then each
    number as ``%.17g`` preceded by its byte of ``leads`` (zero for none),
    then a newline.

    The block is stacked as word rows, one per word position of a line, and
    transposed once by ``tobytes``; then its zero bytes are dropped.
    """
    count, per_line = values.shape
    fields = render(values.T.ravel()).reshape(WORDS, per_line, count)
    lead = np.zeros((per_line, 4), np.uint8)  # each lead byte as byte 0 of a word
    lead[:, 0] = np.frombuffer(leads, np.uint8)
    fields[0] |= lead.view(np.uint32)
    fields = fields[fields.any(axis=(1, 2))]  # a word that is zero in every field is dropped
    width = sum(len(part) for part in prefix)
    buf = np.empty((width + len(fields) * per_line + 1, count), np.uint32)
    at = 0
    for part in prefix:
        buf[at:at + len(part)].reshape(part.shape)[...] = part
        at += len(part)
    buf[at:-1].reshape(per_line, len(fields), count)[...] = fields.transpose(1, 0, 2)
    buf[-1] = _NEWLINE
    return buf.T.tobytes().translate(None, b"\0")


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
    """Read a matrix file; returns ``(array, meta)`` with meta values as strings.

    The array comes from the file's binary twin when the twin matches the
    text's SHA-256 and passes every check, and from the text otherwise.
    """
    with _reading(path) as fh:
        meta, lineno = _read_header(fh, path, MATRIX_MAGIC)
        try:
            rows, cols = int(meta["rows"]), int(meta["cols"])
            if rows < 0 or cols < 0:
                raise ValueError(f"negative shape {rows}x{cols}")
        except (KeyError, ValueError) as exc:
            raise FormatError(f"{path}: missing or invalid rows/cols header ({exc})") from exc
        body = fh.tell()
        twin = _load_twin(path, fh.buffer, rows, cols)
        if twin is not None:
            return twin, meta
        fh.seek(body)
        table = _parse_body(fh)
        flat = _positions(table, rows, cols)
        if flat is None:
            fh.seek(body)
            return _read_matrix_lines(fh, path, lineno, rows, cols), meta
    values = np.empty((rows * cols, 2))
    values[flat, 0] = table["re"]
    values[flat, 1] = table["im"]
    return values.view(complex).reshape(rows, cols), meta


def _load_twin(path: str, raw, rows: int, cols: int):
    """The twin of ``path`` named by the SHA-256 of every byte of ``raw`` (the
    file's binary handle), or None unless that twin loads without pickle as a
    finite complex128 array of shape (rows, cols)."""
    import hashlib

    digest = hashlib.sha256()
    raw.seek(0)
    for chunk in iter(lambda: raw.read(_HASH_CHUNK), b""):
        digest.update(chunk)
    try:
        arr = np.load(_twin_path(path, digest.hexdigest()), allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    if (isinstance(arr, np.ndarray) and arr.dtype == complex and arr.shape == (rows, cols)
            and np.isfinite(arr).all()):
        return np.ascontiguousarray(arr)
    return None


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
    '# n=' and then ``meta`` as headers; body rows are 'k N_D N_A N_L N_R'.

    Counts of any other shape, or not finite and >= 0, are a ContractError.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2 or len(counts) != _ANALYZERS:
        raise ContractError(f"counts must have shape ({_ANALYZERS}, n), got {counts.shape}")
    if not (np.isfinite(counts) & (counts >= 0)).all():
        raise ContractError("counts must be finite and >= 0")
    head = _header_bytes(COUNTS_MAGIC, {"n": counts.shape[1]}, meta)
    # %d prints what %.17g prints for whole counts in [+0, 1e17); -0 prints "-0"
    whole = bool((counts == np.floor(counts)).all() and (counts < 1e17).all()
                 and not np.signbit(counts).any())
    values = counts.astype(np.int64) if whole else counts
    body = _counts_template(counts.shape[1], whole) % tuple(values.T.ravel().tolist())
    atomic_write_text(path, [head, body])


_ANALYZERS = 4  # rows of a counts array: D, A, L, R


@lru_cache(maxsize=2)  # measure writes n files of one shape, whole counts or means
def _counts_template(n: int, whole: bool) -> bytes:
    return b"".join(b"%d%s\n" % (k, (b" %d" if whole else b" %.17g") * _ANALYZERS)
                    for k in range(n))
