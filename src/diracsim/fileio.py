"""Text file formats: complex matrices (read and written), measurement counts
(written only).

Both formats are line oriented and diff friendly.  Header lines are
``# key=value`` pairs; body rows hold indices plus numbers serialized with
17 significant digits, which round-trips IEEE doubles exactly, and a header
is written only if it reads back as written, so write -> read -> write
reproduces identical bytes.  A line ends at a newline
(``\\r\\n`` and ``\\r`` read as one); any other whitespace separates fields.
Files are written to a temporary name and renamed into place only on success
(a write that fails removes its temporary and the directories it made, and
reports the error that stopped it, such as an output directory that is a
regular file); they get the permissions a plain ``open(path, "w")`` would
give (0666 less the umask).

Matrix bodies, the ``figures`` CSV tables and counts that are not whole go
through one vectorized kernel, ``_format17.render``, whose output is byte for
byte ``b"%.17g" % x``.  It is exact because it takes the 17 digits as
round(y) of a two-float y = |x| 10**(16 - X), good to about 2**-100, with the
exponent X corrected from the floor of the unrounded y; y within 1e-6 of a
half, nan, +-inf and |x| outside [1e-290, 1e290] fall back to
``b"%.17g" % x`` one value at a time, and +-0 is written as ``0`` or ``-0``.
Matrix bodies and tables render whole rows, at most 4096 numbers per block or
one row when a row holds more, which keeps their working memory under a
megabyte up to n = 2048 (a body block at n = 4096 peaks at about 1.3 MiB).  A
block is stacked as word rows, one per word position of its lines: the index
words (built once per length and cached read-only, then broadcast over the
block's rows), the kernel's field rows with each separator OR'd into word 0,
and a newline row.  A word that is zero in every field is left out, one
``tobytes`` of the transpose is the only transposition, and dropping every
zero byte leaves the lines.  Counts files of whole counts in [+0, 1e17),
where ``%d`` prints what ``%.17g`` prints, fill a cached ``%d`` bytes
template, which renders the bodies of 256 noisy counts files at n = 256 in
about 32 ms, against about 110 ms through the kernel; any other counts (the
``--no-noise`` means, -0, values >= 1e17) take one kernel call, a counts
file holding 4n numbers.  Counts not of shape (4, n), finite and >= 0
are refused before a byte is written.

A matrix body that is not read from its twin (below) is parsed by one
parser, line by line with Python's ``int`` and ``float`` (so a spelling
such as ``1_0`` reads as they read it), which names the first bad line:
a malformed row, a bad number, nan or inf, an index out of bounds, a
duplicate entry, or how many entries are missing.  It is the slow path: one
random matrix at n = 1024 (50 MB of text) takes about 2.2-2.6 s and a
tracemalloc peak of 186 MiB to parse (0.12-0.14 s and 8.9 MiB at n = 256),
against 0.06 s from its twin.  No command reads counts files back; they
load with ``np.loadtxt(path, comments="#")``.

Both writers read the header they rendered back through the reader's own
header parser, its lines split as a file's are, and refuse with a
``ContractError``, before they write a byte, a header that does not come back
as ``{str(key): value as written}``: a key or value that holds a line break
(``\\n`` or ``\\r``, which would add a line to the file), a key that holds
``=``, a key or value with whitespace at either end (the reader strips it),
or two keys that read as one.  They refuse in the same way a ``meta`` key that
they set themselves (``rows`` and ``cols`` of a matrix, ``n`` of counts) to a
value other than the body's shape; the same value, as in the ``meta`` that
``read_matrix`` returns, is written once, as if it were left out.

The writers own the rule that no output holds nan or inf: ``write_matrix``
refuses a matrix, and the ``figures`` table writer a block of its table,
that holds one with a ``NumericalIntegrityError``, ``<file name> not
written: the matrix (or table) holds nan or inf``, and the file is not
written (a matrix is refused before any file or directory is made).

Each matrix file also gets a binary twin,
``.diracsim-cache/<file name>.<text sha256>.<array sha256>.npy`` beside it,
named by two SHA-256 digests taken as it is written: ``write_matrix`` hashes
the text as it streams out and the array's own bytes (complex128, row-major),
then saves the array with ``np.save(..., allow_pickle=False)``, atomically
and with the text's mode, so every matrix file the package writes reads back
through its twin.  After every matrix write,
each other twin in that directory is deleted if it is of the same file name
or its text file is gone, a twin named by the text's digest alone (an
earlier format, never read) included.  ``read_matrix`` checks the header as
always, hashes the whole file in 1 MiB chunks, and uses the twin whose name
carries that digest only if it is a regular file that holds, after an
``.npy`` header read without pickle, exactly a row-major complex128 array of
the header's shape whose bytes hash to the second digest in its name.  The
twin is opened with ``O_NONBLOCK`` (a FIFO never blocks the read) and
checked with ``fstat`` on that descriptor, and its size is checked against
the declared shape before the array is read, so a read never allocates more
than the twin holds.  Anything else (no twin, an edited text, a twin
truncated, overwritten, given a NaN, a flipped bit or a huge declared shape,
copied from another file, or not a regular file) parses the text as before,
so values, messages and exit codes do not depend on the twin.  A twin is
never trusted without both digest checks, the directory is safe to
delete (a ``.diracsim-cache`` that is not a directory is refused before any
byte of the text is written), and a twin costs 16 B per entry against about
53 B of text (+30 %), plus one hash of those 16 B on each write and read.
Counts files and the ``figures`` tables get no twin.  ``hashlib`` is
imported inside the two functions that hash, so importing the package loads
no OpenSSL.
"""

from __future__ import annotations

import contextlib
import errno
import io
import math
import os
import re
import stat
from dataclasses import asdict, fields
from functools import lru_cache
from itertools import chain
from typing import Iterable

import numpy as np

from ._format17 import WORDS, render
from .errors import ConfigError, ContractError, FormatError, NumericalIntegrityError
from .lattice import Grid, UnitMap, _as_array, _is_bool, _is_int, make_grid

MATRIX_MAGIC = "# diracsim matrix v1"
COUNTS_MAGIC = "# diracsim counts v1"

TWIN_DIR = ".diracsim-cache"
# captures the text file's name, the text's SHA-256 and the array's SHA-256,
# which a twin named by the text's digest alone (an earlier format) lacks
_TWIN_NAME = re.compile(r"(.+?)\.([0-9a-f]{64})\.(?:([0-9a-f]{64})\.)?npy")
_HASH_CHUNK = 1 << 20  # bytes hashed at a time: a read's memory does not grow with the file


def _fmt(value) -> str:
    if _is_bool(value):
        return "true" if value else "false"
    if _is_int(value):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


@contextlib.contextmanager
def _atomic_binary(path: str):
    """A binary handle on a temporary file that replaces ``path`` when the
    block ends without error, and is removed when it raises, together with
    the directories this call made for it (an empty one that existed stays).

    The temporary file is created with mode 0666 less the umask, as
    ``open(path, "w")`` would create ``path``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    made, missing = [], directory  # the directories this call makes, leaf first
    while not os.path.isdir(missing):
        made.append(missing)
        missing = os.path.dirname(missing)
    # O_EXCL: a unique name, never an existing file; 0o666: the umask applies
    tmp = os.path.join(directory, ".tmp-" + os.urandom(8).hex())
    try:
        os.makedirs(directory, exist_ok=True)
        with os.fdopen(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        # under a directory that is a regular file the unlink fails too; keep the cause
        with contextlib.suppress(FileNotFoundError, NotADirectoryError):
            os.unlink(tmp)
        for made_dir in made:  # rmdir leaves one that another write has filled
            with contextlib.suppress(OSError):
                os.rmdir(made_dir)
        raise


def atomic_write_text(path: str, chunks: Iterable[bytes]) -> None:
    """Write UTF-8 text, an iterable of ``bytes`` chunks, to ``path``
    atomically (see ``_atomic_binary``)."""
    with _atomic_binary(path) as fh:
        fh.writelines(chunks)


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
    another value is a ContractError, as is a header that :func:`_read_header`
    does not give back as ``{str(key): _fmt(value)}`` from the rendered text,
    its lines split as a file's are."""
    for key in sorted(own.keys() & meta.keys()):
        if _fmt(meta[key]) != _fmt(own[key]):
            raise ContractError(f"meta {key}={_fmt(meta[key])} is not the body's {_fmt(own[key])}")
    header = {**own, **meta}
    pairs = [(str(key), _fmt(value)) for key, value in header.items()]
    text = magic + "\n" + "".join(f"# {key}={value}\n" for key, value in pairs)
    with contextlib.suppress(FormatError):  # a repeated key or a malformed line
        if _read_header(io.StringIO(text, newline=None), "<header>", magic)[0] == dict(pairs):
            return text.encode()
    raise ContractError("a header key or value holds a line break, or does not read back "
                        f"as written: {header!r}")


def _twin_dir(path: str) -> tuple[str, str]:
    """The twin directory beside ``path``, and the file name of ``path``."""
    directory, name = os.path.split(os.path.abspath(path))
    return os.path.join(directory, TWIN_DIR), name


def _finite(path: str, what: str, arr: np.ndarray) -> np.ndarray:
    """``arr``; if it holds nan or inf, a NumericalIntegrityError saying that
    the file ``path`` is not written because ``what`` (``"the matrix"`` or
    ``"the table"``) does."""
    if np.isfinite(arr).all():
        return arr
    raise NumericalIntegrityError(f"{os.path.basename(path)} not written: {what} holds nan or inf")


def write_matrix(path: str, arr: np.ndarray, meta: dict) -> None:
    """Write a complex matrix with '# key=value' headers and 'i j re im' rows,
    then its binary twin, named by the SHA-256 of the text and that of the
    array's bytes.  An array that is not a 2-D array of numbers
    (:func:`.lattice._as_array`) is a ContractError, one that holds nan or
    inf a NumericalIntegrityError, and a twin directory that exists but is
    not a directory a NotADirectoryError, each raised before any file or
    directory is made."""
    import hashlib  # here: importing the package loads no OpenSSL

    # hashed as it is saved, in C order
    arr = np.asarray(_as_array(arr, "matrix"), dtype=complex, order="C")
    if arr.ndim != 2:
        raise ContractError(f"matrix must be 2-D, got shape {arr.shape}")
    _finite(path, "the matrix", arr)
    head = _header_bytes(MATRIX_MAGIC, {"rows": arr.shape[0], "cols": arr.shape[1]}, meta)
    cache, own = _twin_dir(path)
    if os.path.lexists(cache) and not os.path.isdir(cache):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), cache)
    digest = hashlib.sha256()
    with _atomic_binary(path) as fh:
        for chunk in chain([head], _matrix_body(arr)):
            digest.update(chunk)
            fh.write(chunk)
    keep = f"{own}.{digest.hexdigest()}.{hashlib.sha256(arr).hexdigest()}.npy"
    with _atomic_binary(os.path.join(cache, keep)) as fh:
        np.save(fh, arr, allow_pickle=False)
    # drop the other twins of this name, and those whose text is gone
    for name in os.listdir(cache) if os.path.isdir(cache) else ():
        text = _TWIN_NAME.fullmatch(name)
        if text and name != keep and (text[1] == own or not os.path.exists(
                os.path.join(os.path.dirname(cache), text[1]))):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(cache, name))


def _matrix_body(arr: np.ndarray):
    """The 'i j re im' lines of ``arr`` in row-major order, one block of whole
    rows at a time: at most ``_BLOCK`` numbers, or one row when a row holds
    more."""
    rows, cols = arr.shape
    if not rows * cols:
        return
    # "i " and "j" as word rows, built once: each block broadcasts them
    row_words, col_words = _index_words(rows, b" "), _index_words(cols, b"")
    step = max(1, _BLOCK // (2 * cols))
    for i in range(0, rows, step):
        block = arr[i:i + step]
        prefix = (np.broadcast_to(row_words[:, i:i + len(block), None],
                                  (len(row_words),) + block.shape),
                  np.broadcast_to(col_words[:, None, :], (len(col_words),) + block.shape))
        yield _lines(block.ravel().view(float).reshape(-1, 2), b"  ", prefix)


def _write_table(path: str, corner: str, cols: np.ndarray, rows: np.ndarray,
                 arr: np.ndarray, entry) -> None:
    """Write a CSV table: a ``corner,cols...`` line, then ``rows[i],t[i]...``
    for every row, each number as ``%.17g``, where the table ``t`` is
    ``entry(arr)`` for an elementwise ``entry`` such as ``np.abs``.  It is
    formed one block of rows at a time, so no whole table is held; a block
    that holds nan or inf is a NumericalIntegrityError, and the file is not
    written."""
    cols, rows = np.asarray(cols, dtype=float), np.asarray(rows, dtype=float)
    head = _lines(cols[None, :], b"," * len(cols), (_words(corner.encode())[:, None],))
    step = max(1, _BLOCK // (len(cols) + 1))
    leads = b"\0" + b"," * len(cols)
    body = (_lines(np.column_stack((rows[i:i + step],
                                    _finite(path, "the table", entry(arr[i:i + step])))), leads)
            for i in range(0, len(rows), step))
    atomic_write_text(path, chain([head], body))


def _phase(arr: np.ndarray) -> np.ndarray:
    """``np.angle``, with -pi given as pi."""
    angle = np.angle(arr)
    return np.where(angle <= -np.pi, np.pi, angle)


# each figure table kind, with the ``entry`` that forms its table
FIGURE_ENTRIES = {"magnitude": np.abs, "phase": _phase, "real": np.real, "imag": np.imag}


def _words(text: bytes) -> np.ndarray:
    """``text`` zero-padded to whole uint32 words."""
    return np.frombuffer(text.ljust(-(-len(text) // 4) * 4, b"\0"), np.uint32)


@lru_cache(maxsize=4)  # a matrix writes two per file, measure's counts one per file
def _index_words(count: int, suffix: bytes) -> np.ndarray:
    """Column k is ``b"%d" % k + suffix`` as zero-padded uint32 words, read-only."""
    width = -(-(len(b"%d" % max(count - 1, 0)) + len(suffix)) // 4) * 4
    text = b"".join((b"%d" % k + suffix).ljust(width, b"\0") for k in range(count))
    words = np.frombuffer(text, np.uint32).reshape(count, width // 4).T.copy()
    words.setflags(write=False)
    return words


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


def read_matrix(path: str):
    """Read a matrix file; returns ``(array, meta)`` with meta values as strings.

    The array comes from the file's binary twin when the twin is named by
    the text's SHA-256 and its array's bytes match the SHA-256 in its name,
    and otherwise from the text, parsed by :func:`_read_matrix_lines` at
    about 40 times the cost of the twin read.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
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
            return _read_matrix_lines(fh, path, lineno, rows, cols), meta
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _load_twin(path: str, raw, rows: int, cols: int):
    """The twin of ``path`` named by the SHA-256 of every byte of ``raw`` (the
    file's binary handle), or None unless that twin is a regular file that
    holds, after an ``.npy`` header without pickle, exactly a row-major
    complex128 array of shape (rows, cols) whose bytes have the SHA-256 that
    its name carries.  The file is checked on the open descriptor, and its
    size before its array is read, so a read allocates no more than the twin
    holds."""
    import hashlib

    digest = hashlib.sha256()
    raw.seek(0)
    for chunk in iter(lambda: raw.read(_HASH_CHUNK), b""):
        digest.update(chunk)
    cache, own = _twin_dir(path)
    for twin in map(_TWIN_NAME.fullmatch, os.listdir(cache) if os.path.isdir(cache) else ()):
        if twin and twin.group(1, 2) == (own, digest.hexdigest()):
            try:  # O_NONBLOCK: opening a FIFO does not wait for a writer
                with open(os.open(os.path.join(cache, twin[0]), os.O_RDONLY | os.O_NONBLOCK),
                          "rb") as fh:
                    info = os.fstat(fh.fileno())
                    if not (stat.S_ISREG(info.st_mode) and np.lib.format.read_magic(fh) == (1, 0)
                            and np.lib.format.read_array_header_1_0(fh)
                            == ((rows, cols), False, np.dtype(complex))
                            and info.st_size - fh.tell() == rows * cols * 16):
                        return None
                    arr = np.fromfile(fh, complex, rows * cols).reshape(rows, cols)
            except (OSError, ValueError, EOFError):
                return None
            return arr if hashlib.sha256(arr).hexdigest() == twin[3] else None
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

    Counts that are not integers or floats, of any other shape, or not
    finite and >= 0, are a ContractError.
    """
    counts = np.asarray(_as_array(counts, "counts", kinds="iuf"), dtype=float)
    if counts.ndim != 2 or len(counts) != _ANALYZERS:
        raise ContractError(f"counts must have shape ({_ANALYZERS}, n), got {counts.shape}")
    if not (np.isfinite(counts) & (counts >= 0)).all():
        raise ContractError("counts must be finite and >= 0")
    head = _header_bytes(COUNTS_MAGIC, {"n": counts.shape[1]}, meta)
    # %d prints what %.17g prints for whole counts in [+0, 1e17); -0 prints "-0"
    if ((counts == np.floor(counts)) & (counts < 1e17) & ~np.signbit(counts)).all():
        body = _counts_template(counts.shape[1]) % tuple(counts.astype(np.int64).T.ravel().tolist())
    else:  # one kernel call: a counts file holds 4n numbers
        body = _lines(counts.T, b" " * _ANALYZERS, (_index_words(counts.shape[1], b""),))
    atomic_write_text(path, [head, body])


_ANALYZERS = 4  # rows of a counts array: D, A, L, R


@lru_cache(maxsize=1)  # measure writes n files of one shape
def _counts_template(n: int) -> bytes:
    return b"".join(b"%d%s\n" % (k, b" %d" * _ANALYZERS) for k in range(n))
