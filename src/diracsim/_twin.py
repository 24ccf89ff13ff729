"""Binary twins of matrix files, keyed by the SHA-256 of their text.

``fileio.write_matrix`` passes the text's chunks through ``hashed`` as they
stream out, then calls ``save``: the array goes, with ``np.save(...,
allow_pickle=False)``, atomically and with the text's mode, to
``.diracsim-cache/<file name>.<sha256 hex>.npy`` beside the file, and the
older twins of that name are removed.  ``fileio.read_matrix`` checks the
header as always, then calls ``load``, which hashes the whole file in 1 MiB
chunks and returns the twin named by that digest only if it loads without
pickle as a finite complex128 array of the header's shape.  Anything else
(no twin, an edited text, a damaged twin) returns None, and the text is
parsed as before, so values, messages and exit codes do not depend on the
twin.  A twin is never trusted without the digest check, and the directory
is safe to delete.  Counts files and the ``figures`` tables get no twin, and
neither does a matrix file whose header has a line break inside a key or
value (that text reads back with a different body).

``fileio`` imports this module on first use, so importing the package
compiles none of it and loads no OpenSSL for ``hashlib``.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import re

import numpy as np

from .fileio import _atomic_binary

TWIN_DIR = ".diracsim-cache"
_DIGEST_NPY = re.compile(r"[0-9a-f]{64}\.npy")
_HASH_CHUNK = 1 << 20  # bytes hashed at a time: a read's memory does not grow with the file

sha256 = hashlib.sha256


def hashed(chunks, digest):
    """``chunks``, each passed to ``digest.update`` on its way through."""
    for chunk in chunks:
        digest.update(chunk)
        yield chunk


def twin_path(path: str, digest: str) -> str:
    directory, name = os.path.split(os.path.abspath(path))
    return os.path.join(directory, TWIN_DIR, f"{name}.{digest}.npy")


def save(path: str, arr: np.ndarray, digest: str) -> None:
    """Save ``arr`` atomically as the twin of ``path``'s text, whose SHA-256 is
    ``digest``, and remove the other twins of that file name."""
    twin = twin_path(path, digest)
    with _atomic_binary(twin) as fh:
        np.save(fh, arr, allow_pickle=False)
    cache, keep = os.path.split(twin)
    prefix = os.path.basename(path) + "."
    for name in os.listdir(cache):
        if name != keep and name.startswith(prefix) and _DIGEST_NPY.fullmatch(name, len(prefix)):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(cache, name))


def load(path: str, raw, rows: int, cols: int):
    """The twin of ``path`` named by the SHA-256 of every byte of ``raw`` (the
    file's binary handle), or None unless that twin loads without pickle as a
    finite complex128 array of shape (rows, cols)."""
    digest = sha256()
    raw.seek(0)
    for chunk in iter(lambda: raw.read(_HASH_CHUNK), b""):
        digest.update(chunk)
    try:
        arr = np.load(twin_path(path, digest.hexdigest()), allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    if (isinstance(arr, np.ndarray) and arr.dtype == complex and arr.shape == (rows, cols)
            and np.isfinite(arr).all()):
        return np.ascontiguousarray(arr)
    return None
