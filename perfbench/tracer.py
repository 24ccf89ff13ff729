"""Span tracer that wraps the public functions of the diracsim modules from outside.

``Tracer.install()`` replaces every public function, public method and cached
property of the layer modules with a wrapper that records a span (name, start,
end, parent, run id).  A wrapped function can be bound under many names: the
package ``__init__`` re-exports most of them, modules import each other's
functions by name (``weaksim`` binds ``dirac_distribution`` and
``density_from_pure``), and ``cli`` dispatches through a module-level dict of
its commands.  ``install`` therefore rebinds every name in every loaded module,
and every value of a module-level dict, that refers to an original;
``restore`` puts each original back where it was found.  Spans stay in memory
until ``dump``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("config", "lattice", "qstate", "dirac", "weaksim", "bayesprop", "fileio", "cli")


def _array_key(arr) -> bytes | None:
    """Content hash of an array, so equal matrices count as one distinct input."""
    if arr is None:
        return None
    import numpy as np

    a = np.ascontiguousarray(arr)
    return hashlib.blake2b(a.view(np.uint8).reshape(-1), digest_size=16).digest()


def _path_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _scan_key(args, kwargs):
    rho, cfg = args[0], args[1]
    return (_array_key(rho.rho), float(cfg.phi), _array_key(kwargs.get("basis")))


def _validate_key(args, kwargs):
    return _array_key(args[0].rho)


# Extra measurements taken around some calls.  A key function feeds the
# distinct-input count behind ``useful_ratio``; a size function reports the
# bytes of the file a reader consumed (before the call) or a writer produced
# (after it).
KEY_FUNCS = {
    "weaksim.scan_with_records": _scan_key,
    "qstate.DensityMatrix.validate": _validate_key,
}
BYTES_BEFORE = {"fileio.read_matrix"}
BYTES_AFTER = {"fileio.write_matrix", "fileio.write_counts"}


class Tracer:
    """Records nested spans of the wrapped functions of one diracsim import."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, run id, self_s]
        self.keys = {}         # name -> list of input keys
        self.bytes = {}        # name -> total bytes
        self.run_id = None
        self.overhead_s = 0.0  # bookkeeping time spent outside every span
        self._stack = []       # open span indices
        self._child = []       # time covered by children of each open span
        self._bindings = []    # (namespace or dict, name or key, original) to restore
        self._installed = False

    # -- recording ---------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        t0 = time.perf_counter()
        key_fn = KEY_FUNCS.get(name)
        if key_fn is not None:
            self.keys.setdefault(name, []).append(key_fn(args, kwargs))
        if name in BYTES_BEFORE:
            self.bytes[name] = self.bytes.get(name, 0) + _path_size(args[0])
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = [name, 0.0, 0.0, parent, self.run_id, 0.0]
        self.spans.append(span)
        self._stack.append(index)
        self._child.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            child = self._child.pop()
            span[1], span[2], span[5] = start, end, (end - start) - child
            if name in BYTES_AFTER:
                self.bytes[name] = self.bytes.get(name, 0) + _path_size(args[0])
            done = time.perf_counter()
            # The parent's self time excludes this span and its bookkeeping.
            if self._child:
                self._child[-1] += done - t0
            self.overhead_s += (start - t0) + (done - end)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _targets(self):
        """Yield (span name, namespace, attribute, original) for each wrapped object."""
        for layer in LAYERS:
            mod = importlib.import_module(f"diracsim.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    yield f"{layer}.{attr}", None, attr, obj
                elif inspect.isclass(obj):
                    for meth, member in list(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        if inspect.isfunction(member):
                            yield f"{layer}.{attr}.{meth}", obj, meth, member
                        elif isinstance(member, functools.cached_property):
                            yield f"{layer}.{meth}", obj, meth, member

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer is already installed")
        functions = {}
        for name, owner, attr, obj in list(self._targets()):
            if owner is None:
                functions[id(obj)] = (obj, self._wrap(name, obj))
            elif isinstance(obj, functools.cached_property):
                prop = functools.cached_property(self._wrap(name, obj.func))
                prop.__set_name__(owner, attr)
                self._bind(owner, attr, obj, prop)
            else:
                self._bind(owner, attr, obj, self._wrap(name, obj))
        # Rebind every module-level name, and every value of a module-level
        # dict, that refers to a wrapped function, wherever it was imported:
        # the package re-exports, modules that import functions by name,
        # dispatch tables, and callers outside the package.
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, obj in list(namespace.items()):
                if isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        hit = functions.get(id(value))
                        if hit is not None and hit[0] is value:
                            self._bind(obj, key, value, hit[1])
                hit = functions.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._bind(mod, attr, obj, hit[1])
        self._installed = True

    def _bind(self, target, key, original, replacement) -> None:
        """Replace an attribute, or a dict value if ``target`` is a dict."""
        if isinstance(target, dict):
            target[key] = replacement
        else:
            setattr(target, key, replacement)
        self._bindings.append((target, key, original))

    def restore(self) -> None:
        for target, key, original in reversed(self._bindings):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._bindings.clear()
        self._installed = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self_s, and bytes / distinct inputs where measured."""
        out = {}
        for name, _start, _end, _parent, _run, self_s in self.spans:
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self_s
        for name, keys in self.keys.items():
            out[name]["distinct"] = len(set(keys))
        for name, nbytes in self.bytes.items():
            out[name]["bytes"] = nbytes
        return out

    def dump(self, path: str) -> None:
        fields = ("name", "start", "end", "parent", "run", "self_s")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans,
                       "overhead_s": self.overhead_s}, fh)
