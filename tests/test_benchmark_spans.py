"""The benchmark's tracer can still find what it times.

``perfbench/tracer.py`` wraps, by name, the package functions that
``perfbench/run.py``'s ``PER_LAYER_SPANS`` lists, and ``cli.main``'s
dispatch through the values of ``cli._STAGES``.  A span whose name no longer
resolves reads 0 calls in a traced run with no error, and
``perfbench/tests`` stops at the first such span, so this checks every one.
"""

import inspect
import runpy
from importlib import import_module
from pathlib import Path

from diracsim import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# named by the span tables, but gone from the package long ago; tolerated,
# not required, so that the tables may drop them
STALE = {"weaksim.couple", "weaksim.readout_intensities", "weaksim.scan_with_records",
         "lattice.overlap_matrix"}


def _spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its sibling speed.py
    return [span for span, _ in runpy.run_path(str(PERFBENCH / "run.py"),
                                               run_name="perfbench_run")["PER_LAYER_SPANS"]]


def test_every_timed_span_names_a_function_of_its_module(monkeypatch):
    """``layer.function`` is a function defined in ``diracsim.layer``, and
    ``layer.Class.method`` a function of a class defined there: what the
    tracer wraps under that name."""
    missing = []
    for span in _spans(monkeypatch):
        if span in STALE:
            continue
        layer, *path = span.split(".")
        module = import_module(f"diracsim.{layer}")
        owner, obj = module, module
        for attr in path:
            owner, obj = obj, getattr(obj, attr, None)
        defined_in = getattr(owner if inspect.isclass(owner) else obj, "__module__", None)
        if not (callable(obj) and defined_in == module.__name__):
            missing.append(span)
    assert not missing


def test_the_stage_table_holds_every_handler_as_a_value():
    """The tracer rebinds the values of a module-level dict, not the members
    of a tuple, so each ``cmd_*`` handler is itself a value of ``_STAGES``."""
    handlers = {obj for name, obj in vars(cli).items()
                if name.startswith("cmd_") and inspect.isfunction(obj)}
    assert set(cli._STAGES.values()) == handlers
    assert len(cli._STAGES) == len(handlers)
