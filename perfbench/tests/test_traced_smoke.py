"""Small-lattice smoke test of the traced and untraced runs.

    python3 -m pytest perfbench/tests -q

Runs each workload traced at a small n and checks that every per-layer
metric fires on the workloads predicted to reach it and on no other, that
no weaksim span fires on exact_io_512 and no fileio span on
phase_space_lib, and that the library is unpatched afterwards.  Also checks
the speed probe's rescaling and one small untraced run.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402

SMALL = {
    "bench_scan": {"n": 32},
    "exact_io_512": {"n": 32},
    "phase_space_lib": {"n": 32, "n_small": 16},
}


def _bindings():
    """Every name bound in a diracsim module, class or module-level dict, by identity."""
    import diracsim.cli  # noqa: F401  (loads every layer module)

    snapshot = {}
    for name, mod in list(sys.modules.items()):
        if name != "diracsim" and not name.startswith("diracsim."):
            continue
        for attr, obj in vars(mod).items():
            snapshot[(name, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == name:
                for member, value in vars(obj).items():
                    snapshot[(name, attr, member)] = value
            elif isinstance(obj, dict) and not attr.startswith("__"):
                for key, value in obj.items():
                    snapshot[(name, attr, key)] = value
    return snapshot


@pytest.fixture(scope="module")
def traced():
    before = _bindings()
    runs = {w: run.run_workload(w, seed=5, seconds=1, trace=True, sizes=n)
            for w, n in SMALL.items()}
    return before, _bindings(), runs


def _span_names(traced_run):
    return {span[0] for span in traced_run["tracer"].spans}


def test_runs_are_correct_and_complete(traced):
    names = {f"{span}.{stat}" for span, stats in run.PER_LAYER_SPANS for stat in stats}
    names |= set(run.TRACE_METRICS)
    for workload, result in traced[2].items():
        res = result["result"]
        assert res["correct"] and res["failed"] == 0, (workload, result["notes"])
        assert set(res["metrics"]) == names


def test_each_layer_fires_exactly_where_predicted(traced):
    assert set(run.REACHES) == {span for span, _ in run.PER_LAYER_SPANS}
    for span, stats in run.PER_LAYER_SPANS:
        for workload, result in traced[2].items():
            metrics = result["result"]["metrics"]
            values = [metrics[f"{span}.{stat}"]["value"] for stat in stats]
            if workload in run.REACHES[span]:
                assert all(v > 0 for v in values), (span, workload, values)
            else:
                assert all(v == 0 for v in values), (span, workload, values)


def test_predicted_zeros(traced):
    runs = traced[2]
    assert not any(n.startswith("weaksim.") for n in _span_names(runs["exact_io_512"]))
    assert not any(n.startswith("fileio.") for n in _span_names(runs["phase_space_lib"]))


def test_scan_usefulness_separates_the_workloads(traced):
    runs = traced[2]
    ratio = {w: runs[w]["result"]["metrics"]["weaksim.scan_with_records.useful_ratio"]["value"]
             for w in ("bench_scan", "phase_space_lib")}
    assert ratio == {"bench_scan": 1 / run.BENCH_SCANS, "phase_space_lib": 1.0}


def test_names_imported_elsewhere_are_traced(traced):
    # weaksim binds dirac_distribution by name; bench_scan reaches it only
    # through the estimator calibration, so a span there proves the rebinding.
    assert "dirac.dirac_distribution" in _span_names(traced[2]["bench_scan"])


def test_library_is_restored(traced):
    before, after, _ = traced
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert not changed


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {f"{span}.{stat}": run.STAT_UNITS[stat]
                 for span, stats in run.PER_LAYER_SPANS for stat in stats}
    per_layer.update(run.TRACE_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert {w["name"] for w in spec["workloads"]} == set(run.SIZES)


def test_rescale_uses_the_probes_around_a_stage():
    import speed

    def sample(mid, slowdown):
        return mid, {part: slowdown * ref for part, ref in speed.REF_S.items()}

    probe = speed.SpeedProbe()
    # In the first window the CPU runs at half the reference speed, in the
    # second at a quarter, so a stage's reference time is a half, then a
    # quarter, of its CPU time, whichever parts it is rescaled by.
    probe.samples = [sample(t / 10, 2) for t in range(100)]
    probe.samples += [sample(50.0 + t / 10, 4) for t in range(100)]
    for parts in (speed.PARTS, ("text",), ("matmul", "faults")):
        assert probe.rescale(3.0, 2.0, 5.0, parts) == pytest.approx(1.5)
        assert probe.rescale(3.0, 52.0, 55.0, parts) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        probe.rescale(1.0, 20.0, 30.0)


def test_untraced_run_reports_the_end_to_end_metrics():
    res = run.run_workload("phase_space_lib", seed=5, seconds=0.5, trace=False,
                           sizes=SMALL["phase_space_lib"])["result"]
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())
