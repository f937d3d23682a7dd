"""The benchmark recorder's run order and layer split, with a stub in place of
perfbench (no benchmark is run)."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def test_layer_split_names_are_declared_per_layer_metrics():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench_record.LAYER_SPLIT) <= {m["name"] for m in benchmark["per_layer"]}


def test_layer_split_is_the_least_of_alternating_traced_runs(monkeypatch):
    calls = []

    def bench(checkout, workload, seed, trace):
        calls.append((checkout, workload, seed, trace))
        return {"attempted": 1, "failed": 0,
                "metrics": {name: len(calls) for name in bench_record.LAYER_SPLIT}}

    monkeypatch.setattr(bench_record, "bench", bench)
    monkeypatch.setattr(bench_record, "TRACE_PASSES", 5)
    out = bench_record.layer_split({"base": "b", "change": "c"}, "w")
    assert [c[0] for c in calls] == ["b", "c", "c", "b", "b", "c", "c", "b", "b", "c"]
    assert {c[1:] for c in calls} == {("w", 1, 1)}
    # the base read 1, 4, 5, 8, 9 and the change 2, 3, 6, 7, 10
    assert out["split"]["trace.traced_s"] == {"base": 1, "change": 2}
    assert out["least"]["change"]["cb.is_cb.self_s"] == 2
    assert len(out["base"]) == len(out["change"]) == 5
