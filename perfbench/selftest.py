"""Self-tests of the benchmark itself (not of cb_lab).

Run from the repository root:

    python3 perfbench/selftest.py

They take about half a minute: each runs the benchmark for a single pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run  # imports cb_lab from this checkout's src/
import tracing
import workloads

import cb_lab

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"
WORKLOAD = "conics_cover"


def bench(*extra) -> tuple[int, str, dict]:
    """Run the benchmark in-process for one pass; (exit code, stdout, last-line JSON)."""
    argv = ["--workload", WORKLOAD, "--seed", str(run.DEFAULT_SEED), "--seconds", "0.1", *extra]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    out = buf.getvalue()
    return code, out, json.loads(out.strip().splitlines()[-1])


def bindings() -> list:
    """(namespace, name, object) for every traced name wherever cb_lab binds it."""
    found = []
    for layer, targets in {**tracing.SPANNED, **tracing.COUNTED}.items():
        for target in targets:
            owner, attr, original = tracing.resolve(layer, target)
            if isinstance(owner, type):
                found.append((owner, attr, original))
            else:
                found += [(m, k, v) for m in tracing.lib_modules()
                          for k, v in vars(m).items() if v is original]
    return found


def unpatched(snapshot) -> bool:
    return all(vars(owner)[attr] is value for owner, attr, value in snapshot)


class SelfTest(unittest.TestCase):
    def test_one_changed_output_byte_refuses_to_report(self):
        self.assertIsNotNone(run.stored_digest(WORKLOAD, run.DEFAULT_SEED))
        original = cb_lab.projective.PointSet.to_json

        def tampered(self):
            obj = original(self)
            first = obj["points"][0]
            first[0] = str(int(first[0]) ^ 1)  # same digit count: exactly one byte
            return obj

        cb_lab.projective.PointSet.to_json = tampered
        try:
            code, out, result = bench("--trace", "0")
        finally:
            cb_lab.projective.PointSet.to_json = original
        self.assertEqual(code, 1)
        self.assertIs(result["correct"], False)
        self.assertEqual(result["metrics"], {})
        self.assertIn("output digest", out)

    def test_untraced_run_installs_no_wrapper(self):
        before = bindings()
        workload = workloads.WORKLOADS[WORKLOAD]
        plain_run = workload.run
        probes = []

        def probe(item):
            probes.append(unpatched(before))
            return plain_run(item)

        installs = []
        plain_install = tracing.Tracer.install
        tracing.Tracer.install = lambda self: installs.append(self)
        workload.run = probe
        try:
            code, _out, result = bench("--trace", "0")
        finally:
            workload.run = plain_run
            tracing.Tracer.install = plain_install
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(installs, [])
        self.assertTrue(probes and all(probes))
        self.assertTrue(unpatched(before))
        declared = json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
        self.assertEqual({m["name"]: m["unit"] for m in declared},
                         {k: v["unit"] for k, v in result["metrics"].items()})

    def test_layer_self_times_account_for_traced_wall_time(self):
        before = bindings()
        code, _out, result = bench("--trace", "1")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertTrue(unpatched(before))
        m = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(m[f"{layer}.self_s"] for layer in tracing.SPANNED)
        traced = m["trace.traced_s"]
        self.assertTrue(math.isclose(layers + m["trace.outside_s"], traced, rel_tol=1e-6))
        self.assertLess(m["trace.outside_s"], 0.01 * traced)
        declared = json.loads(BENCHMARK_JSON.read_text())["per_layer"]
        self.assertEqual({d["name"]: d["unit"] for d in declared},
                         {k: v["unit"] for k, v in result["metrics"].items()})

    def test_design_record_matches_the_benchmark(self):
        declared = json.loads(BENCHMARK_JSON.read_text())
        design = json.loads((run.HERE / "design.json").read_text())
        names = [w["name"] for w in declared["workloads"]]
        self.assertEqual(names, list(workloads.WORKLOADS))
        self.assertEqual(names, list(design["workloads"]))
        per_layer = {m["name"] for m in declared["per_layer"]}
        for layer in design["layers"]:
            for name in layer["metrics"]:
                self.assertTrue(name in per_layer or f"{name}.calls" in per_layer, name)
            for workload in layer["on"]:
                self.assertIn(workload, names)
        self.assertEqual(design["seeds"]["default"], run.DEFAULT_SEED)
        self.assertEqual(design["seeds"]["confirm"], run.CONFIRM_SEED)
        for seed in (run.DEFAULT_SEED, run.CONFIRM_SEED):
            for name in names:
                self.assertIsNotNone(run.stored_digest(name, seed), (name, seed))

    def test_refuses_to_run_without_the_library_sources(self):
        bare = run.OUT_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        try:
            shutil.copy(BENCHMARK_JSON, bare)
            for f in Path(__file__).parent.iterdir():
                if f.is_file():
                    shutil.copy(f, bare / "perfbench")
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOAD,
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("correct", done.stdout)


if __name__ == "__main__":
    unittest.main()
