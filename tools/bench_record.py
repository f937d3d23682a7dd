"""Record the benchmark of the working tree next to that of a base commit.

Run from the repository root:

    python3 tools/bench_record.py --base <commit> --out BENCH_<n>.json

The base side is the base commit's ``src/`` (exported with ``git archive``
into a temporary directory) run by the working tree's ``perfbench/``, so both
sides run the same benchmark.  For every workload that ``BENCHMARK.json``
lists, at seeds 1 and 2, ``perfbench/run.py --trace 0`` runs ``PAIRS`` times
on each side for ``BENCHMARK.json``'s ``run_seconds``; within a pair the two
sides run back to back, and the side that goes first alternates from pair to
pair.  Then ``TRACE_PASSES`` ``--trace 1`` runs per side of every workload at
seed 1, of ``TRACE_SECONDS`` each and alternating in the same way, give its
layer split: the least value over those runs of each per-layer metric, since
one traced pass is too brief to time a layer on a shared host.  The record
holds every run's metrics, attempted and failed counts, the per-metric
medians, the base's interquartile distances and the number of pairs the
working tree won, and for each end-to-end metric the relative change of its
median against its ``BENCHMARK.json`` bound.
Nothing is written if any run reports ``correct: false`` or a failed item.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
SECONDS = BENCHMARK["run_seconds"]
PAIRS = 10
TRACE_PASSES = 11
# A traced run's untraced passes only warm the caches.  Short traced runs keep
# the two sides' traced passes close in time, so that a drift in host speed
# moves both alike.
TRACE_SECONDS = 1
SEEDS = (1, 2)
LOWER_IS_BETTER = {m["name"] for m in BENCHMARK["end_to_end"] if m["better"] == "lower"}
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
# cover.self_s sums the cover layer, whichever of its public functions the
# candidate growth is charged to.
LAYER_SPLIT = ("linalg.reduce_against.calls", "cover.exists_cover.self_s",
               "cover.min_cover.self_s", "cover.self_s", "linalg.rref.self_s",
               "linalg.rank.self_s", "linalg.in_row_space.self_s", "projective.self_s", "cb.is_cb.self_s",
               "matroid.is_mcb.self_s", "generators.gen_rnc.self_s",
               "generators.gen_plane_curve_ci.self_s", "generators.gen_elliptic_quartic.self_s",
               "trace.traced_s")


def bench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run in checkout: attempted, failed and the metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(TRACE_SECONDS if trace else SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1]) if lines else {"correct": False}
    if not out["correct"] or out["failed"]:
        raise SystemExit(f"bench_record: {workload} seed {seed} in {checkout} is not correct "
                         "or failed items:\n" + proc.stdout + proc.stderr)
    return {"attempted": out["attempted"], "failed": out["failed"],
            "metrics": {name: m["value"] for name, m in out["metrics"].items()}}


def alternating(sides: dict, workload: str, seed: int, trace: int, count: int) -> dict:
    """count runs per side, back to back in pairs whose first side alternates."""
    runs = {side: [] for side in sides}
    for i in range(count):
        for side in sides if i % 2 == 0 else reversed(sides):
            runs[side].append(bench(sides[side], workload, seed, trace))
    return runs


def layer_split(sides: dict, workload: str) -> dict:
    """TRACE_PASSES alternating traced runs per side at seed 1; per side, the
    least value of every per-layer metric over them, and the LAYER_SPLIT
    names side by side.  Other load on the host makes a run slower, never
    faster, so the least time is the one that resolves a layer."""
    runs = alternating(sides, workload, SEEDS[0], 1, TRACE_PASSES)
    least = {side: {name: min(run["metrics"][name] for run in side_runs)
                    for name in side_runs[0]["metrics"]}
             for side, side_runs in runs.items()}
    return {"split": {name: {side: least[side][name] for side in sides} for name in LAYER_SPLIT},
            "least": least, **runs}


def summarise(base: list, change: list) -> dict:
    """Medians per metric, how many pairs the change won and the distance
    between the base's quartiles; for an end-to-end metric also the relative
    change of the median, its bound and whether the change's median is worse
    by no more than that bound."""
    summary = {}
    for name in base[0]["metrics"]:
        b = [run["metrics"][name] for run in base]
        c = [run["metrics"][name] for run in change]
        lower = name in LOWER_IS_BETTER
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
        q1, _, q3 = statistics.quantiles(b, n=4)
        row = summary[name] = {"base_median": statistics.median(b),
                               "change_median": statistics.median(c),
                               "change_wins": f"{wins}/{len(b)}", "base_iqr": q3 - q1}
        if name in BOUNDS:
            rel = row["change_median"] / row["base_median"] - 1
            row.update(rel_change=rel, bound=BOUNDS[name],
                       within_bound=(rel if lower else -rel) <= BOUNDS[name])
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="commit to compare the working tree against")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    def git(*cmd):
        return subprocess.run(["git", *cmd], cwd=ROOT, check=True, capture_output=True,
                              text=True).stdout.strip()

    base_sha = git("rev-parse", args.base)
    record = {
        "base": f"src/ of {base_sha}, run by the working tree's perfbench/",
        "change": f"working tree on {git('rev-parse', 'HEAD')}",
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0;"
                   f" --seconds {TRACE_SECONDS} --trace 1 for the layer split",
        "pairs": PAIRS,
        "trace_passes": TRACE_PASSES,
        "trace0": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = Path(tmp)
        archive = subprocess.run(["git", "archive", base_sha, "src"], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base_dir)], input=archive, check=True)
        shutil.copytree(ROOT / "perfbench", base_dir / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        sides = {"base": base_dir, "change": ROOT}
        for workload in WORKLOADS:
            for seed in SEEDS:
                runs = alternating(sides, workload, seed, 0, PAIRS)
                rates = (f"{b['metrics']['items_per_s']:.4g} -> {c['metrics']['items_per_s']:.4g}"
                         for b, c in zip(runs["base"], runs["change"]))
                print(f"{workload} seed {seed} items_per_s: {', '.join(rates)}", flush=True)
                record["trace0"].setdefault(workload, {})[str(seed)] = {
                    "summary": summarise(runs["base"], runs["change"]), **runs}
        record["trace1"] = {workload: layer_split(sides, workload) for workload in WORKLOADS}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
