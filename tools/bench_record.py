"""Record the benchmark of the working tree next to that of a base commit.

Run from the repository root:

    python3 tools/bench_record.py --base <commit> --out BENCH_<n>.json

The base side is the base commit's ``src/`` (exported with ``git archive``
into a temporary directory) run by the working tree's ``perfbench/``, so both
sides run the same benchmark.  For every workload that ``BENCHMARK.json``
lists, at seeds 1 and 2, ``perfbench/run.py --trace 0`` runs ``PAIRS`` times
on each side for ``BENCHMARK.json``'s ``run_seconds``; within a pair the two
sides run back to back, and the side that goes first alternates from pair to
pair.  Then one ``--trace 1`` pass per side of every workload gives its
layer split.  The record holds every run's metrics, attempted and failed counts,
the per-metric medians and the number of pairs the working tree won, and for
each end-to-end metric the relative change of its median against its
``BENCHMARK.json`` bound.
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
SEEDS = (1, 2)
LOWER_IS_BETTER = {m["name"] for m in BENCHMARK["end_to_end"] if m["better"] == "lower"}
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
LAYER_SPLIT = ("linalg.reduce_against.calls", "linalg.dot.calls", "cover.candidate_flats.flats",
               "cover.candidate_flats.self_s", "cover.min_cover.self_s", "linalg.rref.self_s",
               "linalg.rank.self_s", "linalg.in_row_space.self_s", "projective.self_s",
               "forms.eval_matrix.self_s", "cb.is_cb.self_s", "generators.gen_rnc.self_s",
               "generators.gen_plane_curve_ci.self_s", "generators.gen_elliptic_quartic.self_s",
               "trace.traced_s")


def bench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run in checkout: attempted, failed and the metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1]) if lines else {"correct": False}
    if not out["correct"] or out["failed"]:
        raise SystemExit(f"bench_record: {workload} seed {seed} in {checkout} is not correct "
                         "or failed items:\n" + proc.stdout + proc.stderr)
    return {"attempted": out["attempted"], "failed": out["failed"],
            "metrics": {name: m["value"] for name, m in out["metrics"].items()}}


def summarise(base: list, change: list) -> dict:
    """Medians per metric and how many pairs the change won; for an
    end-to-end metric also the relative change of the median, its bound and
    whether the change's median is worse by no more than that bound."""
    summary = {}
    for name in base[0]["metrics"]:
        b = [run["metrics"][name] for run in base]
        c = [run["metrics"][name] for run in change]
        lower = name in LOWER_IS_BETTER
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
        row = summary[name] = {"base_median": statistics.median(b),
                               "change_median": statistics.median(c),
                               "change_wins": f"{wins}/{len(b)}"}
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
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS}"
                   " --trace T",
        "pairs": PAIRS,
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
                runs = {"base": [], "change": []}
                for i in range(PAIRS):
                    order = ("base", "change") if i % 2 == 0 else ("change", "base")
                    for side in order:
                        runs[side].append(bench(sides[side], workload, seed, 0))
                    print(f"{workload} seed {seed} pair {i + 1}: items_per_s "
                          f"{runs['base'][-1]['metrics']['items_per_s']:.4g} -> "
                          f"{runs['change'][-1]['metrics']['items_per_s']:.4g}", flush=True)
                record["trace0"].setdefault(workload, {})[str(seed)] = {
                    "summary": summarise(runs["base"], runs["change"]), **runs}
        record["trace1"] = {}
        for workload in WORKLOADS:
            layers = {side: bench(path, workload, SEEDS[0], 1) for side, path in sides.items()}
            record["trace1"][workload] = {
                "split": {name: {side: layers[side]["metrics"][name] for side in sides}
                          for name in LAYER_SPLIT},
                **layers,
            }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
