"""Recompute digests.json: the expected output sha256 per workload and seed.

Run from the repository root, naming the workloads to record (all when
none are named):

    python3 perfbench/record_digests.py [workload ...]

A digest covers the canonical JSON of one pass over a seed's items.  The
benchmark refuses to report timings when a run's outputs differ from the
stored digest, so regenerate the table only on purpose, in a change that says
why the outputs were meant to change.  Outputs that fail a substitution check
are never recorded.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS

SEEDS = range(20)


def main(names) -> int:
    table = json.loads(run.DIGESTS.read_text())
    for name in names or WORKLOADS:
        workload = WORKLOADS[name]
        table[name] = {}
        for seed in SEEDS:
            bench = run.Run(workload, seed)
            bench.add_pass()
            problems = bench.problems(stored=None)
            if problems:
                print(f"{name} seed {seed}: {problems[:5]}", file=sys.stderr)
                return 1
            table[name][str(seed)] = bench.digests[0]
            print(f"{name} seed {seed}: {bench.digests[0]}", flush=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
