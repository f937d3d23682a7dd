"""The cb-lab benchmark: seeded workloads, end-to-end metrics and a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload conics_cover --seed 1 --seconds 20 --trace 0

Items run in one process and one thread, closed loop: the next item starts
when the previous one returns.  A run makes the workload's items from
``--seed`` and times passes over all of them until ``--seconds`` have been
spent.  Set-up time is measured in fresh processes.

Times are reported at a fixed reference host speed.  Between items the run
spends a tenth of the item time on the calibration kernel (see
``calibration.py``); an item's time is scaled by the reference kernel time
over the mean kernel time measured around it.  The unscaled figures are
printed alongside.  When a run makes more than one pass, the first only
warms the library's caches and is left out of the item times.

Outputs are checked outside the timed region: every pass must give the same
canonical bytes, those bytes must match the sha256 stored in ``digests.json``
for the seed (when one is stored), every CB-false witness must pass
substitution, every found cover must pass ``verify_cover``, and every cover a
campaign record claims is found again from its GenSpec and verified.  On any
mismatch the run reports no timing and exits 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` adds one traced
pass after the untraced ones and reports the per-layer metrics of that pass
(unscaled seconds) with the tracing overhead; its spans are written to
``.bench_out/spans-<workload>.bin``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from itertools import accumulate
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 1
CONFIRM_SEED = 2
SETUP_RUNS = 15
P90_MIN_ITEMS = 100
# Kernel time as a share of item time, run in bursts of at least
# CAL_BURST_S so that short items still run back to back.
CAL_SHARE = 0.1
CAL_BURST_S = 0.001
# Kernel runs within this many seconds (or the item's own duration, if
# longer) of an item's midpoint set the host speed for that item.
CAL_WINDOW_S = 0.5


def _import_library():
    """Import cb_lab from this checkout's src/, never from anywhere else."""
    if not (SRC / "cb_lab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cb_lab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cb_lab

    if Path(cb_lab.__file__).resolve().parent != (SRC / "cb_lab").resolve():
        raise SystemExit(f"perfbench: imported cb_lab from {cb_lab.__file__}, not {SRC}")


_import_library()

from cb_lab.errors import CbLabError  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Failed, canonical_bytes, digest  # noqa: E402

# A fresh interpreter imports cb_lab and runs one fixed call that is not a
# workload item.  It prints the seconds from before the import to the answer
# and the median calibration kernel time just before and just after them.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[2])
import calibration, statistics
at, kernel_s = [], []
calibration.sample(at, kernel_s, 0.01)
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cb_lab
gamma = cb_lab.gen_rnc(2, 7, cb_lab.FieldSpec.prime(101), 0)
ok = cb_lab.is_cb(gamma, 2).verdict
cover = cb_lab.min_cover(gamma)
elapsed = time.perf_counter() - t0
if not (ok and (cover.dim, cover.length) == (2, 1)):
    sys.exit("warm-up call gave an unexpected answer")
calibration.sample(at, kernel_s, 0.01)
print(repr(elapsed), repr(statistics.median(kernel_s)))
"""


def measure_setup() -> tuple[float, float]:
    """Median set-up time over fresh processes, (scaled, unscaled).

    One unmeasured process first fills the bytecode cache, which users pay
    only once.
    """
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(HERE)]
    scaled, raw = [], []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        elapsed, kernel_s = map(float, done.stdout.split())
        if i:
            raw.append(elapsed)
            scaled.append(elapsed * calibration.REFERENCE_S / kernel_s)
    return statistics.median(scaled), statistics.median(raw)


def scale_to_reference(starts, times, cal_at, cal_dur) -> list:
    """Item times at the reference speed, from the kernel runs around each item."""
    prefix = list(accumulate(cal_dur, initial=0.0))
    scaled = []
    for start, t in zip(starts, times):
        mid = start + t / 2
        half = max(CAL_WINDOW_S, t)
        # Bursts are at most CAL_BURST_S / CAL_SHARE of item time apart and
        # one ends the pass, so the window is never empty.
        lo = bisect_left(cal_at, mid - half)
        hi = bisect_right(cal_at, mid + half)
        local = (prefix[hi] - prefix[lo]) / (hi - lo)
        scaled.append(t * calibration.REFERENCE_S / local)
    return scaled


def timed_pass(workload, items, tracer=None):
    """One closed-loop pass; returns (unscaled item seconds, scaled item seconds, outputs)."""
    run = workload.run
    clock = time.perf_counter
    starts, times, outputs = [], [], []
    cal_at, cal_dur = [], []
    owed = 0.0
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        t0 = clock()
        try:
            out = run(item)
        except CbLabError as err:
            out = Failed(err)
        t = clock() - t0
        starts.append(t0)
        times.append(t)
        outputs.append(out)
        owed += CAL_SHARE * t
        if owed >= CAL_BURST_S:
            calibration.sample(cal_at, cal_dur, owed)
            owed = 0.0
    calibration.sample(cal_at, cal_dur, owed)
    return times, scale_to_reference(starts, times, cal_at, cal_dur), outputs


def is_failed(workload, out) -> bool:
    return isinstance(out, Failed) or workload.failed(out)


def item_medians(passes) -> list:
    """Each item's median time over the passes, leaving out the first when
    later ones exist: it fills the library's caches (building the plane-curve
    evaluation tables alone takes about half a second on campaign_gf101)."""
    timed = passes[1:] if len(passes) > 1 else passes
    return [statistics.median(col) for col in zip(*timed)]


class Run:
    """The passes of one benchmark run and what was found checking them.

    The first pass's outputs are checked as soon as it ends, outside the
    timed region; no pass's outputs outlive it, so peak memory does not
    depend on how many passes fit in the run.
    """

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.items = workload.items(seed)
        self.raw = []
        self.scaled = []
        self.digests = []
        self.check_problems = []
        self.completed = 0
        self.attempted = 0
        self.failed = 0

    def add_pass(self, tracer=None):
        raw, scaled, outputs = timed_pass(self.workload, self.items, tracer)
        self.raw.append(raw)
        self.scaled.append(scaled)
        self.digests.append(digest(canonical_bytes(self.workload, outputs)))
        failed = sum(1 for out in outputs if is_failed(self.workload, out))
        if len(self.digests) == 1:
            self.completed = len(outputs) - failed
            self.check_problems = [
                f"item {i}: {p}"
                for i, out in enumerate(outputs) if not isinstance(out, Failed)
                for p in self.workload.check(out)
            ]
        self.attempted += len(outputs)
        self.failed += failed

    def measure(self, seconds: float):
        """Untraced passes until the next one would likely end more than half a pass late."""
        start = time.perf_counter()
        while True:
            self.add_pass()
            elapsed = time.perf_counter() - start
            if elapsed * (1 + 0.5 / len(self.raw)) >= seconds:
                return

    def problems(self, stored: str | None) -> list:
        """Every output check that failed (empty when all outputs are correct)."""
        found = []
        if len(set(self.digests)) != 1:
            found.append(f"passes gave different outputs: {self.digests}")
        if stored is not None and self.digests[0] != stored:
            found.append(f"output digest {self.digests[0]} != stored {stored}")
        return found + self.check_problems


def stored_digest(workload: str, seed: int) -> str | None:
    table = json.loads(DIGESTS.read_text())
    return table.get(workload, {}).get(str(seed))


def report(correct: bool, attempted: int, failed: int, metrics: dict):
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def print_metric(name: str, value, unit: str, note: str = ""):
    print(f"  {name:<34} {value:>13.6g} {unit:<6} {note}".rstrip())


def end_to_end(run: Run, setup: tuple[float, float]) -> dict:
    """Print every end-to-end figure; return the gated metrics for the JSON line.

    Each item's time is its median over the run's passes.  The gated latency
    is the geometric mean of those times, not their median: on campaign_gf101
    the median falls in the gap between the cheap d = 1 cells and the d = 2
    cells, so over five seeds item_p50_ms spread by 0.16 of its median
    (interquartile range) where the geometric mean spread by about 0.03.
    """
    n = len(run.items)
    completed = run.completed
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    figures = {}
    for kind, passes in (("scaled", run.scaled), ("unscaled", run.raw)):
        per_item = item_medians(passes)
        figures[kind] = {
            "items_per_s": completed / sum(per_item),
            "item_gmean_ms": statistics.geometric_mean(per_item) * 1e3,
            "item_p50_ms": statistics.median(per_item) * 1e3,
        }
        if n >= P90_MIN_ITEMS:
            figures[kind]["item_p90_ms"] = statistics.quantiles(per_item, n=10)[-1] * 1e3
    scaled, unscaled = figures["scaled"], figures["unscaled"]
    metrics = {
        "setup_s": (setup[0], "s"),
        "items_per_s": (scaled["items_per_s"], "1/s"),
        "item_gmean_ms": (scaled["item_gmean_ms"], "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print_metric("setup_s", setup[0], "s", f"unscaled {setup[1]:.6g}")
    for name, value in scaled.items():
        unit = "1/s" if name == "items_per_s" else "ms"
        print_metric(name, value, unit, f"unscaled {unscaled[name]:.6g}, over {n} items")
    if n < P90_MIN_ITEMS:
        print(f"  item_p90_ms: not defined for {n} items (needs {P90_MIN_ITEMS})")
    print_metric("failed_frac", run.failed / run.attempted, "ratio",
                 f"{run.failed}/{run.attempted}")
    print_metric("peak_rss_mb", rss_mb, "MB")
    return metrics


def per_layer(run: Run, tracer: tracing.Tracer) -> dict:
    """Print the layer split of the traced pass; return the metrics for the JSON line."""
    values = tracer.metrics()
    traced_s = sum(run.raw[-1])
    values["trace.traced_s"] = traced_s
    values["trace.outside_s"] = traced_s - tracer.spanned_s
    # Host speed changes between passes, so the overhead compares scaled passes.
    untraced_s = sum(item_medians(run.scaled[:-1]))
    values["trace.overhead_s"] = sum(run.scaled[-1]) - untraced_s
    for layer in tracing.SPANNED:
        share = values[f"{layer}.self_s"] / traced_s
        print_metric(f"{layer}.self_s", values[f"{layer}.self_s"], "s", f"{share:6.1%} of traced pass")
    print_metric("trace.outside_s", values["trace.outside_s"], "s", "outside any wrapped call")
    print_metric("trace.overhead_s", values["trace.overhead_s"], "s",
                 f"{values['trace.overhead_s'] / untraced_s:+.1%} over the untraced median pass, scaled")
    return {name: (values[name], unit) for name, unit in tracing.metric_units().items()}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; confirm claims on {CONFIRM_SEED})")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    setup = measure_setup() if not args.trace else None

    run = Run(workload, args.seed)
    run.measure(args.seconds)
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run.add_pass(tracer)
        finally:
            tracer.uninstall()

    print(f"{workload.name} seed {args.seed}: {len(run.raw)} passes x {len(run.items)} items, "
          f"{run.attempted} attempted, {run.failed} failed")
    print("  pass item seconds (unscaled): " + " ".join(f"{sum(p):.3f}" for p in run.raw))
    stored = stored_digest(workload.name, args.seed)
    if stored is None:
        print(f"  no stored digest for seed {args.seed}: outputs checked by substitution "
              "and pass-to-pass equality only")
    problems = run.problems(stored)
    if problems:
        print("OUTPUT CHECK FAILED; no timing is reported")
        for p in problems[:20]:
            print(f"  {p}")
        report(False, run.attempted, run.failed, {})
        return 1

    if args.trace:
        metrics = per_layer(run, tracer)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload.name}.bin")
    else:
        metrics = end_to_end(run, setup)
    report(True, run.attempted, run.failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
