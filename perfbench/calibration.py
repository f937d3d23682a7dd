"""A fixed pure-Python kernel that measures the host's current speed.

On a shared virtual machine the speed of one core can change by nearly a
factor of two from one pass to the next (measured on a 2-vCPU host: the same
400 campaign_q items took from 4.6 s to 8.3 s, with CPU time tracking wall
time).  The benchmark runs this kernel between items and scales each item's
time by the kernel's time around it, so the reported times are at one fixed
reference speed.  The kernel uses no cb_lab code, so changes to the library
do not move it.
"""

from __future__ import annotations

from time import perf_counter

# Seconds one kernel call takes at the reference speed.
REFERENCE_S = 80e-6


def kernel() -> int:
    """Row-reduce a fixed 12 x 16 matrix over GF(101) with lists, tuples and a dict."""
    p = 101
    m = [[(i * 7 + j * 13 + i * j + 1) % p for j in range(16)] for i in range(12)]
    seen = {}
    pr = 0
    for c in range(16):
        piv = next((i for i in range(pr, 12) if m[i][c]), -1)
        if piv < 0:
            continue
        m[pr], m[piv] = m[piv], m[pr]
        inv = pow(m[pr][c], p - 2, p)
        row = [x * inv % p for x in m[pr]]
        m[pr] = row
        for i in range(12):
            if i != pr and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], row)]
        seen[tuple(row)] = pr
        pr += 1
        if pr == 12:
            break
    return len(seen)


def sample(at: list, dur: list, budget_s: float):
    """Run the kernel at least once and until budget_s has been spent; log each run."""
    spent = 0.0
    while True:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        at.append(t0)
        dur.append(t1 - t0)
        spent += t1 - t0
        if spent >= budget_s:
            return
