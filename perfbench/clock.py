"""Times at a reference machine speed.

The speed of a shared host drifts: a fixed pure-Python loop has been seen
to take 20% more or less time from one minute to the next, and
single-run medians of the workloads moved just as much.  So the benchmark
times this fixed loop right before every op, and once after the last one,
and reports each op's time as if the loop had taken REFERENCE_NS around
it.  The loop does the interpreter's bread-and-butter work (integer
arithmetic, bit operations, dict stores), like the library.  It never runs
while an op or a child process runs.  The record line of a run keeps the
unscaled wall-clock values too.
"""

from __future__ import annotations

from time import perf_counter_ns

REFERENCE_NS = 3_000_000


def loop_ns() -> int:
    """Wall time of the fixed reference loop, in ns."""
    start = perf_counter_ns()
    x = 0
    table = {}
    for i in range(15000):
        x ^= (i * 2654435761) & 0xFFFFFFFF
        table[i & 511] = x
    return perf_counter_ns() - start


def scale(before_ns: int, after_ns: int) -> float:
    """Factor that turns a time measured between two loops into reference time."""
    return 2 * REFERENCE_NS / (before_ns + after_ns)
