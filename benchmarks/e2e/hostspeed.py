"""The host's speed, probed beside everything that is timed.

The sandbox this benchmark runs on is a few cores of a shared host
that runs at two speeds: identical interpreter-bound work takes 15 to
30 % longer for minutes at a time, then goes back.  CPU time moves with
wall time (it is not steal), a longer run does not average it out, and
ten runs in a row see both states, so a raw median spreads by 12 to
19 %.  What does cancel it is a fixed piece of work timed right before
and right after each operation: over a 7-minute series of identical
``abdominal_phantom(32)`` meshes the median of latency ÷ probe spread
by 4 to 5 % between 16 s windows where the median latency spread by
14 %.

So the CPU-bound workloads report their times *at reference host
speed*: every timed interval is divided by the slowdown its two probes
saw.  The probe is outside the program under test and the same on
every commit, so a change to the program moves the reported number by
exactly the share it moves the real one.  The raw seconds and the
slowdown stay in the run record.
"""

from __future__ import annotations

import statistics
import time

#: one probe is this many timed loops of this many iterations (about
#: 13 ms each); it reads their median, so a loop that was descheduled
#: half-way does not pass for a slow host
LOOPS = 5
ITERATIONS = 200_000
#: what a probe reads on the host this was written on, in its fast
#: state; times are reported as if every probe read this
REFERENCE_S = 0.060


def probe() -> float:
    """Seconds the fixed work takes now."""
    loops = []
    for _ in range(LOOPS):
        t0 = time.perf_counter()
        s = 0
        for i in range(ITERATIONS):
            s += i * i % 7
        loops.append(time.perf_counter() - t0)
    return LOOPS * statistics.median(loops)


def slowdown(before: float, after: float) -> float:
    """How much slower than the reference the host ran across an
    interval bracketed by two probes."""
    return (before + after) / (2.0 * REFERENCE_S)
