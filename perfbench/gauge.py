"""A fixed pure-Python kernel that gauges how fast the machine runs right now.

The development machine is a few cores of a shared host, and its speed
drifts by half over minutes: the same command takes 0.9 s in one run and
1.4 s in a run a few minutes later.  CPU time drifts with wall time, so
the slowdown is in the hardware, not in the scheduler.  The benchmark
therefore times this kernel right before and right after every timed
command, and reports each time scaled to the speed at which the kernel
takes REFERENCE_S:

    reported = measured * REFERENCE_S / kernel time around the command

A change to avgexp moves the reported time by the same factor as the
measured one; a change in the machine's speed moves the kernel too and
cancels.  The kernel is what the program mostly does: affine additions
on an elliptic curve over F_p with Python ints.  It does not import
avgexp, so no change to the program can move it.
"""

import time
from statistics import median

REFERENCE_S = 0.008  # about the kernel's time on the 2-core development machine
REPEATS = 5  # kernel runs per gauge; their median is the gauge

# y^2 = x^3 + x + 1 over F_P, from G = (0, 1).
P = 1_000_003
G = (0, 1)
TWO_G = (250001, 375000)
ADDS = 7000


def _kernel() -> int:
    """ADDS affine additions of G; returns the final x so none is dead code."""
    gx, gy = G
    x, y = TWO_G
    for _ in range(ADDS):
        if x == gx:  # P = G or P = -G: start again from 2G
            x, y = TWO_G
            continue
        lam = (gy - y) * pow(gx - x, -1, P) % P
        nx = (lam * lam - x - gx) % P
        y = (lam * (x - nx) - y) % P
        x = nx
    return x


def gauge() -> tuple:
    """(wall seconds, CPU seconds): medians over REPEATS runs of the kernel."""
    walls, cpus = [], []
    for _ in range(REPEATS):
        t0, c0 = time.perf_counter(), time.process_time()
        _kernel()
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
    return median(walls), median(cpus)


def scaled(seconds: float, before: float, after: float) -> float:
    """seconds at the reference speed, given the gauges taken around them."""
    return seconds * REFERENCE_S * 2 / (before + after)
