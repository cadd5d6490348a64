"""A reference kernel sampled beside every measurement.

The 2-core VM this benchmark runs on does not have a constant speed: over
minutes it drifts by up to 2x, over seconds by 20 %, as neighbours on the
host come and go, and wall *and* CPU time stretch together.  Ten plain
runs of one workload spread by 20-35 % (quartile distance over median),
which is wider than any bound a regression check could use.

So every child runs a side thread that, every 50 ms, times one fixed piece
of interpreter work (about 1 ms).  The mean of those timings over an
interval, divided by the kernel's nominal time, is how much slower than
nominal the machine ran during exactly that interval; measured times are
divided by it.  With the correction the same ten runs spread by 3-7 %.

The kernel is pure Python, so it holds the GIL from start to end (it is far
shorter than the 5 ms switch interval) and its timing cannot be stretched
by the measured thread; it uses no repo code, so a change to the program
cannot move it.  Single-process workloads are pinned to one CPU so that the
kernel sees the core the work runs on.  Its cost, about 2 % of the measured
thread's time, is the same on every commit.
"""

from __future__ import annotations

import os
import threading
from time import perf_counter

#: Seconds between samples.
PERIOD_S = 0.05

#: What the kernel takes on the reference box (2-core 2.1 GHz Xeon VM,
#: CPython 3.11) in its fast phases.  Only fixes the scale of corrected
#: numbers: it cancels out of every comparison made on one machine.
NOMINAL_S = 1.0e-3


def kernel() -> int:
    """About 1 ms of typical interpreter work: a C-level loop over small
    ints, then bytecode doing dict stores, lookups and arithmetic."""
    acc = 0
    for _ in range(2):
        acc += sum(range(20000))
        table: dict[int, int] = {}
        for i in range(1500):
            table[i & 255] = acc
            acc += table.get(i & 127, 0) ^ i
    return acc


def pin_to_one_cpu() -> int:
    """Pin this process to the highest CPU it may use; returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class MachineSpeed(threading.Thread):
    """Samples the kernel every ``PERIOD_S`` until :meth:`stop`."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        #: ``(when, kernel seconds)`` per sample.
        self.samples: list[tuple[float, float]] = []
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(PERIOD_S):
            start = perf_counter()
            kernel()
            self.samples.append((start, perf_counter() - start))

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel time over ``[start, end]`` relative to nominal (1.0
        when the interval is too short to hold a sample)."""
        taken = [seconds for when, seconds in self.samples if start <= when <= end]
        if not taken:
            return 1.0
        return sum(taken) / len(taken) / NOMINAL_S
