"""Machine-speed calibration for the end-to-end times.

On a shared machine the CPU switches between speed states, often within a
second: the same fixed pure-Python loop takes 0.5 ms in one moment and
0.9 ms in the next, and every wall time in the run moves by the same
factor.  So the benchmark times a fixed kernel next to the ops and reports
each time at reference speed:

    reference time = wall time * REF_KERNEL_S / kernel time around the op

The kernel is benchmark code and does not touch hermult, so it costs the
same on every commit; a change to hermult moves the reference times exactly
as it moves the wall times.  Raw wall times are kept beside them.

Starting an interpreter and importing modules does not follow the kernel:
it has slow phases of its own, seconds to minutes long, in which every cold
start takes up to twice as long while the kernel keeps its speed.  So the
time a fresh interpreter takes to start and import hermult is scaled the
same way by a reference start instead: a fresh interpreter that imports
numpy and a fixed set of stdlib modules (`start_time`).  This does not
import numpy into the benchmark's own processes, so numpy's import cost
still shows in hermult's set-up.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right

# Kernel time at which reference times equal wall times.
REF_KERNEL_S = 0.5e-3

# A new kernel sample is taken before an op once this much time has passed
# since the last one; speed states can change within a fraction of a second.
SAMPLE_EVERY_S = 0.02

KERNEL_ITERATIONS = 2500

# Reference start: what it imports, and its time at which scaled start-up
# times equal wall times.  hermult's own start is mostly numpy's import and
# pure-Python modules.  Across a slow phase (on a shared 2-vCPU Xeon VM) the
# ratio of hermult's start to this reference moved by 3%; to the stdlib
# modules alone it moved by 24%, and to numpy alone by 8%.
START_MODULES = (
    "numpy, argparse, asyncio, decimal, email.parser, fractions, http.client, "
    "json, random, statistics, unittest, xml.etree.ElementTree"
)
REF_START_S = 0.2


def kernel_time() -> float:
    """Seconds for a fixed loop of float arithmetic, tuple building and
    dict stores, with the garbage collector paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0.0
        table = {}
        for i in range(KERNEL_ITERATIONS):
            pair = (i * 0.5, i + 1)
            acc = acc * 0.999 + pair[0] * pair[1]
            table[pair[1] & 255] = acc
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def median_kernel_time() -> float:
    return sorted(kernel_time() for _ in range(3))[1]


def reference_scale(kernel_s: float) -> float:
    return REF_KERNEL_S / kernel_s


def start_time() -> float:
    """Seconds from spawning a fresh interpreter to the end of its import of
    START_MODULES.

    The child reads the clock itself, as worker.py does: the parent learns
    of its exit only by polling, in steps of up to 50 ms.
    """
    code = f"import sys, time; import {START_MODULES}; print(time.monotonic() - float(sys.argv[1]))"
    proc = subprocess.run(
        [sys.executable, "-c", code, repr(time.monotonic())],
        check=True, capture_output=True, text=True, timeout=60,
    )
    return float(proc.stdout)


def start_scale(start_s: float) -> float:
    return REF_START_S / start_s


class SpeedLog:
    """Kernel samples over a run, for scaling wall times to reference speed."""

    def __init__(self):
        self.times: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self) -> None:
        self.times.append(time.perf_counter())
        self.kernel_s.append(kernel_time())

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Reference scale for an interval: from the mean kernel time of the
        last sample taken before `start` and the first taken after `end`."""
        i = bisect_right(self.times, start) - 1
        j = bisect_left(self.times, end)
        around = [self.kernel_s[k] for k in (i, j) if 0 <= k < len(self.kernel_s)]
        if not around:
            raise ValueError("no kernel sample near the interval")
        return reference_scale(sum(around) / len(around))
