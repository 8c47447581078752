"""Host-speed normalization of the end-to-end times.

The benchmark host is shared: on a 2-core VM, neighbours slow every piece of
code by up to ~50 % for minutes at a time, which no statistic taken within
one run can filter out. So a fixed pure-Python reference kernel (no code of
the program under test, so no change to the program can move it) is timed
twice right before every task and around every set-up, and each time is
scaled by ``NOMINAL_S / local median of the reference``. A normalized
second is a second on a host where the reference kernel takes
``NOMINAL_S``. Measured
on the 2-core host over three minutes, this cut the spread (IQR / median)
of three-pass profiling runs from 26 % raw to 7 %, and the range of
analysis-task blocks from ±20 % to ±5 %. Raw wall times are printed
alongside.
"""

from __future__ import annotations

import statistics
import time

#: Reference-kernel time that defines a normalized second (about the
#: kernel's uncontended time on the 2-core Xeon host the baseline ran on).
NOMINAL_S = 0.0012

#: Reference times taken right before each task.
SAMPLES = 2

#: Tasks on each side whose reference times set a task's local host speed.
#: Host speed changes within seconds, so the window stays narrow.
WINDOW = 2


def _kernel():
    total = 0
    table = {}
    for i in range(12_000):
        total += i * i % 7
        table[i & 255] = total
    return total


def reference_s():
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def sample():
    """The reference times taken before one task."""
    return [reference_s() for _ in range(SAMPLES)]


def scale(refs):
    return NOMINAL_S / statistics.median(refs)


def bracket(action, samples=5):
    """Run ``action()``; returns ``(raw seconds, normalized seconds)``, the
    host speed taken from reference runs right before and after it."""
    refs = [reference_s() for _ in range(samples)]
    start = time.perf_counter()
    action()
    elapsed = time.perf_counter() - start
    refs += [reference_s() for _ in range(samples)]
    return elapsed, elapsed * scale(refs)


def normalize(times, samples):
    """Scale ``times[i]`` by the host speed of the reference samples taken
    before tasks ``i - WINDOW`` to ``i + WINDOW``."""
    normalized = []
    for i, value in enumerate(times):
        window = samples[max(0, i - WINDOW):i + WINDOW + 1]
        normalized.append(value * scale([ref for task in window
                                         for ref in task]))
    return normalized
