"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed for the same
work drifts — by ±25 % within a minute and by up to 2x between half hours —
independently of the program.  CPU time removes the scheduler's share (time
given to other processes); it does not remove a slower core.  So the run
interleaves short samples of one fixed pure-Python workload, :func:`sample`,
with the program's operations, and scales every time it reports by
``REFERENCE_NS / (median sample time nearby)``: a reported millisecond is a
millisecond of a machine on which one sample takes ``REFERENCE_NS`` of CPU
time.  The sample exercises what the program's hot paths do — dict and set
probes, tuple building, small function calls, a sort — over a table small
enough to stay in the fastest caches, and runs none of the program.  A
change to the program therefore moves the scaled figures as it moves the
raw ones, up to the program's own pull on the sample: between operations a
sample runs 0–8 % slower than alone, as the operations leave the caches
colder.
"""

from __future__ import annotations

import gc
import statistics
import time

# CPU time of one sample on the 2-core Xeon (2.1 GHz, CPython 3.11) the
# reference figures in README.md were taken on: the median over 3,000
# samples in a quiet phase, rounded.
REFERENCE_NS = 450_000

_KEYS = [(i, f"k{i:03d}") for i in range(256)]
_TABLE = {key: (key[0] * 7, key[1]) for key in _KEYS}
_PASSES = 4


def _pair(key: tuple[int, str], value: tuple[int, str]) -> tuple[int, str]:
    return (value[0] - key[0], key[1])


def _work(passes: int) -> int:
    total = 0
    for _ in range(passes):
        seen: set[tuple[int, str]] = set()
        for key in _KEYS:
            value = _TABLE.get(key)
            if value is not None and value[0] % 3:
                seen.add(_pair(key, value))
        total += len(sorted(seen, key=lambda pair: pair[1]))
    return total


def sample() -> int:
    """CPU nanoseconds (of this thread) of one run of the fixed workload.

    The collector is paused for the sample, so the program's heap (which a
    collection would traverse) cannot lengthen it, and an untimed first pass
    brings the sample's code and data back into the caches the program's
    operations evicted them from.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work(1)
        started = time.thread_time_ns()
        _work(_PASSES)
        return time.thread_time_ns() - started
    finally:
        if enabled:
            gc.enable()


def factor(samples: list[int]) -> float:
    """The scale from measured CPU time to reference time for ``samples``."""
    return REFERENCE_NS / statistics.median(samples)
