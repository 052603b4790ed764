"""The reference loop every reported time is normalized by.

The CPU a shared host gives the benchmark changes speed by up to a factor of
two within seconds, and the whole interpreter slows down with it.  Timing a
fixed piece of plain Python while the measured code runs, and reporting the
measured time in units of it, cancels that change:

    normalized seconds = seconds measured * REF_S / (time of one reference loop)

that is, seconds on a machine on which the reference loop takes REF_S.  The
loop shares the package's mix of operations (integer modular steps, float
trigonometry, a list sum) but none of its code, so a change to the package
cannot move it.
"""
from __future__ import annotations

import math
import signal
import time

REF_ITERS = 20000  # steps of one reference loop
REF_S = 0.008  # nominal seconds of one reference loop
PROBE_ITERS = 2000  # steps of one speed probe taken while the measured code runs
PROBE_INTERVAL_S = 0.025  # wall seconds between speed probes


def reference_loop(iters: int = REF_ITERS) -> float:
    x = 12345
    acc = []
    for _ in range(iters):
        x = (x * 1103515245 + 12345) % 2147483647
        acc.append(math.sin(x / 2147483647.0))
    return math.fsum(acc)


def timed_reference(iters: int = REF_ITERS) -> float:
    """Seconds a whole reference loop takes now, timed over `iters` steps."""
    start = time.perf_counter_ns()
    reference_loop(iters)
    return (time.perf_counter_ns() - start) / 1e9 * REF_ITERS / iters


def cpu_reference() -> float:
    """Thread-CPU seconds a whole reference loop takes now: the least of three short ones."""
    def once() -> float:
        start = time.thread_time_ns()
        reference_loop(2 * PROBE_ITERS)
        return (time.thread_time_ns() - start) / 1e9 * REF_ITERS / (2 * PROBE_ITERS)
    return min(once() for _ in range(3))


class SpeedProbe:
    """Samples the reference loop's speed while a block of code runs.

    Inside `with SpeedProbe() as probe:` an interval timer interrupts the
    block every PROBE_INTERVAL_S and runs a short reference loop in the
    signal handler, between two bytecodes of the interrupted code; one more
    probe runs just before the block and one just after it, so that a block
    shorter than the interval is sampled too.
    `normalize` takes the probes' own time out of a measured interval and
    scales the rest by the speed sampled during it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []  # seconds of a whole reference loop
        self.probes: list[tuple[int, int]] = []  # (start, end) ns of each probe in the block
        self._edge = 0.0
        self._previous = None

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        reference_loop(PROBE_ITERS)
        end = time.perf_counter_ns()
        self.probes.append((start, end))
        self.samples.append((end - start) / 1e9 * REF_ITERS / PROBE_ITERS)

    def __enter__(self) -> "SpeedProbe":
        self._edge = timed_reference(PROBE_ITERS)
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples += [self._edge, timed_reference(PROBE_ITERS)]

    def normalize(self, start_ns: int, end_ns: int) -> float:
        """Normalized seconds of the code run between two perf_counter_ns stamps."""
        probing = sum(min(e, end_ns) - max(s, start_ns) for s, e in self.probes
                      if s < end_ns and e > start_ns)
        return (end_ns - start_ns - probing) / 1e9 * REF_S * len(self.samples) / sum(self.samples)
