"""Contention probe: host time normalized to a reference host speed.

On a shared host, co-tenants slow every instruction this process runs by
a varying amount: tens of percent, changing over seconds and minutes.
Raw host seconds of one workload then spread by 11-20% between runs,
too wide for a regression bound.  The probe runs a fixed arithmetic loop
of about two milliseconds every :data:`PERIOD` seconds from a
``SIGALRM`` handler -- in this thread, so no second thread competes with
the workload -- and records how long it took.  An interval's normalized
time is its host time, less the probes' own time, times
:data:`REFERENCE_S` over the mean probe time around the interval: host
seconds on a host where one probe takes exactly ``REFERENCE_S``.  Across
runs this spreads by 4-11%; probes that chase pointers through
cache-sized lists, look up dicts or allocate objects did no better.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

#: Seconds between probes.
PERIOD = 0.2
#: Loop trips per probe.
TRIPS = 30_000
#: Seconds one probe takes at the reference speed.
REFERENCE_S = 0.002
#: Probes this close to an interval also measure its speed, so that an
#: interval shorter than :data:`PERIOD` still has some.
WINDOW_S = 1.0


def _probe_loop() -> int:
    total = 0
    for i in range(TRIPS):
        total += i * i % 7
    return total


class Probe:
    """Periodic speed probe; :meth:`normalized` rescales an interval."""

    def __init__(self, period: float = PERIOD) -> None:
        self.period = period
        #: (start, seconds) of every probe, in time order.
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def _fire(self, _signum, _frame) -> None:
        start = time.perf_counter()
        _probe_loop()
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _between(self, start: float, end: float) -> List[float]:
        return [seconds for at, seconds in self.samples if start <= at < end]

    def net(self, start: float, end: float) -> float:
        """Host seconds in [start, end) not spent probing."""
        return end - start - sum(self._between(start, end))

    def normalized(self, start: float, end: float) -> float:
        """Host seconds in [start, end), net of probes, at reference speed."""
        nearby = self._between(start - WINDOW_S, end + WINDOW_S)
        if not nearby:
            return self.net(start, end)
        return self.net(start, end) * REFERENCE_S / statistics.mean(nearby)

    def mean_probe_s(self) -> float:
        durations = [seconds for _start, seconds in self.samples]
        return statistics.mean(durations) if durations else 0.0
