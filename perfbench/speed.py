"""Host speed probe: puts every timing on one reference speed.

The benchmark runs on a shared host whose speed drifts by up to a half in
phases lasting tens of seconds (other tenants of the machine), so the same
request can take 0.9 s in one minute and 1.6 s in the next.  A run is
shorter than a phase, so neither longer runs nor medians remove the drift.
A fixed pure-Python loop slows down in step with the program, so the client
runs it between requests (outside every timed region) and scales each
timing by the loop's registered time over its local time:

    adjusted = measured × PROBE_NOMINAL_S / median(probes near the timing)

where "near" means from ``PROBE_WINDOW_S`` before the timing began to
``PROBE_WINDOW_S`` after it ended.

The result reads in seconds on a host where the probe takes
``PROBE_NOMINAL_S`` — about the probe's time on a quiet 2-vCPU x86-64
container, so in a quiet phase adjusted and measured times agree.  The
probe is benchmark code: no change to the program can move it.
"""

from __future__ import annotations

import bisect
import statistics
import time

__all__ = ["SpeedProbe"]

#: iterations of the probe loop (about 1.2 ms on the reference container)
PROBE_LOOPS = 20_000
#: loops per probe, each one a sample
PROBE_REPEATS = 3
#: the probe's time on the reference container in a quiet phase
PROBE_NOMINAL_S = 0.0012
#: the client probes before a stream request once this long has passed
#: since the last probe
PROBE_INTERVAL_S = 0.2
#: a timing is scaled by the median of the probes this close to it
PROBE_WINDOW_S = 1.5


def _loop() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - started


class SpeedProbe:
    """Probe samples over a run and the speed factor they give."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        """Run the probe now."""
        moment = time.perf_counter()
        for _ in range(PROBE_REPEATS):
            self.times.append(moment)
            self.durations.append(_loop())

    def maybe_sample(self) -> None:
        """Run the probe if the last one is older than the interval."""
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_INTERVAL_S:
            self.sample()

    def factor(self, begin: float, end: float) -> float:
        """How much slower than the reference the host ran from begin to end."""
        low = bisect.bisect_left(self.times, begin - PROBE_WINDOW_S)
        high = bisect.bisect_right(self.times, end + PROBE_WINDOW_S)
        if low == high:  # no probe near: the nearest one before or after
            nearest = min(
                (i for i in (low - 1, low) if 0 <= i < len(self.times)),
                key=lambda i: min(abs(self.times[i] - begin), abs(self.times[i] - end)),
            )
            low, high = nearest, nearest + 1
        return statistics.median(self.durations[low:high]) / PROBE_NOMINAL_S

    def adjust(self, latency: float, started: float) -> float:
        """``latency`` (begun at ``started``) at the reference speed."""
        return latency / self.factor(started, started + latency)

    def overall(self) -> float:
        """The run's median speed factor."""
        return statistics.median(self.durations) / PROBE_NOMINAL_S
