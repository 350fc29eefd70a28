"""Timing that corrects for the core's changing speed.

On a shared virtual machine one core can run the same Python code at two
very different speeds, switching every few tens of milliseconds, and the
share of slow time drifts by a third from one minute to the next.  Plain
wall times then move more between runs than a worthwhile optimisation does.

``SpeedProbe`` runs a small fixed pure-Python kernel from a timer signal
every ``PERIOD_S`` and records how long it took.  An interval's time is then
reported *at reference speed*: its wall time, less the probe's own samples
inside it, scaled by ``REFERENCE_KERNEL_S`` over the mean kernel time sampled
during the interval and up to ``MARGIN_S`` either side of it; the speed holds
for tens of milliseconds at a time, so the margin lends short ops more
samples.  Samples longer than ``OUTLIER_FACTOR`` times the run's median, when
the virtual CPU was descheduled outright, are clipped so that one of them
cannot stand for a whole op.  The kernel never touches the library, so a
faster library still shows as a shorter time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.01
MARGIN_S = 0.02
# Kernel time on an uncontended core of the machine the benchmark was first
# tuned on (2 vCPU virtual machine, CPython 3.11).  Only a scale: it makes
# normalised times read roughly as wall times on that core.
REFERENCE_KERNEL_S = 0.00017
OUTLIER_FACTOR = 3


_TABLE = dict.fromkeys(range(256), 0)


def kernel() -> int:
    """Integer and dictionary work, like the library's inner loops.

    It creates no container object, so it can never set off a garbage
    collection of the library's heap and take that time as its own.
    """
    table = _TABLE
    acc = 0
    for i in range(1200):
        j = (i * 7) & 255
        table[j] = (table[i & 255] + i) & 1023
        acc += table[j]
    return acc


class SpeedProbe:
    """Samples the kernel's time on a timer while the ``with`` block runs."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.costs: list[float] = []
        self._clipped: list[float] = []
        self._previous_handler = None

    def _sample(self, signum=None, frame=None) -> None:
        began = time.perf_counter()
        kernel()
        self.starts.append(began)
        self.costs.append(time.perf_counter() - began)

    def __enter__(self) -> "SpeedProbe":
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._sample()
        limit = OUTLIER_FACTOR * statistics.median(self.costs)
        self._clipped = [min(cost, limit) for cost in self.costs]

    def normalized(self, start: float, end: float) -> float:
        """Seconds the interval would take at reference speed, probe excluded.

        Valid once the ``with`` block has ended.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        spent = sum(self.costs[lo:hi])
        # widened by the margin, and never to fewer than the nearest sample
        lo = min(bisect.bisect_left(self.starts, start - MARGIN_S), len(self.starts) - 1)
        hi = max(bisect.bisect_left(self.starts, end + MARGIN_S), lo + 1)
        around = self._clipped[lo:hi]
        speed = sum(around) / len(around)
        return (end - start - spent) * REFERENCE_KERNEL_S / speed
