"""Steal-aware selection and correction of the benchmark's samples.

On a shared virtual host the hypervisor hands CPU time to other guests,
in short bursts and in spells that last from seconds to many minutes: a
run measured during one reads up to a third slower with no change to
the program.  :class:`StealMeter` samples the guest's CPU steal counter
(``/proc/stat``) in a background thread, so the steal share of any
stretch of the run is known afterwards.  :meth:`StealMeter.calm` keeps
the stretches a burst did not hit: every one whose steal share is at
most the median share, or at most ``CALM_STEAL`` when the host was quiet
throughout.  A long spell leaves no calm stretch, so every time the
benchmark reports is also scaled by :meth:`StealMeter.kept`, the share
of the stretch's CPU time the hypervisor left to this guest: the time
the work would have taken with nothing stolen.  On a quiet host every
sample is kept and the scale is 1.

Times are ``time.perf_counter()`` values: the system-wide monotonic
clock on Linux, so a child process's timestamps compare with ours.
"""

from __future__ import annotations

import bisect
import threading
import time
from statistics import median
from typing import List, Sequence, Tuple

#: Steal share below which a stretch counts as calm whatever the rest.
CALM_STEAL = 0.02
#: Seconds between two readings of the steal counter.
PERIOD_S = 0.1


def cpu_ticks() -> List[int]:
    """The host's CPU time counters (``/proc/stat``; empty if absent)."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of the CPU time the guest's busy CPUs wanted that the
    hypervisor gave to other guests, between two :func:`cpu_ticks`
    readings.  Idle time does not count: an idle CPU loses nothing."""
    if len(before) < 8 or len(after) < 8:
        return 0.0
    # user nice system idle iowait irq softirq steal
    delta = [b - a for a, b in zip(before[:8], after[:8])]
    wanted = sum(delta) - delta[3] - delta[4]
    return delta[7] / wanted if wanted > 0 else 0.0


class StealMeter:
    """Readings of the steal counter every ``PERIOD_S`` while running."""

    def __init__(self) -> None:
        self._times: List[float] = []
        self._ticks: List[List[int]] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _read(self) -> None:
        ticks = cpu_ticks()
        if ticks:
            with self._lock:
                self._times.append(time.perf_counter())
                self._ticks.append(ticks)

    def _readings(self) -> Tuple[List[float], List[List[int]]]:
        with self._lock:
            return list(self._times), list(self._ticks)

    def _sample(self) -> None:
        self._read()
        while not self._stop.wait(PERIOD_S):
            self._read()

    def __enter__(self) -> "StealMeter":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._read()

    def share(self, t0: float, t1: float) -> float:
        """Steal share over ``[t0, t1]``, widened to the readings around
        it (0 when there are none)."""
        times, ticks = self._readings()
        if len(times) < 2:
            return 0.0
        lo = max(0, bisect.bisect_right(times, t0) - 1)
        hi = min(len(times) - 1, max(lo + 1, bisect.bisect_left(times, t1)))
        return steal_share(ticks[lo], ticks[hi])

    def kept(self, t0: float, t1: float) -> float:
        """Share of ``[t0, t1]``'s CPU time left to this guest."""
        return 1.0 - self.share(t0, t1)

    def calm(self, spans: Sequence[Tuple[float, float]]) -> List[int]:
        """Indices of the ``(start, end)`` spans a steal spell spared."""
        shares = [self.share(a, b) for a, b in spans]
        if not shares:
            return []
        limit = max(CALM_STEAL, median(shares))
        return [i for i, s in enumerate(shares) if s <= limit]

    def whole(self) -> float:
        """Steal share over everything measured so far."""
        _, ticks = self._readings()
        return steal_share(ticks[0], ticks[-1]) if len(ticks) > 1 else 0.0
