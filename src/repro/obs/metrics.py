"""Metrics registry: counters, gauges, and summarizing histograms.

Unlike the tracer, metrics are *always on* — a counter increment is an
integer add under a lock, cheap enough for every instrumented site —
and the registry's :meth:`~MetricsRegistry.snapshot` is folded into
``manifest.json`` by the runtime scheduler, so every archived run
carries its own instrumentation for free.

Naming convention: dotted lowercase paths, ``<layer>.<subject>.<what>``
(e.g. ``runtime.cache.result.hits``, ``bench.samples``).  The full
glossary lives in ``docs/OBSERVABILITY.md``; tests assert the names
used by the instrumentation stay documented there.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, List, Optional


def _percentile(sorted_values: List[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending list (q in [0, 1])."""
    if not sorted_values:
        return math.nan
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


class Counter:
    """Monotonically increasing count of events."""

    def __init__(self, name: str, unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def summary(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value,
                **({"unit": self.unit} if self.unit else {})}


class Gauge:
    """Last-written value (e.g. configured worker count)."""

    def __init__(self, name: str, unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self._lock = threading.Lock()
        self._value: Optional[float] = None

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> Optional[float]:
        with self._lock:
            return self._value

    def summary(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value,
                **({"unit": self.unit} if self.unit else {})}


class Histogram:
    """Distribution of observations, summarized as count/sum/p50/p95/max.

    Observations are kept verbatim up to ``max_samples`` (default 65536,
    far above anything a single run records); beyond that the histogram
    keeps every 2nd/4th/... observation so the summary stays bounded
    without losing the count or sum.
    """

    def __init__(self, name: str, unit: str = "",
                 max_samples: int = 65536) -> None:
        self.name = name
        self.unit = unit
        self.max_samples = max_samples
        self._lock = threading.Lock()
        self._samples: List[float] = []
        self._stride = 1
        self._seen = 0
        self._sum = 0.0
        self._max = -math.inf
        self._min = math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._seen += 1
            self._sum += value
            if value > self._max:
                self._max = value
            if value < self._min:
                self._min = value
            if (self._seen - 1) % self._stride == 0:
                self._samples.append(value)
                if len(self._samples) > self.max_samples:
                    self._samples = self._samples[::2]
                    self._stride *= 2

    @property
    def count(self) -> int:
        with self._lock:
            return self._seen

    def summary(self) -> Dict[str, Any]:
        with self._lock:
            if not self._seen:
                return {"type": "histogram", "count": 0,
                        **({"unit": self.unit} if self.unit else {})}
            ordered = sorted(self._samples)
            return {
                "type": "histogram",
                "count": self._seen,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "p50": _percentile(ordered, 0.50),
                "p95": _percentile(ordered, 0.95),
                **({"unit": self.unit} if self.unit else {}),
            }


class MetricsRegistry:
    """Name-keyed home of every counter/gauge/histogram in the process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Any] = {}

    def _register(self, name: str, cls, unit: str):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, unit=unit)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def counter(self, name: str, unit: str = "") -> Counter:
        return self._register(name, Counter, unit)

    def gauge(self, name: str, unit: str = "") -> Gauge:
        return self._register(name, Gauge, unit)

    def histogram(self, name: str, unit: str = "") -> Histogram:
        return self._register(name, Histogram, unit)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    def reset(self) -> None:
        """Forget every registered metric (alias of :meth:`clear`).

        Call between logically separate runs sharing one process —
        e.g. two in-process CLI invocations in a test — so counters
        from the first run don't leak into the second's snapshot.
        Instrumentation re-creates metrics on demand, so handles are
        never stale: ``counter(name)`` after a reset starts at zero.
        """
        self.clear()

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-ready ``{name: summary}`` of every registered metric."""
        with self._lock:
            metrics = dict(self._metrics)
        return {name: metrics[name].summary() for name in sorted(metrics)}


#: Process-global registry; instrumentation calls the helpers below.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _REGISTRY


def counter(name: str, unit: str = "") -> Counter:
    return _REGISTRY.counter(name, unit=unit)


def gauge(name: str, unit: str = "") -> Gauge:
    return _REGISTRY.gauge(name, unit=unit)


def histogram(name: str, unit: str = "") -> Histogram:
    return _REGISTRY.histogram(name, unit=unit)


def metrics_snapshot() -> Dict[str, Dict[str, Any]]:
    return _REGISTRY.snapshot()


def reset_metrics() -> None:
    """Reset the process-global registry (see :meth:`MetricsRegistry.reset`).

    The CLI calls this on entry so repeated in-process invocations
    (``repro.cli.main`` called twice, as the tests do) start from a
    clean slate instead of accumulating each other's counters.
    """
    _REGISTRY.reset()
