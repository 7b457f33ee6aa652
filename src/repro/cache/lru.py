"""In-process LRU tier: the one OrderedDict-recency cache in the tree.

Every bespoke LRU this subsystem replaced (the serve plan cache, the
rendered-response skeletons, the result-cache index ordering) carried
its own ``move_to_end`` / ``popitem(last=False)`` dance and its own
half of the metrics vocabulary.  :class:`LRUCache` centralizes it:
thread-safe, count-capped, with uniform
``cache.<tier>.*`` counters and gauges keyed by the tier ``name``.
CACHE001 flags any new ad-hoc OrderedDict LRU outside this package.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Optional, Tuple

from repro.obs import counter, gauge


class LRUCache:
    """Thread-safe LRU over arbitrary values.

    ``max_entries`` caps the entry count (None: an unbounded recency
    map).  Metrics: ``cache.<name>.hits`` / ``.misses`` / ``.writes`` /
    ``.evictions`` / ``.invalidated`` counters and the
    ``cache.<name>.entries`` gauge.
    """

    def __init__(self, name: str, max_entries: Optional[int] = None) -> None:
        self.name = name
        self.max_entries = max_entries
        self._mu = threading.Lock()
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()

    def _count(self, event: str, n: int = 1) -> None:
        counter(f"cache.{self.name}.{event}").inc(n)

    def _update_gauge(self) -> None:
        gauge(f"cache.{self.name}.entries").set(len(self._entries))

    # -- get/put -----------------------------------------------------------

    def get(self, key: Any) -> Optional[Any]:
        with self._mu:
            hit = self._entries.get(key)
            if hit is not None:
                self._entries.move_to_end(key)
        if hit is None:
            self._count("misses")
            return None
        self._count("hits")
        return hit

    def put(self, key: Any, value: Any) -> None:
        with self._mu:
            self._entries.pop(key, None)
            self._entries[key] = value
            evicted = 0
            while (self.max_entries is not None
                   and len(self._entries) > self.max_entries):
                self._entries.popitem(last=False)
                evicted += 1
            self._update_gauge()
        self._count("writes")
        if evicted:
            self._count("evictions", evicted)

    def invalidate(self, key: Any) -> bool:
        with self._mu:
            found = self._entries.pop(key, None) is not None
            self._update_gauge()
        if found:
            self._count("invalidated")
        return found

    # -- introspection -----------------------------------------------------

    def keys(self) -> Tuple[Any, ...]:
        """Keys oldest-first (eviction order) — a stable snapshot."""
        with self._mu:
            return tuple(self._entries)

    def __len__(self) -> int:
        with self._mu:
            return len(self._entries)
