"""The tiered composition: in-process LRU over the disk tier.

:class:`TieredCache` is what the ported layers (result cache,
characterization cache) build on.  The memory
tier holds **encoded blobs**, not decoded objects — every ``get``
hands back bytes the caller decodes, so a memory hit is byte-identical
to a disk hit by construction and no mutable object is ever aliased
between callers.

Write path: ``put`` goes to disk only; the memory tier is populated on
the next read (read-promote).  That keeps disk the source of truth —
corrupting or deleting a blob on disk is observed as a miss, exactly
as with the bespoke caches this replaced.

``get_or_create`` wraps the read-compute-write cycle in thread
single-flight: concurrent callers for one key run the factory once.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.cache.disk import DiskTier
from repro.cache.lru import LRUCache
from repro.cache.singleflight import SingleFlight


class TieredCache:
    """Memory-LRU-over-disk blob cache with built-in single-flight.

    ``max_bytes`` caps the disk tier (LRU, index-backed);
    ``memory_entries`` / ``memory_bytes`` cap the in-process tier (no
    memory tier at all when both are None).  Metrics come uniformly
    from the component tiers: ``cache.<name>.mem.*`` and
    ``cache.<name>.disk.*``.
    """

    def __init__(
        self,
        directory: str,
        name: str,
        suffix: str = ".json",
        max_bytes: Optional[int] = None,
        memory_entries: Optional[int] = None,
        memory_bytes: Optional[int] = None,
    ) -> None:
        self.name = name
        self.disk = DiskTier(
            directory, name=f"{name}.disk", suffix=suffix,
            max_bytes=max_bytes,
        )
        self.memory: Optional[LRUCache] = None
        if memory_entries is not None or memory_bytes is not None:
            self.memory = LRUCache(
                f"{name}.mem",
                max_entries=memory_entries,
                max_bytes=memory_bytes,
            )
        self._flights = SingleFlight()

    @property
    def directory(self) -> str:
        return self.disk.directory

    # -- get/put -----------------------------------------------------------

    def get(self, key: str) -> Optional[bytes]:
        """Blob bytes for ``key`` (memory first, then disk), or None.
        Memory hits still refresh the disk tier's LRU position so the
        byte cap never evicts what the process is actively reading."""
        if self.memory is not None:
            blob = self.memory.get(key)
            if blob is not None:
                if self.disk.index is not None:
                    from repro.cache.disk import _now

                    self.disk.index.touch(key, _now())
                return blob
        blob = self.disk.get(key)
        if blob is not None and self.memory is not None:
            self.memory.put(key, blob, size=len(blob))
        return blob

    def put(self, key: str, blob: bytes) -> str:
        """Write-through to disk; any stale memory copy is dropped and
        re-promoted on the next read.  Returns the blob path."""
        if self.memory is not None:
            self.memory.invalidate(key)
        return self.disk.put(key, blob)

    def get_or_create(
        self, key: str, factory: Callable[[], bytes]
    ) -> bytes:
        """The blob for ``key``, computing and storing it on a miss.
        Concurrent callers for one key run ``factory`` exactly once."""

        def load_or_make() -> bytes:
            blob = self.get(key)
            if blob is None:
                blob = factory()
                self.put(key, blob)
            return blob

        return self._flights.do(key, load_or_make)

    # -- invalidation / lifecycle ------------------------------------------

    def invalidate(self, key: str) -> bool:
        """Drop ``key`` from every tier."""
        if self.memory is not None:
            self.memory.invalidate(key)
        return self.disk.remove(key)

    def keys(self) -> Tuple[str, ...]:
        return self.disk.keys()

    def flush(self) -> None:
        self.disk.flush()

    def close(self) -> None:
        self.disk.close()
