"""Content-addressed disk tier: one blob file per key, LRU byte cap.

Blobs live as ``<directory>/<key><suffix>`` written through
:func:`repro.cache.keys.atomic_write`; when ``max_bytes`` is set, a
:class:`repro.cache.index.CacheIndex` tracks access times and sizes
for least-recently-used eviction.  Uncapped tiers (characterization
bundles) carry no index at all — their
directory layout is exactly the set of blob files.

Eviction (:meth:`evict`) runs under the index file lock and starts by
**reconciling the index against a directory scan**: entries whose file
vanished are dropped, on-disk blobs missing from the index (e.g. after
a corrupted index degraded to ``{}``, or written by a crashed sibling)
are adopted with their file mtime as the access time.  The byte cap is
therefore enforced over what is *actually on disk* — a bad index can
no longer orphan blobs forever.

Reads never touch the index file: a hit buffers an atime refresh that
the next put/evict/:meth:`flush` folds in (see
:class:`~repro.cache.index.CacheIndex`), so the warm path does zero
index writes.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional, Tuple

from repro.obs import counter, gauge, span
from repro.cache.index import INDEX_NAME, CacheIndex, Entry
from repro.cache.keys import atomic_write


def _now() -> float:
    # Eviction bookkeeping, not an experiment input.
    return time.time()  # repro: noqa[DET001]


class DiskTier:
    """Blob-per-key disk cache with optional LRU byte cap."""

    def __init__(
        self,
        directory: str,
        name: str,
        suffix: str = ".json",
        max_bytes: Optional[int] = None,
    ) -> None:
        self.directory = directory
        self.name = name
        self.suffix = suffix
        self.max_bytes = max_bytes
        os.makedirs(directory, exist_ok=True)
        self.index: Optional[CacheIndex] = (
            CacheIndex(directory) if max_bytes is not None else None
        )

    def _count(self, event: str, n: int = 1) -> None:
        counter(f"cache.{self.name}.{event}").inc(n)

    def path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}{self.suffix}")

    # -- get/put -----------------------------------------------------------

    def get(self, key: str) -> Optional[bytes]:
        """The blob bytes for ``key``, or None.  Lock-free; a hit only
        buffers an atime touch (zero index writes on the warm path)."""
        path = self.path(key)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            self._count("misses")
            return None
        self._count("hits")
        if self.index is not None:
            self.index.touch(key, _now())
        return blob

    def put(self, key: str, blob: bytes) -> str:
        """Atomically write ``blob``; capped tiers fold the new entry
        into the index and evict past the byte cap in one locked
        index write.  Returns the blob path."""
        path = self.path(key)
        atomic_write(path, blob)
        self._count("writes")
        if self.index is not None:
            self.index.touch(key, _now(), size=len(blob))
            self.evict()
        return path

    # -- eviction / reconciliation -----------------------------------------

    def _scan(self) -> Dict[str, int]:
        """`key -> size` for every blob actually on disk."""
        sizes: Dict[str, int] = {}
        with os.scandir(self.directory) as entries:
            for entry in entries:
                name = entry.name
                if not name.endswith(self.suffix) or name == INDEX_NAME:
                    continue
                try:
                    stat = entry.stat()
                except OSError:
                    continue
                sizes[name[: -len(self.suffix)]] = stat.st_size
        return sizes

    def evict(self) -> int:
        """Reconcile the index with the directory, then drop
        least-recently-used blobs until under the byte cap."""
        if self.index is None:
            return 0
        evicted = []

        def reconcile_and_evict(index: Dict[str, Entry]) -> None:
            sizes = self._scan()
            ghosts = [k for k in index if k not in sizes]
            orphans = [k for k in sizes if k not in index]
            for key in ghosts:
                del index[key]
            for key in orphans:
                # Adopt with mtime as atime: a blob a sibling process
                # just wrote is recent, not first in line for eviction.
                try:
                    atime = os.path.getmtime(self.path(key))
                except OSError:
                    atime = 0.0
                index[key] = {"atime": atime, "size": sizes[key]}
            if ghosts or orphans:
                counter("cache.index.reconciled").inc(
                    len(ghosts) + len(orphans)
                )
            for key in index:
                index[key]["size"] = sizes[key]
            total = sum(int(e.get("size", 0)) for e in index.values())
            for key in sorted(
                index, key=lambda k: index[k].get("atime", 0.0)
            ):
                if total <= self.max_bytes:
                    break
                total -= int(index[key].get("size", 0))
                try:
                    os.unlink(self.path(key))
                except OSError:
                    pass
                del index[key]
                evicted.append(key)
            gauge(f"cache.{self.name}.entries").set(len(index))
            gauge(f"cache.{self.name}.bytes").set(total)

        with span("cache.evict", category="cache", tier=self.name):
            self.index.mutate(reconcile_and_evict)
        if evicted:
            self._count("evictions", len(evicted))
        return len(evicted)

    # -- introspection -----------------------------------------------------

    def keys(self) -> Tuple[str, ...]:
        return tuple(sorted(self._scan()))

    def flush(self) -> None:
        """Write any buffered atime touches to the index."""
        if self.index is not None:
            self.index.flush()
