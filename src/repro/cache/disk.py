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
no longer orphan blobs forever.  The same pass removes the temp files
of blob writers that died before their replace (see
:func:`repro.cache.keys.sweep_temps`).

Eviction never removes a key in its ``keep`` set, and takes an
optional byte cap of its own: the artifact store's gc is
``evict(max_bytes=0, keep=<what the manifest references>)``.

Reads never touch the index file: a hit buffers an atime refresh that
the next put/evict/:meth:`flush` folds in (see
:class:`~repro.cache.index.CacheIndex`), so the warm path does zero
index writes.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Collection, Dict, Optional, Tuple

from repro.obs import counter, gauge, span
from repro.cache.index import INDEX_NAME, CacheIndex, Entry
from repro.cache.keys import atomic_write, sweep_temps


def _now() -> float:
    # Eviction bookkeeping, not an experiment input.
    return time.time()  # repro: noqa[DET001]


class DiskTier:
    """Blob-per-key disk cache with optional LRU byte cap.

    ``index_dir`` puts ``index.json`` elsewhere than beside the blobs.
    ``clock`` stamps a get or put that passes no ``atime``; with
    ``clock=None`` such a get touches nothing, so a caller passing its
    own times (the artifact store) never reads the wall clock.
    """

    def __init__(
        self,
        directory: str,
        name: str,
        suffix: str = ".json",
        max_bytes: Optional[int] = None,
        index_dir: Optional[str] = None,
        clock: Optional[Callable[[], float]] = _now,
    ) -> None:
        self.directory = directory
        self.name = name
        self.suffix = suffix
        self.max_bytes = max_bytes
        self.clock = clock
        os.makedirs(directory, exist_ok=True)
        self.index: Optional[CacheIndex] = None
        if max_bytes is not None:
            self.index = CacheIndex(index_dir or directory)

    def _count(self, event: str, n: int = 1) -> None:
        counter(f"cache.{self.name}.{event}").inc(n)

    def path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}{self.suffix}")

    def _touch(self, key: str, atime: Optional[float],
               size: Optional[int] = None) -> None:
        """Buffer an index touch at ``atime``, else at the tier's clock;
        an untimed get on a tier without a clock touches nothing."""
        if self.index is None:
            return
        if atime is None and self.clock is not None:
            atime = self.clock()
        if atime is not None or size is not None:
            self.index.touch(key, atime or 0.0, size=size)

    # -- get/put -----------------------------------------------------------

    def get(self, key: str, atime: Optional[float] = None) -> Optional[bytes]:
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
        self._touch(key, atime)
        return blob

    def put(self, key: str, blob: bytes, atime: Optional[float] = None,
            keep: Collection[str] = ()) -> str:
        """Atomically write ``blob``; capped tiers fold the new entry
        into the index and evict past the byte cap (never a key in
        ``keep``) in one locked index write.  Returns the blob path."""
        path = self.path(key)
        atomic_write(path, blob)
        self._count("writes")
        if self.index is not None:
            self._touch(key, atime, size=len(blob))
            self.evict(keep=keep)
        return path

    # -- eviction / reconciliation -----------------------------------------

    def sizes(self) -> Dict[str, int]:
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

    def evict(self, max_bytes: Optional[int] = None,
              keep: Collection[str] = ()) -> int:
        """Reconcile the index with the directory, then drop
        least-recently-used blobs, never one in ``keep``, until under
        ``max_bytes`` (default: the tier's cap)."""
        if self.index is None:
            return 0
        cap = self.max_bytes if max_bytes is None else max_bytes
        evicted = []

        def reconcile_and_evict(index: Dict[str, Entry]) -> None:
            sweep_temps(self.directory)
            sizes = self.sizes()
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
                if total <= cap:
                    break
                if key in keep:
                    continue
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
        return tuple(sorted(self.sizes()))

    def flush(self) -> None:
        """Write any buffered atime touches to the index."""
        if self.index is not None:
            self.index.flush()
