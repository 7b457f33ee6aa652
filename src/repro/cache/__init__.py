"""repro.cache — the one cache subsystem.

Every cache in the workbench (runtime results, characterization
bundles, serve artifacts and compiled plans, batcher dedup, the
artifact store's version records) now builds on
the same four primitives instead of carrying its own copy:

* :mod:`repro.cache.keys` — content addressing (``cache_key``) and
  ``atomic_write``;
* :mod:`repro.cache.index` — the crash-safe, file-locked LRU index
  with batched atime writes (``cache.index.writes`` counts flushes);
* :mod:`repro.cache.lru` / :mod:`repro.cache.disk` — the in-process
  and on-disk tiers, with uniform ``cache.<tier>.*`` metrics;
* :mod:`repro.cache.singleflight` — asyncio single-flight.

See ``docs/CACHING.md`` for the architecture and the invalidation
contract.
"""

from repro.cache.keys import (
    atomic_write,
    cache_key,
    content_key,
    default_cache_dir,
    fingerprint,
)
from repro.cache.index import CacheIndex, FileLock, INDEX_NAME
from repro.cache.lru import LRUCache
from repro.cache.disk import DiskTier
from repro.cache.singleflight import AsyncSingleFlight

__all__ = [
    "AsyncSingleFlight",
    "CacheIndex",
    "DiskTier",
    "FileLock",
    "INDEX_NAME",
    "LRUCache",
    "atomic_write",
    "cache_key",
    "content_key",
    "default_cache_dir",
    "fingerprint",
]
