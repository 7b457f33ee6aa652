"""Crash-safe, file-locked LRU index shared by every capped disk tier.

The bespoke caches this subsystem replaced kept their eviction
bookkeeping in an ``index.json`` rewritten with plain load-modify-save:
two pool workers touching the same directory clobbered each other's
entries (lost updates), and every warm *hit* rewrote the whole index —
O(index) filesystem traffic on the hot path, exactly the avoidable
memory-system pressure the capability models are built to expose.

:class:`CacheIndex` fixes both:

* **Lost updates** — every read-modify-write cycle runs under
  :class:`FileLock` (``fcntl.flock`` on a sidecar ``.lock`` file) and
  re-reads the index from disk *inside* the lock, so concurrent
  processes serialize instead of clobbering.
* **Hot-path writes** — atime refreshes are buffered in-process
  (:meth:`touch`) and merged into the on-disk index only on the next
  :meth:`mutate` / :meth:`flush` (i.e. on put, evict, or close).  A
  warm hit performs **zero** index writes; the ``cache.index.writes``
  counter makes that assertable.

A corrupt or missing index degrades to ``{}`` exactly as before — the
disk tier reconciles against a directory scan during eviction, so no
entry is ever orphaned by a bad index (see
:meth:`repro.cache.disk.DiskTier.evict`).
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Callable, Dict, Optional

from repro.obs import counter
from repro.cache.keys import atomic_write, sweep_temps

try:  # pragma: no cover - fcntl is POSIX-only; CI and dev are Linux
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

#: Index file name, shared with the legacy layout (same file, new code).
INDEX_NAME = "index.json"

Entry = Dict[str, Any]


class FileLock:
    """Advisory inter-process lock on ``path`` (``fcntl.flock``).

    Each acquisition opens its own file descriptor, so the lock also
    excludes threads within one process (flock is per-open-file, not
    per-process); the descriptor is stored thread-locally so one shared
    ``FileLock`` instance is safe to enter from several threads at
    once.  Re-entrant use from the same thread would deadlock;
    :class:`CacheIndex` never nests acquisitions.  On platforms without
    ``fcntl`` the lock degrades to a process-local mutex.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._held = threading.local()
        self._fallback = threading.Lock()

    def __enter__(self) -> "FileLock":
        if fcntl is None:  # pragma: no cover
            self._fallback.acquire()
            return self
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
        except BaseException:
            os.close(fd)
            raise
        self._held.fd = fd
        return self

    def __exit__(self, *exc) -> None:
        if fcntl is None:  # pragma: no cover
            self._fallback.release()
            return
        fd: Optional[int] = getattr(self._held, "fd", None)
        if fd is not None:
            self._held.fd = None
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)


class CacheIndex:
    """LRU bookkeeping (`key -> {atime, size}`) with batched writes.

    Reads (:meth:`load`) are lock-free — the index file is only ever
    replaced atomically, so a reader sees some complete recent state
    plus this process's own buffered touches.  Writes always go through
    :meth:`mutate`, which holds the file lock across the whole
    read-merge-modify-write cycle.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.path = os.path.join(directory, INDEX_NAME)
        self._lock = FileLock(self.path + ".lock")
        self._mu = threading.Lock()
        self._dirty: Dict[str, Entry] = {}

    # -- reading -----------------------------------------------------------

    def _read_disk(self) -> Dict[str, Entry]:
        if not os.path.exists(self.path):
            return {}
        try:
            with open(self.path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return {}
        return doc if isinstance(doc, dict) else {}

    def load(self) -> Dict[str, Entry]:
        """Current view: on-disk state overlaid with buffered touches."""
        index = self._read_disk()
        with self._mu:
            dirty = {k: dict(v) for k, v in self._dirty.items()}
        for key, patch in dirty.items():
            _merge(index.setdefault(key, {}), patch)
        return index

    # -- buffered touches --------------------------------------------------

    def touch(self, key: str, atime: float,
              size: Optional[int] = None) -> None:
        """Record an access without writing the index (batched)."""
        with self._mu:
            entry = self._dirty.setdefault(key, {})
            entry["atime"] = max(atime, entry.get("atime", 0.0))
            if size is not None:
                entry["size"] = size

    @property
    def dirty(self) -> bool:
        with self._mu:
            return bool(self._dirty)

    # -- locked read-modify-write ------------------------------------------

    def mutate(
        self,
        fn: Optional[Callable[[Dict[str, Entry]], None]] = None,
    ) -> Dict[str, Entry]:
        """Apply buffered touches and ``fn`` under the file lock.

        The index is re-read from disk *inside* the lock, dirty entries
        are merged in (atime = max, so a concurrent writer's fresher
        touch survives), then ``fn`` may mutate the dict in place
        (eviction deletes entries, reconciliation adds them).  The
        result is atomically written back and returned.  Exactly one
        index write per call — counted by ``cache.index.writes``.
        Temp files of index writers that died mid-write are swept here,
        under the lock that guards the index.
        """
        with self._lock:
            sweep_temps(self.directory, INDEX_NAME)
            index = self._read_disk()
            with self._mu:
                dirty, self._dirty = self._dirty, {}
            for key, patch in dirty.items():
                _merge(index.setdefault(key, {}), patch)
            if fn is not None:
                fn(index)
            atomic_write(
                self.path, json.dumps(index, sort_keys=True).encode()
            )
            counter("cache.index.writes").inc()
            return index

    def flush(self) -> None:
        """Write buffered touches, if any (no-op when clean)."""
        if self.dirty:
            self.mutate()


def _merge(entry: Entry, patch: Entry) -> None:
    entry["atime"] = max(
        float(patch.get("atime", 0.0)), float(entry.get("atime", 0.0))
    )
    if "size" in patch:
        entry["size"] = patch["size"]
