"""The artifact store: version records + routing manifest.

Layout under ``directory`` (default ``<cache root>/serve/artifacts``,
shared with the legacy flat files it migrates)::

    versions/<version_id>.json   immutable VersionRecord files
    manifest.json                {"schema_version": 1, "slots": {...}}
    index.json                   LRU bookkeeping (atime/size per version)
    <slot>.json                  legacy flat artifacts (adopted, read-only)

Per slot, the manifest tracks::

    latest          version id served by default
    canary          version id receiving a slice of traffic (or null)
    canary_percent  the slice, in percent of virtual ring points
    tags            name -> version id pins (gc never collects these)
    history         stable lineage, oldest first (rollback walks it)

``manifest.json`` is the one copy of the routing; no store object
caches it.  Reads parse the file on every call without a lock: it is
only ever replaced through :func:`repro.cache.atomic_write`, so a
reader (a fleet worker answering ``/v1/admin/reload``) sees the old
routing or the new one, never a torn file.  Every mutation (publish,
legacy adoption, promote, rollback, tag, untag, gc) is one locked
read-modify-write: it takes ``manifest.json.lock``, re-reads the file
inside it and writes the result back, so writers in different
processes never lose each other's updates.  Lock order: the manifest
lock first, then the version tier's index lock.

Version records are content-addressed and immutable, on the shared
:class:`repro.cache.DiskTier` (``versions/``, its file-locked LRU index
at ``index.json``): a load buffers its touch, and each record write
folds the touches in, reconciles the index against the directory and
evicts past the byte cap in one locked index write.  Eviction and
``gc`` (eviction to 0 bytes) keep every version the manifest read
inside the lock references, plus the one being written; a record is
always written before the manifest that names it, so a crash at any
write never leaves a dangling reference.  A ``persist=False`` store
keeps its routing and records in memory, behind the same path.

Determinism: this module is in the lint's DET scope and never reads
the wall clock.  Publish timestamps and LRU touch times are passed in
by the caller (the CLI and serve layers read the clock at their edge).
"""

from __future__ import annotations

import contextlib
import copy
import json
import os
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.cache import DiskTier, FileLock, atomic_write, default_cache_dir
from repro.cache.keys import sweep_temps
from repro.errors import ConfigurationError
from repro.obs import counter
from repro.store.records import (
    StoreError,
    VersionRecord,
    record_from_dict,
    version_id_for,
)

#: Bump when the manifest layout changes.
MANIFEST_SCHEMA_VERSION = 1

#: Default byte cap of the on-disk version tier.  Records are a few KiB
#: each; 64 MiB holds thousands of versions while bounding a publisher
#: that never garbage-collects.
DEFAULT_STORE_MAX_BYTES = 64 * 1024 * 1024

#: Stable versions remembered per slot for rollback.  Entries trimmed
#: off the front lose their gc pin (and become evictable).
HISTORY_LIMIT = 16

_MANIFEST = "manifest.json"
_VERSIONS = "versions"


@dataclass(frozen=True)
class SlotState:
    """Read-only snapshot of one slot's routing state."""

    slot: str
    latest: Optional[str] = None
    canary: Optional[str] = None
    canary_percent: float = 0.0
    tags: Tuple[Tuple[str, str], ...] = ()
    history: Tuple[str, ...] = ()

    def referenced(self) -> Set[str]:
        """Version ids this slot pins (gc/eviction never remove them)."""
        refs = {vid for _name, vid in self.tags}
        refs.update(self.history)
        if self.latest:
            refs.add(self.latest)
        if self.canary:
            refs.add(self.canary)
        return refs


def _empty_slot_doc() -> Dict[str, Any]:
    return {"latest": None, "canary": None, "canary_percent": 0.0,
            "tags": {}, "history": []}


class ArtifactStore:
    """Versioned, content-addressed artifact store (thread-safe).

    ``persist=False`` keeps everything in memory — same API, no disk —
    which is what single-process tests and ``--no-persist`` servers
    use.  All methods taking a ``timestamp``/``touch_at`` expect the
    caller to supply the clock reading; the store itself never looks.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        persist: bool = True,
        max_bytes: int = DEFAULT_STORE_MAX_BYTES,
    ) -> None:
        if max_bytes < 1:
            raise ConfigurationError("store byte cap must be >= 1")
        self.directory = directory or os.path.join(
            default_cache_dir(), "serve", "artifacts"
        )
        self.versions_dir = os.path.join(self.directory, _VERSIONS)
        self.persist = persist
        self._lock = threading.Lock()  # guards the memory-only state
        #: Disk tier of version records, its index at the store root;
        #: the caller's timestamps are its only clock.
        self._tier: Optional[DiskTier] = None
        if persist:
            self._tier = DiskTier(
                self.versions_dir, name="store.disk", max_bytes=max_bytes,
                index_dir=self.directory, clock=None,
            )
        self._manifest_lock = FileLock(self._manifest_path() + ".lock")
        #: ``persist=False`` only: routing (slot docs) and records.  A
        #: persisting store keeps neither; ``manifest.json`` is its routing.
        self._mem_slots: Dict[str, Dict[str, Any]] = {}
        self._mem: Dict[str, VersionRecord] = {}

    # -- paths --------------------------------------------------------------

    def version_path(self, version_id: str) -> str:
        return os.path.join(self.versions_dir, f"{version_id}.json")

    def _manifest_path(self) -> str:
        return os.path.join(self.directory, _MANIFEST)

    # -- manifest -----------------------------------------------------------

    def _read_slots(self) -> Dict[str, Dict[str, Any]]:
        """The slot docs as the manifest holds them now.  Lock-free: the
        file is only ever replaced atomically, so this sees either the
        old routing or the new one."""
        if not self.persist:
            with self._lock:
                return copy.deepcopy(self._mem_slots)
        path = self._manifest_path()
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            return {}
        except (OSError, ValueError) as e:
            raise StoreError(f"manifest is unreadable: {e}") from e
        schema = payload.get("schema_version")
        if schema != MANIFEST_SCHEMA_VERSION:
            raise StoreError(
                f"manifest has schema_version {schema!r}, this build "
                f"supports {MANIFEST_SCHEMA_VERSION} — upgrade repro "
                f"before touching this store"
            )
        return payload.get("slots", {})

    @contextlib.contextmanager
    def _edit(self) -> Iterator[Dict[str, Dict[str, Any]]]:
        """One read-modify-write of the routing: yields the slot docs,
        re-read inside ``manifest.json.lock``, to mutate in place, and
        writes them back if they changed (nothing if the body raises).
        The tier's put/evict take the index lock inside this one; the
        lock is not re-entrant, so no mutator calls another."""
        if not self.persist:
            with self._lock:
                yield self._mem_slots
            return
        with self._manifest_lock:
            sweep_temps(self.directory, _MANIFEST)
            slots = self._read_slots()
            before = copy.deepcopy(slots)
            yield slots
            if slots != before:
                doc = {"schema_version": MANIFEST_SCHEMA_VERSION,
                       "slots": slots}
                blob = json.dumps(doc, indent=2, sort_keys=True).encode()
                atomic_write(self._manifest_path(), blob)

    def slots(self) -> List[SlotState]:
        docs = self._read_slots()
        return [self._state(slot, docs[slot]) for slot in sorted(docs)]

    def slot_state(self, slot: str) -> SlotState:
        doc = self._read_slots().get(slot)
        if doc is None:
            return SlotState(slot=slot)
        return self._state(slot, doc)

    @staticmethod
    def _state(slot: str, doc: Dict[str, Any]) -> SlotState:
        return SlotState(
            slot=slot,
            latest=doc.get("latest"),
            canary=doc.get("canary"),
            canary_percent=float(doc.get("canary_percent") or 0.0),
            tags=tuple(sorted((doc.get("tags") or {}).items())),
            history=tuple(doc.get("history") or ()),
        )

    def resolve_slot(self, prefix: str) -> str:
        """Expand a unique slot prefix (CLI convenience)."""
        docs = self._read_slots()
        if prefix in docs:
            return prefix
        matches = sorted(s for s in docs if s.startswith(prefix))
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise StoreError(
                f"no slot matches {prefix!r} "
                f"(known: {[s[:12] for s in sorted(docs)]})"
            )
        raise StoreError(
            f"slot prefix {prefix!r} is ambiguous: "
            f"{[s[:16] for s in matches]}"
        )

    # -- publish / load ------------------------------------------------------

    def publish(
        self,
        slot: str,
        capability: Dict[str, Any],
        *,
        timestamp: float,
        machine: Optional[str] = None,
        config_label: Optional[str] = None,
        iterations: Optional[int] = None,
        seed: Optional[int] = None,
        fit_seconds: float = 0.0,
        notes: Optional[str] = None,
        canary_percent: Optional[float] = None,
    ) -> VersionRecord:
        """Publish one payload into ``slot`` and atomically reroute.

        ``canary_percent`` set (> 0) publishes the version as the
        slot's canary at that traffic share; otherwise it becomes
        ``latest`` (parent = the previous latest) and joins the
        rollback history.  A payload identical to an already-published
        version dedups to the same version id — the publish is a
        routing-only update (``store.publishes.deduped``), which is
        also what makes concurrent identical publishes single-flight.
        """
        if canary_percent is not None and not (0 <= canary_percent <= 100):
            raise StoreError(
                f"canary_percent must be within [0, 100], "
                f"got {canary_percent!r}"
            )
        vid = version_id_for(slot, capability)
        with self._edit() as docs:
            doc = docs.setdefault(slot, _empty_slot_doc())
            existing = self._get_record(vid)
            if existing is not None:
                counter("store.publishes.deduped").inc()
                record = existing
            else:
                record = VersionRecord(
                    version_id=vid,
                    slot=slot,
                    capability=dict(capability),
                    machine=machine,
                    config_label=(
                        config_label
                        if config_label is not None
                        else str(capability.get("config_label") or "")
                    ),
                    parent=doc.get("latest"),
                    created_at=float(timestamp),
                    iterations=iterations,
                    seed=seed,
                    fit_seconds=fit_seconds,
                    notes=notes,
                )
                counter("store.publishes").inc()
                self._write_record(record, docs, timestamp)
            if canary_percent is not None and canary_percent > 0:
                doc["canary"] = vid
                doc["canary_percent"] = float(canary_percent)
            else:
                doc["latest"] = vid
                if doc.get("canary") == vid:
                    doc["canary"] = None
                    doc["canary_percent"] = 0.0
                self._append_history(doc, vid)
        return record

    def load(
        self, version_id: str, touch_at: Optional[float] = None
    ) -> VersionRecord:
        """One version record: memory tier, then disk.

        ``touch_at`` (caller's clock) refreshes the LRU index entry of
        a record read from disk, so actively-served versions stay
        resident under the byte cap.
        Unknown ids and future-schema files raise :class:`StoreError`.
        """
        record = self._get_record(version_id, touch_at=touch_at)
        if record is None:
            raise StoreError(
                f"unknown artifact version {version_id[:16]!r} "
                f"(gc'd, never published, or a different store dir?)"
            )
        return record

    def _get_record(
        self, version_id: str, touch_at: Optional[float] = None
    ) -> Optional[VersionRecord]:
        """The record from whichever tier this store keeps; None when
        it is not there."""
        if self._tier is None:
            record = self._mem.get(version_id)
            if record is not None:
                counter("store.loads.mem").inc()
            return record
        blob = self._tier.get(version_id, atime=touch_at)
        if blob is None:
            return None
        try:
            payload = json.loads(blob)
        except ValueError as e:
            raise StoreError(
                f"version file for {version_id[:16]} is unreadable: {e}"
            ) from e
        counter("store.loads.disk").inc()
        return record_from_dict(payload)

    def _write_record(
        self, record: VersionRecord, docs: Dict[str, Dict[str, Any]],
        timestamp: float,
    ) -> None:
        """Store one record before the manifest names it.  ``docs`` is
        the routing read inside the manifest lock, still as the file
        holds it, so the tier's eviction spares what it references plus
        the new record."""
        if self._tier is None:
            self._mem[record.version_id] = record
            return
        blob = json.dumps(
            record.to_dict(), indent=2, sort_keys=True
        ).encode()
        keep = self._referenced(docs) | {record.version_id}
        self._tier.put(record.version_id, blob, atime=timestamp, keep=keep)

    def adopt_legacy(
        self, slot: str, timestamp: float = 0.0
    ) -> Optional[VersionRecord]:
        """Migrate a pre-store flat ``<slot>.json`` artifact, if present.

        Returns the adopted record (now the slot's latest, unless the
        slot already routes somewhere) or ``None`` when there is no
        readable legacy file — corruption means "refit", exactly as the
        old registry treated it.
        """
        if not self.persist:
            return None
        path = os.path.join(self.directory, f"{slot}.json")
        if not os.path.exists(path):
            return None
        try:
            with open(path) as fh:
                payload = json.load(fh)
            record = record_from_dict(payload, slot=slot)
        except (OSError, ValueError, StoreError):
            return None
        with self._edit() as docs:
            doc = docs.setdefault(slot, _empty_slot_doc())
            vid = record.version_id
            if self._get_record(vid) is None:
                self._write_record(record, docs, timestamp)
                counter("store.adoptions").inc()
            if doc.get("latest") is None:
                doc["latest"] = vid
                self._append_history(doc, vid)
        return record

    @staticmethod
    def _append_history(doc: Dict[str, Any], vid: str) -> None:
        history = doc.setdefault("history", [])
        if not history or history[-1] != vid:
            history.append(vid)
        del history[:-HISTORY_LIMIT]

    # -- routing mutations ---------------------------------------------------

    @staticmethod
    def _doc(docs: Dict[str, Dict[str, Any]], slot: str) -> Dict[str, Any]:
        doc = docs.get(slot)
        if doc is None:
            raise StoreError(f"unknown slot {slot[:16]!r}")
        return doc

    def promote(self, slot: str) -> SlotState:
        """Canary graduates to ``latest``; the canary slice clears."""
        with self._edit() as docs:
            doc = self._doc(docs, slot)
            vid = doc.get("canary")
            if not vid:
                raise StoreError(
                    f"slot {slot[:16]} has no canary to promote"
                )
            doc["latest"] = vid
            doc["canary"] = None
            doc["canary_percent"] = 0.0
            self._append_history(doc, vid)
            counter("store.promotes").inc()
            return self._state(slot, doc)

    def rollback(self, slot: str) -> SlotState:
        """Undo one routing step.

        With a live canary: clear it (all traffic back on ``latest``).
        Otherwise: step ``latest`` back to the previous history entry
        (the abandoned head leaves the history and becomes gc-able).
        At the root of history there is nothing to roll back to.
        """
        with self._edit() as docs:
            doc = self._doc(docs, slot)
            if doc.get("canary"):
                doc["canary"] = None
                doc["canary_percent"] = 0.0
            else:
                history = doc.get("history") or []
                if len(history) < 2 or history[-1] != doc.get("latest"):
                    raise StoreError(
                        f"slot {slot[:16]} has no previous version to "
                        f"roll back to"
                    )
                history.pop()
                doc["latest"] = history[-1]
            counter("store.rollbacks").inc()
            return self._state(slot, doc)

    def tag(self, slot: str, name: str, version_id: str) -> SlotState:
        """Pin ``version_id`` under ``name`` (gc never collects pins)."""
        with self._edit() as docs:
            doc = self._doc(docs, slot)
            if self._get_record(version_id) is None:
                raise StoreError(
                    f"unknown artifact version {version_id[:16]!r}"
                )
            doc.setdefault("tags", {})[name] = version_id
            return self._state(slot, doc)

    def untag(self, slot: str, name: str) -> SlotState:
        with self._edit() as docs:
            doc = self._doc(docs, slot)
            if name not in (doc.get("tags") or {}):
                raise StoreError(
                    f"slot {slot[:16]} has no tag {name!r}"
                )
            del doc["tags"][name]
            return self._state(slot, doc)

    # -- space management ----------------------------------------------------

    def _referenced(self, docs: Dict[str, Dict[str, Any]]) -> Set[str]:
        return set().union(
            *(self._state(s, doc).referenced() for s, doc in docs.items())
        )

    def gc(self) -> Dict[str, Any]:
        """Remove every version no manifest entry references.

        Returns ``{"removed": [...], "freed_bytes": n, "kept": n}``.
        Unlike cap eviction (which stops at the byte cap), gc prunes
        *all* unreferenced versions — rolled-back heads, trimmed
        history, orphan files from deleted slots: it evicts to 0 bytes,
        keeping what the manifest references inside the manifest lock.
        """
        with self._edit() as docs:
            referenced = self._referenced(docs)
            sizes = self._sizes()
            removed = sorted((set(sizes) | set(self._mem)) - referenced)
            if self._tier is not None:
                self._tier.evict(max_bytes=0, keep=referenced)
            for vid in removed:
                self._mem.pop(vid, None)
            if removed:
                counter("store.gc.removed").inc(len(removed))
        return {
            "removed": removed,
            "freed_bytes": sum(sizes.get(vid, 0) for vid in removed),
            "kept": len(set(sizes) & referenced),
        }

    def disk_stats(self) -> Dict[str, int]:
        """``{"bytes": ..., "versions": ...}`` of the disk tier."""
        sizes = self._sizes()
        return {"bytes": sum(sizes.values()), "versions": len(sizes)}

    def _sizes(self) -> Dict[str, int]:
        return self._tier.sizes() if self._tier is not None else {}
