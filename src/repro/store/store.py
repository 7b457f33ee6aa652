"""The artifact store: disk tier + memory tier + routing manifest.

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

Every mutation (publish / promote / rollback / tag / gc) rewrites the
manifest atomically through :func:`repro.cache.atomic_write`, so a
reader process — a fleet worker answering ``/v1/admin/reload`` —
always sees either the old routing state or the new one, never a torn
file.  Version records are content-addressed and immutable, so the
memory tier never invalidates them; only the manifest moves.

LRU bookkeeping (``index.json``) goes through the shared
:class:`repro.cache.CacheIndex`: atime touches are buffered in-process
(a warm load writes nothing) and folded into one file-locked index
write on publish, cap enforcement, and gc — concurrent publishers no
longer clobber each other's entries.

Determinism: this module is in the lint's DET scope and never reads
the wall clock.  Publish timestamps and LRU touch times are passed in
by the caller (the CLI and serve layers read the clock at their edge).
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.cache import CacheIndex, atomic_write, default_cache_dir
from repro.cache.index import Entry
from repro.errors import ConfigurationError
from repro.obs import counter, gauge
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
    return {
        "latest": None,
        "canary": None,
        "canary_percent": 0.0,
        "tags": {},
        "history": [],
    }


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
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        #: Shared file-locked LRU index (atime/size per version) with
        #: batched touches; all writes funnel through
        #: :meth:`_mutate_index`.
        self._index = CacheIndex(self.directory)
        #: Memory tier: version id -> record.  Records are immutable, so
        #: entries never go stale; the tier is dropped only per-process.
        self._mem: Dict[str, VersionRecord] = {}
        #: Cached manifest slots (raw docs); ``None`` = not loaded yet.
        #: :meth:`refresh` drops the cache so reload picks up publishes
        #: from other processes.
        self._slots: Optional[Dict[str, Dict[str, Any]]] = None

    # -- paths --------------------------------------------------------------

    def version_path(self, version_id: str) -> str:
        return os.path.join(self.versions_dir, f"{version_id}.json")

    def _manifest_path(self) -> str:
        return os.path.join(self.directory, _MANIFEST)

    # -- manifest -----------------------------------------------------------

    def _load_slots(self) -> Dict[str, Dict[str, Any]]:
        """The mutable slot docs (callers hold ``self._lock``)."""
        if self._slots is not None:
            return self._slots
        slots: Dict[str, Dict[str, Any]] = {}
        path = self._manifest_path()
        if self.persist and os.path.exists(path):
            try:
                with open(path) as fh:
                    payload = json.load(fh)
            except (OSError, ValueError) as e:
                raise StoreError(f"manifest is unreadable: {e}") from e
            schema = payload.get("schema_version")
            if schema != MANIFEST_SCHEMA_VERSION:
                raise StoreError(
                    f"manifest has schema_version {schema!r}, this build "
                    f"supports {MANIFEST_SCHEMA_VERSION} — upgrade repro "
                    f"before touching this store"
                )
            for slot, doc in payload.get("slots", {}).items():
                merged = _empty_slot_doc()
                merged.update(doc)
                slots[slot] = merged
        self._slots = slots
        return slots

    def _write_manifest(self) -> None:
        if not self.persist or self._slots is None:
            return
        os.makedirs(self.directory, exist_ok=True)
        atomic_write(
            self._manifest_path(),
            json.dumps(
                {
                    "schema_version": MANIFEST_SCHEMA_VERSION,
                    "slots": self._slots,
                },
                indent=2,
                sort_keys=True,
            ).encode(),
        )

    def refresh(self) -> None:
        """Drop the cached manifest; the next read sees other
        processes' publishes.  The memory tier survives (records are
        immutable and content-addressed)."""
        with self._lock:
            if self.persist:
                self._slots = None

    def slots(self) -> List[SlotState]:
        with self._lock:
            docs = self._load_slots()
            return [self._state(slot, docs[slot]) for slot in sorted(docs)]

    def slot_state(self, slot: str) -> SlotState:
        with self._lock:
            doc = self._load_slots().get(slot)
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
        with self._lock:
            docs = self._load_slots()
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
        persist: Optional[bool] = None,
    ) -> VersionRecord:
        """Publish one payload into ``slot`` and atomically reroute.

        ``canary_percent`` set (> 0) publishes the version as the
        slot's canary at that traffic share; otherwise it becomes
        ``latest`` (parent = the previous latest) and joins the
        rollback history.  A payload identical to an already-published
        version dedups to the same version id — the publish is a
        routing-only update (``store.publishes.deduped``), which is
        also what makes concurrent identical publishes single-flight.

        ``persist=False`` overrides the store default for this call:
        nothing is written to disk (fleet workers injecting their
        forked warm model use this; the parent already persisted it).
        """
        if canary_percent is not None and not (0 <= canary_percent <= 100):
            raise StoreError(
                f"canary_percent must be within [0, 100], "
                f"got {canary_percent!r}"
            )
        do_persist = self.persist if persist is None else (
            persist and self.persist
        )
        vid = version_id_for(slot, capability)
        with self._lock:
            docs = self._load_slots()
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
                self._mem[vid] = record
                counter("store.publishes").inc()
                if do_persist:
                    self._write_record(record, timestamp)
            if canary_percent is not None and canary_percent > 0:
                doc["canary"] = vid
                doc["canary_percent"] = float(canary_percent)
            else:
                doc["latest"] = vid
                if doc.get("canary") == vid:
                    doc["canary"] = None
                    doc["canary_percent"] = 0.0
                self._append_history(doc, vid)
            if do_persist:
                self._write_manifest()
                self._enforce_cap(docs)
                self._update_gauges()
        return record

    def load(
        self, version_id: str, touch_at: Optional[float] = None
    ) -> VersionRecord:
        """One version record: memory tier, then disk.

        ``touch_at`` (caller's clock) refreshes the LRU index entry so
        actively-served versions stay resident under the byte cap.
        Unknown ids and future-schema files raise :class:`StoreError`.
        """
        with self._lock:
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
        """Lookup under ``self._lock``; None when nowhere to be found."""
        record = self._mem.get(version_id)
        if record is not None:
            counter("store.loads.mem").inc()
            return record
        if not self.persist:
            return None
        path = self.version_path(version_id)
        if not os.path.exists(path):
            return None
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as e:
            raise StoreError(
                f"version file for {version_id[:16]} is unreadable: {e}"
            ) from e
        record = record_from_dict(payload)
        self._mem[version_id] = record
        counter("store.loads.disk").inc()
        if touch_at is not None:
            self._touch_index(version_id, atime=touch_at)
        return record

    def _write_record(self, record: VersionRecord, timestamp: float) -> None:
        os.makedirs(self.versions_dir, exist_ok=True)
        blob = json.dumps(
            record.to_dict(), indent=2, sort_keys=True
        ).encode()
        atomic_write(self.version_path(record.version_id), blob)
        self._touch_index(
            record.version_id, atime=timestamp, size=len(blob)
        )

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
        with self._lock:
            docs = self._load_slots()
            doc = docs.setdefault(slot, _empty_slot_doc())
            vid = record.version_id
            if self._get_record(vid) is None:
                self._mem[vid] = record
                self._write_record(record, timestamp)
                counter("store.adoptions").inc()
            if doc.get("latest") is None:
                doc["latest"] = vid
                self._append_history(doc, vid)
            self._write_manifest()
            self._update_gauges()
        return record

    @staticmethod
    def _append_history(doc: Dict[str, Any], vid: str) -> None:
        history = doc.setdefault("history", [])
        if not history or history[-1] != vid:
            history.append(vid)
        del history[:-HISTORY_LIMIT]

    # -- routing mutations ---------------------------------------------------

    def promote(self, slot: str) -> SlotState:
        """Canary graduates to ``latest``; the canary slice clears."""
        with self._lock:
            docs = self._load_slots()
            doc = docs.get(slot)
            if doc is None:
                raise StoreError(f"unknown slot {slot[:16]!r}")
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
            self._write_manifest()
            return self._state(slot, doc)

    def rollback(self, slot: str) -> SlotState:
        """Undo one routing step.

        With a live canary: clear it (all traffic back on ``latest``).
        Otherwise: step ``latest`` back to the previous history entry
        (the abandoned head leaves the history and becomes gc-able).
        At the root of history there is nothing to roll back to.
        """
        with self._lock:
            docs = self._load_slots()
            doc = docs.get(slot)
            if doc is None:
                raise StoreError(f"unknown slot {slot[:16]!r}")
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
            self._write_manifest()
            return self._state(slot, doc)

    def tag(self, slot: str, name: str, version_id: str) -> SlotState:
        """Pin ``version_id`` under ``name`` (gc never collects pins)."""
        with self._lock:
            docs = self._load_slots()
            doc = docs.get(slot)
            if doc is None:
                raise StoreError(f"unknown slot {slot[:16]!r}")
            if self._get_record(version_id) is None:
                raise StoreError(
                    f"unknown artifact version {version_id[:16]!r}"
                )
            doc.setdefault("tags", {})[name] = version_id
            self._write_manifest()
            return self._state(slot, doc)

    def untag(self, slot: str, name: str) -> SlotState:
        with self._lock:
            docs = self._load_slots()
            doc = docs.get(slot)
            if doc is None:
                raise StoreError(f"unknown slot {slot[:16]!r}")
            if name not in (doc.get("tags") or {}):
                raise StoreError(
                    f"slot {slot[:16]} has no tag {name!r}"
                )
            del doc["tags"][name]
            self._write_manifest()
            return self._state(slot, doc)

    # -- space management ----------------------------------------------------

    def _referenced(self, docs: Dict[str, Dict[str, Any]]) -> Set[str]:
        refs: Set[str] = set()
        for slot in sorted(docs):
            refs.update(self._state(slot, docs[slot]).referenced())
        return refs

    def _touch_index(
        self, version_id: str, atime: float, size: Optional[int] = None
    ) -> None:
        """Buffered LRU touch — folded into the next locked index write
        (publish, cap enforcement, gc); a warm load writes nothing."""
        self._index.touch(version_id, float(atime), size=size)

    def _mutate_index(self, fn=None) -> None:
        """One file-locked index write: buffered touches + ``fn``."""
        if not self.persist:
            return
        os.makedirs(self.directory, exist_ok=True)
        try:
            self._index.mutate(fn)
        except OSError:
            pass  # LRU bookkeeping is an optimization, never a failure

    def _scan_versions(self) -> Dict[str, int]:
        """``{version_id: size_bytes}`` of every record file on disk."""
        sizes: Dict[str, int] = {}
        try:
            names = sorted(os.listdir(self.versions_dir))
        except OSError:
            return sizes
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.versions_dir, name)
            try:
                sizes[name[: -len(".json")]] = os.path.getsize(path)
            except OSError:
                continue
        return sizes

    def _remove_version(self, version_id: str) -> None:
        try:
            os.unlink(self.version_path(version_id))
        except OSError:
            pass
        self._mem.pop(version_id, None)

    def _enforce_cap(self, docs: Dict[str, Dict[str, Any]]) -> None:
        """Evict unreferenced versions, LRU first, until under the cap.

        Anything a manifest references — latest, canary, tags, rollback
        history — is never evicted, even over the cap: routing must not
        break because the store got full.  Runs as one file-locked
        index write, which also lands the publish's buffered touch.
        """
        referenced = self._referenced(docs)

        def evict(index: Dict[str, Entry]) -> None:
            sizes = self._scan_versions()
            total = sum(sizes.values())
            if total <= self.max_bytes:
                return
            evictable = sorted(
                (vid for vid in sizes if vid not in referenced),
                key=lambda vid: index.get(vid, {}).get("atime", 0.0),
            )
            for vid in evictable:
                if total <= self.max_bytes:
                    break
                total -= sizes[vid]
                self._remove_version(vid)
                index.pop(vid, None)
                counter("store.evictions").inc()

        self._mutate_index(evict)

    def gc(self) -> Dict[str, Any]:
        """Remove every version no manifest entry references.

        Returns ``{"removed": [...], "freed_bytes": n, "kept": n}``.
        Unlike cap eviction (which stops at the byte cap), gc prunes
        *all* unreferenced versions — rolled-back heads, trimmed
        history, orphan files from deleted slots.
        """
        with self._lock:
            docs = self._load_slots()
            referenced = self._referenced(docs)
            sizes = self._scan_versions()
            removed: List[str] = []
            freed = 0
            for vid in sorted(sizes):
                if vid in referenced:
                    continue
                freed += sizes[vid]
                self._remove_version(vid)
                self._index.forget(vid)
                removed.append(vid)
            # Memory-only strays (persist=False stores, or records whose
            # file was already gone).
            for vid in sorted(set(self._mem) - referenced):
                self._mem.pop(vid, None)
                if vid not in removed:
                    removed.append(vid)
            if removed:
                counter("store.gc.removed").inc(len(removed))

            def prune(index: Dict[str, Entry]) -> None:
                for vid in removed:
                    index.pop(vid, None)

            self._mutate_index(prune)
            self._update_gauges()
        return {
            "removed": removed,
            "freed_bytes": freed,
            "kept": len(sizes) - sum(1 for v in removed if v in sizes),
        }

    def disk_stats(self) -> Dict[str, int]:
        """``{"bytes": ..., "versions": ...}`` of the disk tier (also
        refreshes the ``store.disk.*`` gauges)."""
        with self._lock:
            return self._update_gauges()

    def _update_gauges(self) -> Dict[str, int]:
        sizes = self._scan_versions()
        stats = {"bytes": sum(sizes.values()), "versions": len(sizes)}
        gauge("store.disk.bytes").set(stats["bytes"])
        gauge("store.disk.versions").set(stats["versions"])
        return stats
