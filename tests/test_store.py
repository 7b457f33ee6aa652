"""The versioned artifact store: records, routing manifest, space.

Pure store-level tests — the payload is opaque JSON here (the store
never interprets it), so none of these need a fitted model.  The
serve-layer integration (hot swap, canary routing over HTTP) lives in
``test_store_serve.py``.
"""

import json
import multiprocessing
import os
import pathlib
import shutil
import sys
import tempfile
import threading

import pytest

from repro.errors import ConfigurationError
from repro.store import (
    ArtifactStore,
    LEGACY_ARTIFACT_SCHEMA_VERSION,
    MANIFEST_SCHEMA_VERSION,
    STORE_SCHEMA_VERSION,
    SlotState,
    StoreError,
    VersionRecord,
    record_from_dict,
    version_id_for,
)
from repro.store.store import DEFAULT_STORE_MAX_BYTES, HISTORY_LIMIT

PAYLOAD_A = {"config_label": "snc4-flat", "r_local": 4.0}
PAYLOAD_B = {"config_label": "snc4-flat", "r_local": 5.0}
PAYLOAD_C = {"config_label": "snc4-flat", "r_local": 6.0}


def store_at(tmp_path, **kw):
    return ArtifactStore(directory=str(tmp_path), **kw)


# -- records -----------------------------------------------------------------


class TestVersionRecords:
    def test_native_round_trip_is_exact(self):
        record = VersionRecord(
            version_id=version_id_for("slot-a", PAYLOAD_A),
            slot="slot-a",
            capability=dict(PAYLOAD_A),
            machine="knl-7250",
            config_label="snc4-flat",
            parent="deadbeef",
            created_at=1234.5,
            iterations=20,
            seed=1234,
            fit_seconds=0.25,
            notes="hello",
        )
        assert record_from_dict(record.to_dict()) == record

    def test_content_addressing_excludes_provenance(self):
        """Parent/timestamp edits can never fork the version id."""
        assert version_id_for("s", PAYLOAD_A) == version_id_for(
            "s", dict(PAYLOAD_A)
        )
        assert version_id_for("s", PAYLOAD_A) != version_id_for(
            "s", PAYLOAD_B
        )
        assert version_id_for("s", PAYLOAD_A) != version_id_for(
            "other", PAYLOAD_A
        )

    def test_legacy_artifact_file_migrates(self):
        legacy = {
            "schema_version": LEGACY_ARTIFACT_SCHEMA_VERSION,
            "key": "slot-a",
            "machine": "knl-7250",
            "capability": dict(PAYLOAD_A),
        }
        record = record_from_dict(legacy)
        assert record.slot == "slot-a"
        assert record.version_id == version_id_for("slot-a", PAYLOAD_A)
        assert record.parent is None and record.created_at == 0.0
        assert "legacy" in (record.notes or "")

    def test_legacy_without_key_needs_a_slot(self):
        legacy = {
            "schema_version": LEGACY_ARTIFACT_SCHEMA_VERSION,
            "capability": dict(PAYLOAD_A),
        }
        assert record_from_dict(legacy, slot="given").slot == "given"
        with pytest.raises(StoreError, match="no 'key'"):
            record_from_dict(legacy)

    def test_future_schema_is_rejected_by_name(self):
        """A file written by a newer build fails loudly, naming both
        the file's version and the supported one."""
        future = STORE_SCHEMA_VERSION + 1
        with pytest.raises(StoreError) as err:
            record_from_dict({"schema_version": future, "capability": {}})
        assert str(future) in str(err.value)
        assert str(STORE_SCHEMA_VERSION) in str(err.value)
        assert "upgrade" in str(err.value)

    def test_unrecognized_schema_is_rejected(self):
        with pytest.raises(StoreError, match="unrecognized"):
            record_from_dict({"schema_version": "two", "capability": {}})
        with pytest.raises(StoreError, match="JSON object"):
            record_from_dict(["not", "a", "record"])

    def test_missing_required_fields_are_named(self):
        with pytest.raises(StoreError, match="capability"):
            record_from_dict(
                {
                    "schema_version": STORE_SCHEMA_VERSION,
                    "version_id": "x",
                    "slot": "s",
                }
            )


# -- publish / routing -------------------------------------------------------


class TestPublish:
    def test_publish_sets_latest_and_lineage(self, tmp_path):
        store = store_at(tmp_path)
        v1 = store.publish("slot-a", PAYLOAD_A, timestamp=1.0)
        v2 = store.publish("slot-a", PAYLOAD_B, timestamp=2.0)
        assert v1.parent is None
        assert v2.parent == v1.version_id
        state = store.slot_state("slot-a")
        assert state.latest == v2.version_id
        assert state.history == (v1.version_id, v2.version_id)

    def test_identical_payload_dedups_to_one_version(self, tmp_path):
        store = store_at(tmp_path)
        v1 = store.publish("slot-a", PAYLOAD_A, timestamp=1.0)
        again = store.publish("slot-a", dict(PAYLOAD_A), timestamp=99.0)
        assert again.version_id == v1.version_id
        # Dedup returns the original record: immutable provenance.
        assert again.created_at == 1.0
        assert len(os.listdir(tmp_path / "versions")) == 1

    def test_dedup_republish_leaves_a_live_canary_alone(self, tmp_path):
        """Republishing the stable payload while a *different* version
        canaries must not tear the canary down."""
        store = store_at(tmp_path)
        v1 = store.publish("slot-a", PAYLOAD_A, timestamp=1.0)
        v2 = store.publish(
            "slot-a", PAYLOAD_B, timestamp=2.0, canary_percent=25.0
        )
        store.publish("slot-a", dict(PAYLOAD_A), timestamp=3.0)
        state = store.slot_state("slot-a")
        assert state.latest == v1.version_id
        assert state.canary == v2.version_id
        assert state.canary_percent == 25.0

    def test_canary_publish_does_not_move_latest(self, tmp_path):
        store = store_at(tmp_path)
        v1 = store.publish("slot-a", PAYLOAD_A, timestamp=1.0)
        v2 = store.publish(
            "slot-a", PAYLOAD_B, timestamp=2.0, canary_percent=10.0
        )
        state = store.slot_state("slot-a")
        assert state.latest == v1.version_id
        assert state.canary == v2.version_id
        assert state.history == (v1.version_id,)

    def test_promoting_the_latest_payload_clears_its_canary(self, tmp_path):
        """Publishing stably what currently canaries converges: the
        canary slice clears instead of double-routing one version."""
        store = store_at(tmp_path)
        store.publish("slot-a", PAYLOAD_A, timestamp=1.0)
        v2 = store.publish(
            "slot-a", PAYLOAD_B, timestamp=2.0, canary_percent=25.0
        )
        store.publish("slot-a", dict(PAYLOAD_B), timestamp=3.0)
        state = store.slot_state("slot-a")
        assert state.latest == v2.version_id
        assert state.canary is None and state.canary_percent == 0.0

    def test_canary_percent_is_validated(self, tmp_path):
        store = store_at(tmp_path)
        with pytest.raises(StoreError, match="canary_percent"):
            store.publish(
                "slot-a", PAYLOAD_A, timestamp=1.0, canary_percent=150.0
            )

    def test_concurrent_identical_publishes_single_flight(self, tmp_path):
        """N threads racing the same payload produce exactly one
        version file and one version id."""
        store = store_at(tmp_path)
        results, errors = [], []
        barrier = threading.Barrier(8)

        def publish():
            try:
                barrier.wait()
                results.append(
                    store.publish("slot-a", PAYLOAD_A, timestamp=1.0)
                )
            except Exception as e:  # pragma: no cover - fail loudly
                errors.append(e)

        threads = [threading.Thread(target=publish) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len({r.version_id for r in results}) == 1
        assert os.listdir(tmp_path / "versions") == [
            f"{results[0].version_id}.json"
        ]
        assert store.slot_state("slot-a").history == (
            results[0].version_id,
        )


class TestRoutingMutations:
    def test_promote_graduates_the_canary(self, tmp_path):
        store = store_at(tmp_path)
        v1 = store.publish("slot-a", PAYLOAD_A, timestamp=1.0)
        v2 = store.publish(
            "slot-a", PAYLOAD_B, timestamp=2.0, canary_percent=25.0
        )
        state = store.promote("slot-a")
        assert state.latest == v2.version_id
        assert state.canary is None and state.canary_percent == 0.0
        assert state.history == (v1.version_id, v2.version_id)

    def test_promote_without_canary_refuses(self, tmp_path):
        store = store_at(tmp_path)
        store.publish("slot-a", PAYLOAD_A, timestamp=1.0)
        with pytest.raises(StoreError, match="no canary"):
            store.promote("slot-a")

    def test_rollback_clears_a_canary_first(self, tmp_path):
        store = store_at(tmp_path)
        v1 = store.publish("slot-a", PAYLOAD_A, timestamp=1.0)
        store.publish(
            "slot-a", PAYLOAD_B, timestamp=2.0, canary_percent=25.0
        )
        state = store.rollback("slot-a")
        assert state.canary is None
        assert state.latest == v1.version_id

    def test_rollback_steps_latest_back_through_history(self, tmp_path):
        store = store_at(tmp_path)
        v1 = store.publish("slot-a", PAYLOAD_A, timestamp=1.0)
        store.publish("slot-a", PAYLOAD_B, timestamp=2.0)
        state = store.rollback("slot-a")
        assert state.latest == v1.version_id
        assert state.history == (v1.version_id,)
        with pytest.raises(StoreError, match="no previous version"):
            store.rollback("slot-a")

    def test_tags_pin_versions(self, tmp_path):
        store = store_at(tmp_path)
        v1 = store.publish("slot-a", PAYLOAD_A, timestamp=1.0)
        state = store.tag("slot-a", "golden", v1.version_id)
        assert ("golden", v1.version_id) in state.tags
        state = store.untag("slot-a", "golden")
        assert state.tags == ()
        with pytest.raises(StoreError, match="no tag"):
            store.untag("slot-a", "golden")
        with pytest.raises(StoreError, match="unknown artifact version"):
            store.tag("slot-a", "golden", "0" * 64)

    def test_unknown_slot_mutations_refuse(self, tmp_path):
        store = store_at(tmp_path)
        for op in (store.promote, store.rollback):
            with pytest.raises(StoreError, match="unknown slot"):
                op("nope")

    def test_resolve_slot_prefix(self, tmp_path):
        store = store_at(tmp_path)
        store.publish("abc-one", PAYLOAD_A, timestamp=1.0)
        store.publish("abd-two", PAYLOAD_B, timestamp=2.0)
        assert store.resolve_slot("abc") == "abc-one"
        assert store.resolve_slot("abd-two") == "abd-two"
        with pytest.raises(StoreError, match="ambiguous"):
            store.resolve_slot("ab")
        with pytest.raises(StoreError, match="no slot matches"):
            store.resolve_slot("zzz")


# -- persistence / tiers -----------------------------------------------------


class TestPersistence:
    def test_a_fresh_store_reads_what_another_wrote(self, tmp_path):
        writer = store_at(tmp_path)
        v1 = writer.publish(
            "slot-a", PAYLOAD_A, timestamp=1.0, machine="knl-7250"
        )
        reader = store_at(tmp_path)
        assert reader.slot_state("slot-a").latest == v1.version_id
        record = reader.load(v1.version_id, touch_at=2.0)
        assert record.capability == PAYLOAD_A
        assert record.machine == "knl-7250"

    def test_a_second_store_sees_a_publish_at_once(self, tmp_path):
        a, b = store_at(tmp_path), store_at(tmp_path)
        a.publish("slot-a", PAYLOAD_A, timestamp=1.0)
        assert b.slot_state("slot-a").latest is not None  # first read
        v2 = a.publish("slot-a", PAYLOAD_B, timestamp=2.0)
        # No call in between: the manifest is b's only copy of the
        # routing, so its next read sees a's publish.
        assert b.slot_state("slot-a").latest == v2.version_id

    def test_future_manifest_schema_is_rejected_by_name(self, tmp_path):
        store = store_at(tmp_path)
        store.publish("slot-a", PAYLOAD_A, timestamp=1.0)
        path = tmp_path / "manifest.json"
        doc = json.loads(path.read_text())
        doc["schema_version"] = MANIFEST_SCHEMA_VERSION + 1
        path.write_text(json.dumps(doc))
        fresh = store_at(tmp_path)
        with pytest.raises(StoreError) as err:
            fresh.slots()
        assert str(MANIFEST_SCHEMA_VERSION + 1) in str(err.value)
        assert str(MANIFEST_SCHEMA_VERSION) in str(err.value)

    def test_unknown_version_load_names_the_id(self, tmp_path):
        store = store_at(tmp_path)
        with pytest.raises(StoreError, match="unknown artifact version"):
            store.load("f" * 64)

    def test_memory_only_store_never_touches_disk(self, tmp_path):
        store = store_at(tmp_path, persist=False)
        v1 = store.publish("slot-a", PAYLOAD_A, timestamp=1.0)
        assert store.load(v1.version_id).capability == PAYLOAD_A
        assert not os.path.exists(tmp_path / "versions")
        assert not os.path.exists(tmp_path / "manifest.json")

    def test_rejects_nonsense_byte_cap(self, tmp_path):
        with pytest.raises(ConfigurationError):
            store_at(tmp_path, max_bytes=0)


def _publish_slots(directory, prefix, barrier, count):
    """Forked publisher: read the manifest, wait for the other writer
    to have read it too, then publish ``count`` slots."""
    store = ArtifactStore(directory=directory)
    store.slots()
    barrier.wait(timeout=60)
    for i in range(count):
        store.publish(
            f"{prefix}-{i}",
            {"config_label": prefix, "r_local": float(i)},
            timestamp=float(i),
        )


class TestConcurrentPublishers:
    """Writers that read the manifest before another writer's publish
    never drop or collect what that writer routed."""

    def test_two_processes_publish_different_slots(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(
                target=_publish_slots,
                args=(str(tmp_path), prefix, barrier, 6),
                daemon=True,
            )
            for prefix in ("slot-a", "slot-b")
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert [proc.exitcode for proc in procs] == [0, 0]
        with open(tmp_path / "manifest.json") as fh:
            routed = set(json.load(fh)["slots"])
        assert routed == {
            f"{prefix}-{i}" for prefix in ("slot-a", "slot-b")
            for i in range(6)
        }
        fresh = store_at(tmp_path)
        for state in fresh.slots():
            fresh.load(state.latest)

    def test_two_stores_that_read_the_empty_manifest_both_land(
        self, tmp_path
    ):
        a, b = store_at(tmp_path), store_at(tmp_path)
        assert a.slots() == [] and b.slots() == []
        a.publish("slot-a", PAYLOAD_A, timestamp=1.0)
        b.publish("slot-b", PAYLOAD_B, timestamp=2.0)
        with open(tmp_path / "manifest.json") as fh:
            assert set(json.load(fh)["slots"]) == {"slot-a", "slot-b"}

    def test_gc_after_another_stores_publish_keeps_its_version(
        self, tmp_path
    ):
        stale = store_at(tmp_path)
        stale.publish("slot-a", PAYLOAD_A, timestamp=1.0)
        assert [s.slot for s in stale.slots()] == ["slot-a"]
        v_b = store_at(tmp_path).publish("slot-b", PAYLOAD_B, timestamp=2.0)
        stale.gc()
        fresh = store_at(tmp_path)
        latest = fresh.slot_state("slot-b").latest
        assert latest == v_b.version_id
        assert fresh.load(latest).capability == PAYLOAD_B


class TestLegacyAdoption:
    def legacy_file(self, tmp_path, slot, payload):
        (tmp_path / f"{slot}.json").write_text(
            json.dumps(
                {
                    "schema_version": LEGACY_ARTIFACT_SCHEMA_VERSION,
                    "key": slot,
                    "capability": payload,
                }
            )
        )

    def test_adoption_moves_the_flat_file_into_the_store(self, tmp_path):
        self.legacy_file(tmp_path, "slot-a", PAYLOAD_A)
        store = store_at(tmp_path)
        record = store.adopt_legacy("slot-a", timestamp=5.0)
        assert record is not None
        assert store.slot_state("slot-a").latest == record.version_id
        assert os.path.exists(store.version_path(record.version_id))
        # Idempotent: a second adoption dedups and keeps the routing.
        again = store.adopt_legacy("slot-a", timestamp=6.0)
        assert again.version_id == record.version_id
        assert len(os.listdir(tmp_path / "versions")) == 1

    def test_adoption_never_steals_an_already_routed_slot(self, tmp_path):
        store = store_at(tmp_path)
        v1 = store.publish("slot-a", PAYLOAD_A, timestamp=1.0)
        self.legacy_file(tmp_path, "slot-a", PAYLOAD_B)
        store.adopt_legacy("slot-a", timestamp=2.0)
        assert store.slot_state("slot-a").latest == v1.version_id

    def test_corrupt_or_missing_legacy_file_means_refit(self, tmp_path):
        store = store_at(tmp_path)
        assert store.adopt_legacy("never-there") is None
        (tmp_path / "bad.json").write_text("{not json")
        assert store.adopt_legacy("bad") is None


# -- space management --------------------------------------------------------


class TestSpace:
    def test_gc_removes_only_unreferenced_versions(self, tmp_path):
        store = store_at(tmp_path)
        v1 = store.publish("slot-a", PAYLOAD_A, timestamp=1.0)
        v2 = store.publish("slot-a", PAYLOAD_B, timestamp=2.0)
        store.rollback("slot-a")  # v2 leaves history -> collectable
        report = store.gc()
        assert report["removed"] == [v2.version_id]
        assert report["freed_bytes"] > 0
        assert not os.path.exists(store.version_path(v2.version_id))
        assert os.path.exists(store.version_path(v1.version_id))
        # And v2 is truly gone, not lingering in the memory tier.
        with pytest.raises(StoreError):
            store.load(v2.version_id)

    def test_gc_never_collects_tags_canaries_or_history(self, tmp_path):
        store = store_at(tmp_path)
        v1 = store.publish("slot-a", PAYLOAD_A, timestamp=1.0)
        v2 = store.publish(
            "slot-a", PAYLOAD_B, timestamp=2.0, canary_percent=25.0
        )
        v3 = store.publish("slot-b", PAYLOAD_C, timestamp=3.0)
        store.tag("slot-b", "golden", v3.version_id)
        report = store.gc()
        assert report["removed"] == []
        for vid in (v1.version_id, v2.version_id, v3.version_id):
            assert os.path.exists(store.version_path(vid))

    def test_byte_cap_evicts_lru_but_never_referenced(self, tmp_path):
        store = store_at(tmp_path, max_bytes=1)  # everything is over cap
        v1 = store.publish("slot-a", PAYLOAD_A, timestamp=1.0)
        v2 = store.publish("slot-a", PAYLOAD_B, timestamp=2.0)
        store.rollback("slot-a")  # v2 unreferenced, LRU-evictable
        store.publish("slot-a", PAYLOAD_C, timestamp=3.0)
        remaining = set(os.listdir(tmp_path / "versions"))
        assert f"{v2.version_id}.json" not in remaining
        # Referenced versions survive even with the store over cap:
        # routing must not break because the disk filled up.
        assert f"{v1.version_id}.json" in remaining
        assert len(remaining) == 2

    def test_disk_stats_counts_version_files(self, tmp_path):
        store = store_at(tmp_path)
        assert store.disk_stats() == {"bytes": 0, "versions": 0}
        store.publish("slot-a", PAYLOAD_A, timestamp=1.0)
        store.publish("slot-b", PAYLOAD_B, timestamp=2.0)
        stats = store.disk_stats()
        assert stats["versions"] == 2 and stats["bytes"] > 0


# -- committed on-disk layout ------------------------------------------------

STORE_FIXTURE = (
    pathlib.Path(__file__).resolve().parent / "fixtures" / "artifact_store"
)
FIXTURE_SLOT = "slot-a"
LEGACY_SLOT = "slot-legacy"
#: What the fixture's slot was built from, by role.  The records'
#: ``r_local`` tells them apart, so the test can name each version
#: without hardcoding ids that depend on ``repro.__version__``.
FIXTURE_PAYLOADS = {
    "first": {"config_label": "snc4-flat", "r_local": 4.0},
    "second": {"config_label": "snc4-flat", "r_local": 5.0},
    "latest": {"config_label": "snc4-flat", "r_local": 6.0},
    "orphan": {"config_label": "snc4-flat", "r_local": 7.0},
    "canary": {"config_label": "snc4-flat", "r_local": 8.0},
}
LEGACY_PAYLOAD = {"config_label": "quad-cache", "r_local": 3.5}


class TestArtifactStoreSchema:
    """The on-disk store that existing deployments depend on.

    ``tests/fixtures/artifact_store`` was written by the current code
    and is committed as-is: ``manifest.json`` (schema
    ``MANIFEST_SCHEMA_VERSION`` 1) with one slot holding a latest, a
    25% canary, a tag and a 3-entry history; ``versions/*.json``
    records (schema 2), one of them an orphan no slot references;
    ``index.json``; and a legacy flat ``slot-legacy.json`` (schema 1).
    Version ids include ``repro.__version__``, so the test reads them
    from the committed records rather than recomputing them.

    Regenerate (only when the layout is meant to change) with::

        PYTHONPATH=src python tests/test_store.py --write
    """

    @pytest.fixture
    def store_dir(self, tmp_path):
        target = tmp_path / "store"
        shutil.copytree(STORE_FIXTURE, target)
        return target

    @staticmethod
    def committed_ids(store_dir):
        """Role -> version id, read from the committed record files."""
        by_r_local = {
            p["r_local"]: role for role, p in FIXTURE_PAYLOADS.items()
        }
        ids = {}
        for path in sorted((store_dir / "versions").iterdir()):
            doc = json.loads(path.read_text())
            assert doc["schema_version"] == STORE_SCHEMA_VERSION == 2
            assert path.name == f"{doc['version_id']}.json"
            ids[by_r_local[doc["capability"]["r_local"]]] = doc["version_id"]
        assert sorted(ids) == sorted(FIXTURE_PAYLOADS)
        return ids

    def test_committed_files_carry_their_schemas(self, store_dir):
        manifest = json.loads((store_dir / "manifest.json").read_text())
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION == 1
        legacy = json.loads((store_dir / f"{LEGACY_SLOT}.json").read_text())
        assert legacy["schema_version"] == LEGACY_ARTIFACT_SCHEMA_VERSION == 1
        ids = self.committed_ids(store_dir)
        index = json.loads((store_dir / "index.json").read_text())
        assert set(index) == set(ids.values())
        for vid, entry in index.items():
            size = (store_dir / "versions" / f"{vid}.json").stat().st_size
            assert entry["size"] == size

    def test_slots_return_the_committed_state(self, store_dir):
        ids = self.committed_ids(store_dir)
        assert store_at(store_dir).slots() == [
            SlotState(
                slot=FIXTURE_SLOT,
                latest=ids["latest"],
                canary=ids["canary"],
                canary_percent=25.0,
                tags=(("golden", ids["second"]),),
                history=(ids["first"], ids["second"], ids["latest"]),
            )
        ]

    def test_load_returns_the_committed_records(self, store_dir):
        ids = self.committed_ids(store_dir)
        parents = {
            "first": None,
            "second": ids["first"],
            "latest": ids["second"],
            "orphan": ids["latest"],
            "canary": ids["latest"],
        }
        store = store_at(store_dir)
        for when, role in enumerate(FIXTURE_PAYLOADS, start=1):
            assert store.load(ids[role]) == VersionRecord(
                version_id=ids[role],
                slot=FIXTURE_SLOT,
                capability=FIXTURE_PAYLOADS[role],
                machine="knl-7250",
                config_label="snc4-flat",
                parent=parents[role],
                created_at=float(when),
                iterations=10,
                seed=1234,
                fit_seconds=0.5,
                notes=f"fixture {role}",
            )

    def test_legacy_flat_file_is_adopted(self, store_dir):
        ids = self.committed_ids(store_dir)
        store = store_at(store_dir)
        record = store.adopt_legacy(LEGACY_SLOT, timestamp=9.0)
        assert record is not None
        assert record.version_id == version_id_for(LEGACY_SLOT, LEGACY_PAYLOAD)
        assert record.capability == LEGACY_PAYLOAD
        assert record.machine == "knl-7210" and record.seed == 7
        assert store.slot_state(LEGACY_SLOT).latest == record.version_id
        assert store.load(record.version_id) == record
        # The committed slot's routing is untouched.
        assert store.slot_state(FIXTURE_SLOT).latest == ids["latest"]

    def test_gc_removes_exactly_the_orphan(self, store_dir):
        ids = self.committed_ids(store_dir)
        report = store_at(store_dir).gc()
        assert report["removed"] == [ids["orphan"]]
        assert report["kept"] == len(ids) - 1
        left = {p.name for p in (store_dir / "versions").iterdir()}
        assert left == {
            f"{vid}.json" for role, vid in ids.items() if role != "orphan"
        }
        index = json.loads((store_dir / "index.json").read_text())
        assert ids["orphan"] not in index

    # The store never reads the clock: every ``atime`` in its index is
    # a time its caller passed in.

    def atime_after(self, store_dir, **load_kw):
        """Load the fixture's first version, publish a new one, and
        return the first version's ``atime`` from ``index.json``."""
        vid = self.committed_ids(store_dir)["first"]
        store = store_at(store_dir)
        store.load(vid, **load_kw)
        store.publish(
            "slot-b", {"config_label": "snc4-flat", "r_local": 9.5},
            timestamp=6.0,
        )
        return json.loads((store_dir / "index.json").read_text())[vid]["atime"]

    def test_a_load_without_touch_at_leaves_atime_alone(self, store_dir):
        """WHEN a version is loaded without ``touch_at`` and a publish
        follows THEN that version's committed ``atime`` is unchanged."""
        assert self.atime_after(store_dir) == 1.0

    def test_a_load_with_touch_at_writes_that_time(self, store_dir):
        """WHEN a version is loaded with ``touch_at=9.0`` and a publish
        follows THEN the index holds exactly 9.0 for it."""
        assert self.atime_after(store_dir, touch_at=9.0) == 9.0


# -- crash consistency -------------------------------------------------------


def _store_workload(directory, max_bytes):
    """Every kind of store write, in order: publish, rollback, canary
    publish, promote, enough publishes to trim the history, then gc."""
    store = ArtifactStore(directory=directory, max_bytes=max_bytes)
    store.publish("slot-a", PAYLOAD_A, timestamp=1.0)
    store.publish("slot-a", PAYLOAD_B, timestamp=2.0)
    store.rollback("slot-a")
    store.publish("slot-a", PAYLOAD_C, timestamp=3.0, canary_percent=25.0)
    store.promote("slot-a")
    for i in range(HISTORY_LIMIT + 1):
        payload = {"config_label": "snc4-flat", "r_local": 10.0 + i}
        store.publish("slot-a", payload, timestamp=4.0 + i)
    store.gc()


class TestCrashConsistency:
    """A store killed at any atomic replace stays consistent."""

    @staticmethod
    def version_files(directory):
        return {
            name[: -len(".json")]
            for name in os.listdir(os.path.join(directory, "versions"))
            if name.endswith(".json")
        }

    def check(self, directory, max_bytes):
        from tests.cache_stress import temp_files

        store = ArtifactStore(directory=directory, max_bytes=max_bytes)
        for state in store.slots():
            for vid in state.referenced():
                store.load(vid)  # every manifest reference resolves
        store.publish("slot-z", PAYLOAD_A, timestamp=100.0)
        store.gc()
        referenced = set()
        for state in store.slots():
            referenced |= state.referenced()
        files = self.version_files(directory)
        assert files <= referenced, "gc left an unreferenced version"
        with open(os.path.join(directory, "index.json")) as fh:
            assert set(json.load(fh)) == files, "index out of step"
        assert temp_files(directory) == [], "a dead writer's temp file"

    @pytest.mark.parametrize("max_bytes", [1, DEFAULT_STORE_MAX_BYTES])
    def test_a_crash_at_every_replace_leaves_a_consistent_store(
        self, tmp_path, max_bytes
    ):
        from tests.cache_stress import run_until_replace

        for n in range(1, 200):
            directory = str(tmp_path / f"crash-{n}")
            code = run_until_replace(n, _store_workload, directory, max_bytes)
            if code == 0:
                break
            assert code == 137, f"the workload failed before replace {n}"
            self.check(directory, max_bytes)
        else:
            pytest.fail("the workload made 200 or more replaces")
        # publish/rollback/canary/promote/trim/gc: dozens of replaces.
        assert n > 40


def _write_store_fixture() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        store = ArtifactStore(directory=scratch)
        published = {}
        roles = enumerate(FIXTURE_PAYLOADS.items(), start=1)
        for when, (role, payload) in roles:
            published[role] = store.publish(
                FIXTURE_SLOT,
                payload,
                timestamp=float(when),
                machine="knl-7250",
                iterations=10,
                seed=1234,
                fit_seconds=0.5,
                notes=f"fixture {role}",
                canary_percent=25.0 if role == "canary" else None,
            )
            if role == "orphan":
                store.rollback(FIXTURE_SLOT)  # the orphan leaves history
        store.tag(FIXTURE_SLOT, "golden", published["second"].version_id)
        with open(os.path.join(scratch, f"{LEGACY_SLOT}.json"), "w") as fh:
            json.dump(
                {
                    "schema_version": LEGACY_ARTIFACT_SCHEMA_VERSION,
                    "key": LEGACY_SLOT,
                    "capability": LEGACY_PAYLOAD,
                    "machine": "knl-7210",
                    "iterations": 5,
                    "seed": 7,
                },
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")
        shutil.rmtree(STORE_FIXTURE, ignore_errors=True)
        shutil.copytree(
            scratch, STORE_FIXTURE, ignore=shutil.ignore_patterns("*.lock")
        )
    print(f"wrote the artifact store fixture to {STORE_FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    _write_store_fixture()
