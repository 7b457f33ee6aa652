"""The unified cache subsystem (`repro.cache`).

Covers the contracts the ported layers rely on: LRU eviction-order
goldens, the batched-atime index (a warm hit performs zero index
writes — assertable via ``cache.index.writes``), corrupt-index and
ghost/orphan reconciliation, asyncio single-flight, the
multiprocessing lost-update regression the old ResultCache index
suffered from, and byte-identity of serve responses cold vs warm.
"""

import asyncio
import json
import os
import threading

import pytest

from repro.cache import (
    AsyncSingleFlight,
    CacheIndex,
    DiskTier,
    FileLock,
    INDEX_NAME,
    LRUCache,
)
from repro.obs import counter


def index_doc(directory):
    with open(os.path.join(directory, INDEX_NAME)) as fh:
        return json.load(fh)


class TestLRUCache:
    def test_count_cap_evicts_oldest_first(self):
        lru = LRUCache("t.count", max_entries=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("c", 3)
        assert lru.keys() == ("b", "c")
        assert lru.get("a") is None

    def test_get_refreshes_recency(self):
        lru = LRUCache("t.refresh", max_entries=2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # a is now the most recent
        lru.put("c", 3)
        assert lru.keys() == ("a", "c")

    def test_overwrite_replaces_not_duplicates(self):
        lru = LRUCache("t.replace", max_entries=2)
        lru.put("a", "A")
        lru.put("a", "A2")
        assert len(lru) == 1
        assert lru.get("a") == "A2"

    def test_invalidate(self):
        lru = LRUCache("t.inval")
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.invalidate("a") is True
        assert lru.invalidate("a") is False
        assert lru.keys() == ("b",)

    def test_metrics_vocabulary(self):
        hits = counter("cache.t.metrics.hits").value
        misses = counter("cache.t.metrics.misses").value
        lru = LRUCache("t.metrics", max_entries=1)
        lru.put("a", 1)
        lru.get("a")
        lru.get("zzz")
        assert counter("cache.t.metrics.hits").value == hits + 1
        assert counter("cache.t.metrics.misses").value == misses + 1


class TestFileLock:
    def test_serializes_threaded_read_modify_write(self, tmp_path):
        target = tmp_path / "value"
        target.write_text("0")
        lock = FileLock(str(tmp_path / "value.lock"))

        def bump():
            for _ in range(25):
                with lock:
                    n = int(target.read_text())
                    target.write_text(str(n + 1))

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert target.read_text() == "100"


class TestCacheIndex:
    def test_touch_buffers_without_writing(self, tmp_path):
        index = CacheIndex(str(tmp_path))
        index.touch("k", 10.0, size=5)
        assert not os.path.exists(index.path)
        assert index.dirty
        assert index.load() == {"k": {"atime": 10.0, "size": 5}}

    def test_mutate_merges_dirty_and_counts_one_write(self, tmp_path):
        writes = counter("cache.index.writes").value
        index = CacheIndex(str(tmp_path))
        index.touch("a", 1.0, size=3)
        index.touch("b", 2.0, size=4)
        index.mutate()
        assert counter("cache.index.writes").value == writes + 1
        assert index_doc(str(tmp_path)) == {
            "a": {"atime": 1.0, "size": 3},
            "b": {"atime": 2.0, "size": 4},
        }
        # flush() on a clean index is a no-op, not another write.
        index.flush()
        assert counter("cache.index.writes").value == writes + 1

    def test_atime_merge_takes_max(self, tmp_path):
        index = CacheIndex(str(tmp_path))
        index.touch("k", 50.0, size=1)
        index.mutate()
        index.touch("k", 10.0)  # stale touch must not move atime back
        assert index.mutate()["k"]["atime"] == 50.0

    def test_corrupt_index_degrades_to_empty(self, tmp_path):
        index = CacheIndex(str(tmp_path))
        with open(index.path, "w") as fh:
            fh.write("{not json at all")
        assert index.load() == {}

    def test_concurrent_threaded_mutates_lose_nothing(self, tmp_path):
        index = CacheIndex(str(tmp_path))

        def record(worker):
            mine = CacheIndex(str(tmp_path))
            for item in range(10):
                mine.touch(f"w{worker}-k{item}", float(item), size=1)
                mine.mutate()

        threads = [
            threading.Thread(target=record, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(index.load()) == 40


class TestCacheIndexFile:
    """Field semantics of ``index.json`` that every capped tier and the
    artifact store depend on, as WHEN/THEN scenarios."""

    def test_an_older_touch_never_lowers_atime(self, tmp_path):
        """WHEN a key is touched at 7.0 and then at 3.0, buffered or
        across a write, THEN its atime stays 7.0."""
        index = CacheIndex(str(tmp_path))
        index.touch("k", 7.0)
        index.touch("k", 3.0)
        assert index.load()["k"]["atime"] == 7.0
        index.mutate()
        index.touch("k", 3.0)
        assert index.load()["k"]["atime"] == 7.0
        assert index.mutate()["k"]["atime"] == 7.0
        assert index_doc(str(tmp_path))["k"]["atime"] == 7.0

    def test_a_touch_with_a_size_overwrites_the_stored_size(self, tmp_path):
        """WHEN a touch carries a size THEN it replaces the stored size;
        WHEN it carries none THEN the stored size is kept."""
        index = CacheIndex(str(tmp_path))
        index.touch("k", 1.0, size=10)
        index.mutate()
        index.touch("k", 2.0, size=4)
        assert index.mutate()["k"] == {"atime": 2.0, "size": 4}
        index.touch("k", 3.0)
        assert index.mutate()["k"] == {"atime": 3.0, "size": 4}

    @pytest.mark.parametrize(
        "text", ["{not json", "[1, 2]", "42", '"k"', "null", ""]
    )
    def test_a_corrupt_or_non_object_index_loads_empty(self, tmp_path, text):
        """WHEN ``index.json`` is not a JSON object THEN it loads as
        ``{}`` and the next write replaces it with a valid object."""
        index = CacheIndex(str(tmp_path))
        with open(index.path, "w") as fh:
            fh.write(text)
        assert index.load() == {}
        index.touch("k", 1.0, size=2)
        index.mutate()
        assert index_doc(str(tmp_path)) == {"k": {"atime": 1.0, "size": 2}}


class TestDiskTier:
    def test_warm_hit_does_zero_index_writes(self, tmp_path):
        tier = DiskTier(str(tmp_path), name="t.warm", max_bytes=10_000)
        tier.put("k", b"payload")
        writes = counter("cache.index.writes").value
        for _ in range(5):
            assert tier.get("k") == b"payload"
        assert counter("cache.index.writes").value == writes
        tier.flush()  # one batched write folds in all five touches
        assert counter("cache.index.writes").value == writes + 1

    def test_eviction_follows_access_order(self, tmp_path):
        tier = DiskTier(str(tmp_path), name="t.order", max_bytes=10_000)
        base = 2.0e12  # far beyond any real wall-clock atime
        for offset, key in ((3, "a"), (1, "b"), (4, "c"), (2, "d")):
            tier.put(key, b"x" * 100)
            tier.index.touch(key, base + offset)
        tier.max_bytes = 250
        assert tier.evict() == 2  # b then d, oldest synthetic atimes
        assert tier.keys() == ("a", "c")
        assert sorted(index_doc(str(tmp_path))) == ["a", "c"]

    def test_corrupt_index_is_rebuilt_from_directory(self, tmp_path):
        tier = DiskTier(str(tmp_path), name="t.rebuild", max_bytes=10_000)
        for key in ("a", "b", "c"):
            tier.put(key, b"x" * 10)
        with open(os.path.join(str(tmp_path), INDEX_NAME), "w") as fh:
            fh.write("garbage")
        reconciled = counter("cache.index.reconciled").value
        fresh = DiskTier(str(tmp_path), name="t.rebuild", max_bytes=10_000)
        fresh.evict()
        # All three blobs were adopted back — none orphaned forever.
        assert counter("cache.index.reconciled").value == reconciled + 3
        assert sorted(index_doc(str(tmp_path))) == ["a", "b", "c"]
        assert fresh.get("a") == b"x" * 10

    def test_ghost_entries_are_dropped(self, tmp_path):
        tier = DiskTier(str(tmp_path), name="t.ghost", max_bytes=10_000)
        tier.put("a", b"x")
        tier.put("b", b"x")
        os.unlink(tier.path("b"))  # blob vanishes behind the index's back
        tier.evict()
        assert sorted(index_doc(str(tmp_path))) == ["a"]

    def test_uncapped_tier_keeps_no_index(self, tmp_path):
        tier = DiskTier(str(tmp_path), name="t.uncapped")
        tier.put("k", b"payload")
        tier.get("k")
        tier.flush()
        assert tier.index is None
        assert os.listdir(str(tmp_path)) == ["k.json"]


class TestSingleFlight:
    def test_async_do_shares_one_runner(self):
        flights = AsyncSingleFlight()
        runs = []
        joins = []

        async def runner():
            runs.append(1)
            await asyncio.sleep(0.01)
            return "artifact"

        async def go():
            return await asyncio.gather(*[
                flights.do("k", runner, on_join=lambda: joins.append(1))
                for _ in range(5)
            ])

        assert asyncio.run(go()) == ["artifact"] * 5
        assert len(runs) == 1
        assert len(joins) == 4
        assert len(flights) == 0  # flight retired


class TestMultiprocessStress:
    """The regression the old ResultCache index shipped: concurrent
    worker processes doing load-modify-save clobbered each other's
    index entries.  The file-locked index must lose nothing."""

    def test_concurrent_writers_lose_no_updates(self, tmp_path):
        from tests.cache_stress import stress_lost_updates

        assert stress_lost_updates(
            str(tmp_path), procs=3, items=8, blob_size=128
        ) == []

    def test_churn_under_tight_cap_holds_invariants(self, tmp_path):
        from tests.cache_stress import stress_churn

        assert stress_churn(
            str(tmp_path), procs=2, items=12, blob_size=256
        ) == []

    @pytest.mark.parametrize(
        "phase", ["stress_lost_updates", "stress_churn"]
    )
    def test_both_phases_hold_at_ci_scale(self, tmp_path, phase):
        """Four writers, 25 keys each, 512-byte blobs."""
        from tests import cache_stress as stress

        run_phase = getattr(stress, phase)
        assert run_phase(
            str(tmp_path), procs=4, items=25, blob_size=512
        ) == []


class TestServeByteIdentity:
    """Satellite acceptance: the ported serve layers answer with the
    same bytes cold (plan compiled) and warm (plan-cache hit)."""

    def test_predict_response_bytes_identical_cold_and_warm(
        self, snc4_flat_config, capability
    ):
        from repro.serve.app import ServeApp, ServeConfig
        from repro.serve.artifacts import ArtifactRegistry, MachineRef
        from repro.serve.protocol import ClientConnection

        registry = ArtifactRegistry(persist=False)
        registry.preload(MachineRef(snc4_flat_config), capability)
        app = ServeApp(ServeConfig(), registry=registry)
        body = json.dumps({
            "queries": [
                {"metric": "latency", "location": "remote", "state": "E"},
                {"metric": "bandwidth", "op": "triad", "kind": "mcdram"},
                {"metric": "contention", "n": 64},
            ]
        }).encode()

        async def go():
            host, port = await app.start()
            conn = ClientConnection(host, port)
            try:
                cold = await conn.request_bytes(
                    "POST", "/v1/predict", body
                )
                warm = await conn.request_bytes(
                    "POST", "/v1/predict", body
                )
                return cold, warm
            finally:
                await conn.close()
                await app.stop()

        (s1, _, raw1), (s2, _, raw2) = asyncio.run(go())
        assert s1 == s2 == 200
        assert raw1 == raw2  # byte-identical, not merely equivalent
        hits = counter("cache.serve.plan.hits").value
        assert hits >= 1  # the warm pass came off the unified LRU
