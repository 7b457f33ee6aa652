"""Content-addressed caches of the execution engine."""

import json
import os

import pytest

from repro._version import __version__
from repro.bench import characterize
from repro.bench.suite import Characterization
from repro.experiments.common import ExperimentResult
from repro.machine import ClusterMode, KNLMachine, MachineConfig, MemoryMode
from repro.runtime import (
    CharacterizationNeed,
    TaskStatus,
    execute,
    plan_run,
)
from repro.runtime.cache import (
    CharacterizationCache,
    ResultCache,
    content_key,
    default_cache_dir,
    fingerprint,
)
from tests.cache_stress import run_until_replace, temp_files


def _result(exp_id="x", val=1.25):
    res = ExperimentResult(exp_id, "title", columns=("a", "b"))
    res.add(a=val, b="text")
    res.note("a note")
    return res


class TestFingerprint:
    def test_config_fingerprint_is_json_stable(self):
        cfg = MachineConfig(
            cluster_mode=ClusterMode.SNC4, memory_mode=MemoryMode.FLAT
        )
        fp = fingerprint(cfg)
        assert fp["cluster_mode"] == "snc4"
        json.dumps(fp)  # must be serializable as-is

    def test_equal_configs_equal_keys(self):
        a = MachineConfig(cluster_mode=ClusterMode.SNC4)
        b = MachineConfig(cluster_mode=ClusterMode.SNC4)
        assert content_key(a) == content_key(b)

    def test_different_configs_different_keys(self):
        a = MachineConfig(cluster_mode=ClusterMode.SNC4)
        b = MachineConfig(cluster_mode=ClusterMode.A2A)
        assert content_key(a) != content_key(b)

    def test_key_is_sha256_hex(self):
        key = content_key({"x": 1})
        assert len(key) == 64
        int(key, 16)

    def test_set_key_is_equal_under_every_hash_seed(self):
        """A set's iteration order follows ``PYTHONHASHSEED``; its key
        must not."""
        import subprocess
        import sys

        code = (
            "from repro.cache.keys import content_key; "
            "print(content_key(frozenset({'alpha', 'beta', 'gamma', 'delta'})))"
        )
        keys = {
            subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("1", "2", "3")
        }
        assert len(keys) == 1
        assert keys == {
            content_key(["alpha", "beta", "delta", "gamma"]) + "\n"
        }

    def test_enum_keyed_calibration_has_a_key(self):
        from repro.machine.calibration import Calibration

        snc4 = content_key(Calibration.for_mode(ClusterMode.SNC4))
        a2a = content_key(Calibration.for_mode(ClusterMode.A2A))
        assert snc4 == content_key(Calibration.for_mode(ClusterMode.SNC4))
        assert snc4 != a2a

    def test_default_cache_dir_honors_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/somewhere")
        assert default_cache_dir() == "/tmp/somewhere"


class TestResultCache:
    def test_round_trip_byte_identical_json(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        res = _result()
        key = cache.key_for("x", {"iterations": 10, "seed": 3})
        cache.put(key, res)
        loaded = cache.get(key)
        assert loaded is not None
        assert loaded.to_json() == res.to_json()

    def test_miss_on_unknown_key(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get("0" * 64) is None

    def test_key_varies_with_kwargs(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        k1 = cache.key_for("x", {"iterations": 10})
        k2 = cache.key_for("x", {"iterations": 11})
        k3 = cache.key_for("y", {"iterations": 10})
        assert len({k1, k2, k3}) == 3

    def test_key_includes_version(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path))
        k1 = cache.key_for("x", {})
        import repro.cache.keys as keys_mod

        monkeypatch.setattr(keys_mod, "__version__", "999.0.0")
        assert cache.key_for("x", {}) != k1

    def test_lru_eviction_under_byte_cap(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_bytes=1200)
        keys = [cache.key_for("x", {"i": i}) for i in range(6)]
        for i, key in enumerate(keys):
            cache.put(key, _result(val=float(i)))
        stored = cache.keys()
        assert 0 < len(stored) < 6  # something evicted, something kept
        # Most recently written entry always survives.
        assert keys[-1] in stored
        # Index never references evicted files.
        index = json.loads((tmp_path / "results" / "index.json").read_text())
        assert set(index) == set(stored)

    def test_get_refreshes_lru_position(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_bytes=10**9)
        k1 = cache.key_for("x", {"i": 1})
        k2 = cache.key_for("x", {"i": 2})
        cache.put(k1, _result())
        cache.put(k2, _result())
        cache.get(k1)  # touch (buffered: a warm hit writes no index)
        cache.flush()
        index = json.loads((tmp_path / "results" / "index.json").read_text())
        assert index[k1]["atime"] >= index[k2]["atime"]

    #: Blobs a crash, a hand edit or an older writer could leave behind:
    #: not JSON, JSON missing fields, and rows that are not objects.
    BAD_BODIES = (
        "{not json",
        json.dumps({"result": {"exp_id": "x"}}),
        json.dumps({"result": {"exp_id": "x", "title": "t",
                               "columns": ["a"], "rows": [1]}}),
    )

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cache.key_for("x", {})
        path = os.path.join(cache.directory, f"{key}.json")
        for body in self.BAD_BODIES:
            cache.put(key, _result())
            with open(path, "w") as fh:
                fh.write(body)
            assert cache.get(key) is None, body

        # A run over a bad entry recomputes the experiment and
        # overwrites the entry with a good one.
        cache_dir = str(tmp_path / "run")
        plan = dict(ids=["fig4"], kwargs={"iterations": 4},
                    cache_dir=cache_dir, progress=False)
        first = execute(plan_run(**plan)).outcome("fig4").result
        (key,) = ResultCache(cache_dir).keys()
        path = os.path.join(ResultCache(cache_dir).directory, f"{key}.json")
        for body in self.BAD_BODIES:
            with open(path, "w") as fh:
                fh.write(body)
            outcome = execute(plan_run(**plan)).outcome("fig4")
            assert outcome.status is TaskStatus.DONE, body
            assert outcome.cache == "miss"
            again = ResultCache(cache_dir).get(key)
            assert again is not None
            assert again.to_json() == first.to_json()


#: Small enough that six results cannot all stay: the workload evicts.
CRASH_CAP = 1200
CRASH_ITEMS = 6


def _result_cache_workload(directory):
    """Puts past the byte cap, warm gets, a re-put and a flush."""
    cache = ResultCache(directory, max_bytes=CRASH_CAP)
    for i in range(CRASH_ITEMS):
        cache.put(cache.key_for("x", {"i": i}), _result(val=float(i)))
    cache.get(cache.key_for("x", {"i": CRASH_ITEMS - 1}))
    cache.get(cache.key_for("x", {"i": 0}))
    cache.put(cache.key_for("x", {"i": 1}), _result(val=1.0))
    cache.flush()


class TestResultCacheCrashConsistency:
    """A result cache killed at any atomic replace stays consistent."""

    def check(self, directory):
        cache = ResultCache(directory, max_bytes=CRASH_CAP)
        for i in range(CRASH_ITEMS):
            hit = cache.get(cache.key_for("x", {"i": i}))
            assert hit is None or hit.to_json() == _result(
                val=float(i)
            ).to_json()
        cache.put(cache.key_for("x", {"i": 99}), _result(val=99.0))
        cache.flush()
        with open(os.path.join(cache.directory, "index.json")) as fh:
            assert set(json.load(fh)) == set(cache.keys())
        assert temp_files(directory) == [], "a dead writer's temp file"

    def test_a_crash_at_every_replace_leaves_a_consistent_cache(
        self, tmp_path
    ):
        for n in range(1, 100):
            directory = str(tmp_path / f"crash-{n}")
            code = run_until_replace(n, _result_cache_workload, directory)
            if code == 0:
                break
            assert code == 137, f"the workload failed before replace {n}"
            self.check(directory)
        else:
            pytest.fail("the workload made 100 or more replaces")
        # Seven blob writes, each followed by one index write.
        assert n > 14, n


class TestCharacterizationCache:
    CFG = MachineConfig(
        cluster_mode=ClusterMode.SNC4, memory_mode=MemoryMode.FLAT
    )

    def test_round_trip_through_characterize(self, tmp_path):
        cache = CharacterizationCache(str(tmp_path))
        machine = KNLMachine(self.CFG, seed=7)
        bundle = characterize(machine, iterations=5, cache=cache)
        key = cache.key_for_machine(machine, 5, None, (16, 64, 128, 256),
                                    False)
        assert key is not None and cache.has(key)
        # A second, identical machine hits and gets equal values.
        machine2 = KNLMachine(self.CFG, seed=7)
        bundle2 = characterize(machine2, iterations=5, cache=cache)
        assert bundle2.stream == bundle.stream
        assert bundle2.c2c_bandwidth == bundle.c2c_bandwidth

    def test_key_matches_need_key(self, tmp_path):
        cache = CharacterizationCache(str(tmp_path))
        machine = KNLMachine(self.CFG, seed=7)
        from_machine = cache.key_for_machine(
            machine, 5, None, (16, 64, 128, 256), False
        )
        from_need = CharacterizationCache.key_for_need(
            CharacterizationNeed(
                config=self.CFG, machine_seed=7, iterations=5
            )
        )
        assert from_machine == from_need

    def test_generator_seeded_machine_uncacheable(self, tmp_path):
        import numpy as np

        cache = CharacterizationCache(str(tmp_path))
        machine = KNLMachine(self.CFG, seed=np.random.default_rng(0))
        assert cache.key_for_machine(
            machine, 5, None, (16,), False) is None

    def test_noise_free_machine_uncacheable(self, tmp_path):
        cache = CharacterizationCache(str(tmp_path))
        machine = KNLMachine(self.CFG, seed=7, noise=False)
        assert cache.key_for_machine(
            machine, 5, None, (16,), False) is None

    def test_read_only_never_writes(self, tmp_path):
        cache = CharacterizationCache(str(tmp_path), read_only=True)
        machine = KNLMachine(self.CFG, seed=7)
        characterize(machine, iterations=5, cache=cache)
        assert os.listdir(cache.directory) == []

    @pytest.mark.parametrize("blob", [
        b"not a pickle",
        b"cnonexistent_mod\nX\n.",  # unpickling imports a missing module
        b"\x80\x05K\x01.",  # a valid pickle of the int 1
    ], ids=["garbage", "missing-module", "not-a-bundle"])
    def test_bad_bundle_is_a_miss(self, tmp_path, blob):
        cache = CharacterizationCache(str(tmp_path))
        machine = KNLMachine(self.CFG, seed=7)
        key = cache.key_for_machine(machine, 5, None, (16, 64, 128, 256),
                                    False)
        with open(os.path.join(cache.directory, f"{key}.pkl"), "wb") as fh:
            fh.write(blob)
        assert cache.get(key) is None
        bundle = characterize(machine, iterations=5, cache=cache)
        assert isinstance(bundle, Characterization)
        assert isinstance(cache.get(key), Characterization)

    def test_iterations_change_key(self, tmp_path):
        need5 = CharacterizationNeed(
            config=self.CFG, machine_seed=7, iterations=5
        )
        need6 = CharacterizationNeed(
            config=self.CFG, machine_seed=7, iterations=6
        )
        assert (
            CharacterizationCache.key_for_need(need5)
            != CharacterizationCache.key_for_need(need6)
        )


class TestPublicCacheKey:
    """The shared content-address helper behind every cache."""

    def test_exported_from_the_runtime_package(self):
        from repro.runtime import cache_key as exported

        from repro.runtime.cache import cache_key

        assert exported is cache_key

    def test_version_added_automatically(self):
        from repro.runtime.cache import cache_key, content_key

        assert cache_key(a=1) == content_key({"a": 1, "version": __version__})
        assert cache_key(a=1) != cache_key(a=1, version="other")

    def test_golden_digests_are_byte_stable(self):
        """Pinned digests: a refactor of the key scheme would silently
        invalidate every user's on-disk cache — these must never move
        (except through an intentional, documented format change)."""
        from repro.runtime.cache import cache_key

        assert cache_key(
            version="vGOLDEN", exp_id="fig4", kwargs={"iterations": 8}
        ) == ("7295e426d1ed8da6ac8e4ef666daaeae"
              "a863964c10986bf5d3cf163945dee770")
        assert cache_key(
            version="vGOLDEN", need={"a": 1, "b": [1, 2]}
        ) == ("1f8bcc4a39b555cff2bccb658307e68e"
              "33839e3bd9640a9237a9257584dcf240")

    def test_result_cache_key_for_goes_through_cache_key(self, tmp_path):
        from repro.experiments.common import default_config
        from repro.runtime.cache import cache_key

        cache = ResultCache(str(tmp_path))
        assert cache.key_for("fig4", {"iterations": 8}) == cache_key(
            exp_id="fig4",
            kwargs={"iterations": 8},
            default_config=default_config(),
        )

    def test_characterization_key_goes_through_cache_key(self):
        from repro.runtime.cache import cache_key

        need = CharacterizationNeed(
            config=MachineConfig(), machine_seed=7, iterations=5
        )
        assert CharacterizationCache.key_for_need(need) == cache_key(need=need)


class TestResultCacheSchema:
    """The on-disk result cache that existing users' state depends on.

    ``tests/fixtures/result_cache`` is a cache directory written by
    ``ResultCache.put`` + ``flush`` and committed as-is: one
    ``results/<key>.json`` blob and its ``results/index.json``.  The
    current code must read it, leave its index alone on a warm read,
    and write the same blob bytes back.
    """

    FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                           "result_cache")
    KEY = "9c63aa6bbfbb4b91b308ca5a6719fdbf2bb6076da7c7ab99d829370880a627a4"

    @pytest.fixture
    def cache_dir(self, tmp_path):
        import shutil

        target = tmp_path / "cache"
        shutil.copytree(self.FIXTURE, target)
        return target

    def _blob_path(self, cache_dir):
        return cache_dir / "results" / f"{self.KEY}.json"

    def test_committed_entry_reads_as_a_hit(self, cache_dir):
        committed = json.loads(self._blob_path(cache_dir).read_bytes())
        hit = ResultCache(str(cache_dir)).get(self.KEY)
        assert hit is not None
        assert hit.to_json() == json.dumps(committed["result"], indent=2)

    def test_warm_read_writes_no_index_until_flush(self, cache_dir):
        from repro.obs import counter

        index_path = cache_dir / "results" / "index.json"
        before = index_path.read_bytes()
        writes = counter("cache.index.writes").value
        cache = ResultCache(str(cache_dir))
        assert cache.get(self.KEY) is not None
        assert index_path.read_bytes() == before
        assert counter("cache.index.writes").value == writes
        cache.flush()
        assert counter("cache.index.writes").value == writes + 1
        index = json.loads(index_path.read_bytes())
        old = json.loads(before)
        assert set(index) == {self.KEY}
        assert index[self.KEY]["size"] == old[self.KEY]["size"]
        assert index[self.KEY]["atime"] >= old[self.KEY]["atime"]

    def test_reput_writes_byte_identical_blob(self, cache_dir, monkeypatch):
        blob_path = self._blob_path(cache_dir)
        committed = blob_path.read_bytes()
        meta = json.loads(committed)["meta"]
        # The blob records the writer's version; pin it so the check
        # is about the encoding, not about the version string.
        import repro.runtime.cache as runtime_cache

        monkeypatch.setattr(runtime_cache, "__version__", meta["version"])
        cache = ResultCache(str(cache_dir))
        hit = cache.get(self.KEY)
        blob_path.unlink()
        cache.put(self.KEY, hit, meta=meta)
        assert blob_path.read_bytes() == committed
