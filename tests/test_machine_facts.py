"""The machine-facts memo: builds of one (config, int seed, calibration,
caches) share their immutable facts, and nothing else.

A memo-served machine must price every noise-free cost exactly as a
fresh build does, while its noise stream, RNG and allocator stay its
own.
"""

import dataclasses
import sys
import threading

import numpy as np

import repro.machine.machine as machine_mod
from repro.machine import KNLMachine, MemoryKind, MESIF
from repro.machine.calibration import Calibration
from repro.machines import get_machine

SEED = 4321


def _fresh(config, seed, **kw) -> KNLMachine:
    """A build that computes its facts, whatever the memo holds."""
    key = KNLMachine(config, seed=seed, **kw).facts_key
    machine_mod._facts_memo.invalidate(key)
    machine = KNLMachine(config, seed=seed, **kw)
    assert machine_mod._facts_memo.get(key) is not None
    return machine


def _noise_free_sample(m: KNLMachine):
    """A sample of noise-free costs across the cost functions."""
    cores = range(0, m.n_cores, 7)
    out = []
    for r in cores:
        for o in cores:
            for st in (MESIF.MODIFIED, MESIF.EXCLUSIVE, MESIF.SHARED):
                out.append(m.line_transfer_true_ns(r, st, o))
        out.append(m.memory_latency_true_ns(r, kind=MemoryKind.DDR))
        out.append(m.memory_latency_true_ns(r, address=r * 4096 + 64))
        out.append(m.multiline_true_ns(r, 4096, owner_core=(r + 9) % m.n_cores))
    times = m.stream_iteration_ns("triad", 1 << 24, {0: 2, 5: 1, 9: 4},
                                  noisy=False)
    return out + times.tolist()


class TestSharedFacts:
    def test_memo_served_machine_equals_fresh_build(self, snc4_flat_config):
        fresh = _fresh(snc4_flat_config, SEED)
        served = KNLMachine(snc4_flat_config, seed=SEED)
        assert served.topology is fresh.topology
        machine_mod._facts_memo.invalidate(served.facts_key)
        rebuilt = KNLMachine(snc4_flat_config, seed=SEED)
        assert rebuilt.topology is not served.topology
        assert served._c2c_range == rebuilt._c2c_range
        assert served._mem_range == rebuilt._mem_range
        assert served.topology.tiles == rebuilt.topology.tiles
        assert _noise_free_sample(served) == _noise_free_sample(rebuilt)

    def test_served_noise_stream_matches_fresh_build(self, snc4_flat_config):
        fresh = _fresh(snc4_flat_config, SEED)
        fresh_draws = [fresh.noise.sample(100.0) for _ in range(20)]
        fresh_rng = fresh.rng.random(5)
        served = KNLMachine(snc4_flat_config, seed=SEED)
        assert [served.noise.sample(100.0) for _ in range(20)] == fresh_draws
        assert np.array_equal(served.rng.random(5), fresh_rng)

    def test_same_key_machines_keep_their_own_state(self, snc4_flat_config):
        a = KNLMachine(snc4_flat_config, seed=SEED)
        b = KNLMachine(snc4_flat_config, seed=SEED)
        assert a.topology is b.topology
        assert a.noise is not b.noise and a.rng is not b.rng
        assert a.memory is not b.memory
        assert a.mcdram_cache is not b.mcdram_cache
        # Drawing on one leaves the other's stream where it was.
        for _ in range(50):
            a.noise.sample(100.0)
        a.rng.random(10)
        c = KNLMachine(snc4_flat_config, seed=SEED)
        assert b.noise.sample(100.0) == c.noise.sample(100.0)
        assert b.rng.random() == c.rng.random()
        # Allocating on one does not move the other's next address.
        a.alloc(1 << 20)
        a.alloc(1 << 20, kind=MemoryKind.MCDRAM, cluster=1)
        assert b.alloc(64).base == c.alloc(64).base == 0
        mc = b.alloc(64, kind=MemoryKind.MCDRAM, cluster=1)
        assert mc.base == c.alloc(64, kind=MemoryKind.MCDRAM, cluster=1).base

    def test_non_int_seed_is_not_memoized(self, snc4_flat_config):
        before = machine_mod._facts_memo.keys()
        m = KNLMachine(snc4_flat_config, seed=np.random.default_rng(SEED))
        assert m.facts_key is None
        assert machine_mod._facts_memo.keys() == before


class TestKeys:
    def test_calibration_override_keys_separately(self, snc4_flat_config):
        stock = KNLMachine(snc4_flat_config, seed=SEED, noise=False)
        cal = dataclasses.replace(
            Calibration.for_mode(snc4_flat_config.cluster_mode), l1_ns=5.0
        )
        custom = KNLMachine(snc4_flat_config, seed=SEED, noise=False,
                            calibration=cal)
        assert custom.facts_key != stock.facts_key
        assert custom.line_transfer_true_ns(0, MESIF.EXCLUSIVE, 0) == 5.0
        assert stock.line_transfer_true_ns(0, MESIF.EXCLUSIVE, 0) == 3.8
        # An equal override built again shares the override's facts.
        again = KNLMachine(snc4_flat_config, seed=SEED, calibration=(
            dataclasses.replace(cal)))
        assert again.facts_key == custom.facts_key
        assert again.topology is custom.topology

    def test_preset_with_overrides_keys_separately(self):
        preset = get_machine("numa-2s")
        assert preset.has_overrides
        config = preset.to_machine_config()
        stock = KNLMachine(config, seed=SEED)
        built = preset.build(seed=SEED)
        assert built.facts_key != stock.facts_key
        assert built.topology is not stock.topology
        assert preset.build(seed=SEED).topology is built.topology

    def test_seed_keys_separately(self, snc4_flat_config):
        a = KNLMachine(snc4_flat_config, seed=SEED)
        b = KNLMachine(snc4_flat_config, seed=SEED + 1)
        assert a.facts_key != b.facts_key
        assert a.topology is not b.topology


class TestBounded:
    def test_memo_stays_bounded(self, snc4_flat_config):
        cap = machine_mod.FACTS_MEMO_SIZE
        keys = [KNLMachine(snc4_flat_config, seed=s).facts_key
                for s in range(900, 900 + cap + 5)]
        held = machine_mod._facts_memo.keys()
        assert len(held) == cap
        # Least recently built first out: the newest `cap` keys stay.
        assert list(held) == keys[-cap:]

    def test_evicted_key_rebuilds_identically(self, snc4_flat_config):
        first = KNLMachine(snc4_flat_config, seed=7, noise=False)
        sample = _noise_free_sample(first)
        for s in range(2000, 2000 + machine_mod.FACTS_MEMO_SIZE):
            KNLMachine(snc4_flat_config, seed=s)
        again = KNLMachine(snc4_flat_config, seed=7, noise=False)
        assert again.topology is not first.topology
        assert _noise_free_sample(again) == sample


class TestConcurrentBuilds:
    def test_racing_builds_price_like_a_fresh_build(self, snc4_flat_config):
        """Threads building one key on a cold memo, then pricing through
        the shared cost memos, see exactly a fresh build's costs."""
        seed = SEED + 7
        reference = _noise_free_sample(_fresh(snc4_flat_config, seed))
        machine_mod._facts_memo.invalidate(
            KNLMachine(snc4_flat_config, seed=seed).facts_key)
        results = []

        def work():
            results.append(
                _noise_free_sample(KNLMachine(snc4_flat_config, seed=seed)))

        threads = [threading.Thread(target=work) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [reference] * len(threads)
