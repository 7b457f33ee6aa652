"""Die topology: tiles, cores, threads, quadrants, disabled slots."""

import pytest

from repro.errors import TopologyError
from repro.machine import ClusterMode, MachineConfig, MemoryMode, Topology
from repro.machine.config import N_TILE_SLOTS
from repro.machine.topology import (
    EDC_COORDS,
    IMC_COORDS,
    TILE_SLOT_COORDS,
    hemisphere_of_coords,
    quadrant_of_coords,
)


@pytest.fixture(scope="module")
def topo():
    return Topology(
        MachineConfig(cluster_mode=ClusterMode.SNC4), seed=5
    )


class TestFloorplan:
    def test_38_physical_slots(self):
        # MachineConfig checks n_physical_tiles against N_TILE_SLOTS.
        assert len(TILE_SLOT_COORDS) == N_TILE_SLOTS == 38

    def test_8_edcs_2_imcs(self):
        assert len(EDC_COORDS) == 8
        assert len(IMC_COORDS) == 2

    def test_slots_unique(self):
        assert len(set(TILE_SLOT_COORDS)) == 38

    def test_controllers_do_not_overlap_tiles(self):
        assert not (set(EDC_COORDS) | set(IMC_COORDS)) & set(TILE_SLOT_COORDS)

    def test_two_edcs_per_quadrant(self):
        per_q = {}
        for r, c in EDC_COORDS:
            q = quadrant_of_coords(r, c)
            per_q[q] = per_q.get(q, 0) + 1
        assert per_q == {0: 2, 1: 2, 2: 2, 3: 2}

    def test_one_imc_per_hemisphere(self):
        hemis = sorted(hemisphere_of_coords(r, c) for r, c in IMC_COORDS)
        assert hemis == [0, 1]


class TestActiveTiles:
    def test_32_active_6_disabled(self, topo):
        assert topo.n_tiles == 32
        assert len(topo.disabled_slots) == 6

    def test_64_cores_256_threads(self, topo):
        assert topo.n_cores == 64
        assert topo.n_threads == 256

    def test_tile_ids_dense(self, topo):
        assert [t.tile_id for t in topo.tiles] == list(range(32))

    def test_quadrants_balanced(self, topo):
        for q in range(4):
            assert len(topo.tiles_in_cluster(q, ClusterMode.SNC4)) == 8

    def test_hemispheres_balanced(self, topo):
        for h in range(2):
            assert len(topo.tiles_in_cluster(h, ClusterMode.SNC2)) == 16

    def test_a2a_single_cluster(self, topo):
        assert len(topo.tiles_in_cluster(0, ClusterMode.A2A)) == 32

    def test_disabled_slots_vary_with_seed(self):
        cfg = MachineConfig(cluster_mode=ClusterMode.SNC4)
        a = Topology(cfg, seed=1).disabled_slots
        b = Topology(cfg, seed=2).disabled_slots
        assert a != b  # yield-disabled placement is part-specific

    def test_same_seed_same_layout(self):
        cfg = MachineConfig(cluster_mode=ClusterMode.SNC4)
        assert Topology(cfg, seed=3).disabled_slots == Topology(
            cfg, seed=3
        ).disabled_slots


class TestIdMapping:
    def test_cores_of_tile_inverse(self, topo):
        for tile in range(topo.n_tiles):
            for core in topo.cores_of_tile(tile):
                assert topo.tile_of_core(core).tile_id == tile

    def test_two_cores_per_tile(self, topo):
        assert topo.cores_of_tile(0) == (0, 1)
        assert topo.cores_of_tile(31) == (62, 63)

    def test_thread_numbering_knl_convention(self, topo):
        # Thread h of core c is c + h*n_cores.
        assert topo.core_of_thread(0) == 0
        assert topo.core_of_thread(64) == 0
        assert topo.ht_of_thread(64) == 1
        assert topo.core_of_thread(63) == 63
        assert topo.ht_of_thread(255) == 3

    def test_threads_of_core_roundtrip(self, topo):
        for core in (0, 17, 63):
            for t in topo.threads_of_core(core):
                assert topo.core_of_thread(t) == core

    def test_out_of_range_rejected(self, topo):
        with pytest.raises(TopologyError):
            topo.tile(32)
        with pytest.raises(TopologyError):
            topo.tile_of_core(64)
        with pytest.raises(TopologyError):
            topo.core_of_thread(256)
        with pytest.raises(TopologyError):
            topo.threads_of_core(-1)


class TestAffinity:
    def test_same_tile_symmetric(self, topo):
        assert topo.same_tile(0, 1)
        assert topo.same_tile(1, 0)
        assert not topo.same_tile(0, 2)

    def test_cluster_of_tile_modes(self, topo):
        for t in range(topo.n_tiles):
            q = topo.cluster_of_tile(t, ClusterMode.QUADRANT)
            h = topo.cluster_of_tile(t, ClusterMode.HEMISPHERE)
            assert 0 <= q < 4
            assert h == q % 2  # quadrant q lies in hemisphere q%2
            assert topo.cluster_of_tile(t, ClusterMode.A2A) == 0

    def test_edcs_of_quadrant(self, topo):
        for q in range(4):
            assert len(topo.edcs_of_quadrant(q)) == 2

    def test_imc_of_hemisphere(self, topo):
        assert {topo.imc_of_hemisphere(0), topo.imc_of_hemisphere(1)} == {0, 1}
