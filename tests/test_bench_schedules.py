"""Thread pinning schedules."""

import pytest

from repro.bench import cores_ht_of, pin_threads
from repro.errors import BenchmarkError, TopologyError


class TestCompact:
    def test_fills_hyperthreads_first(self, machine):
        topo = machine.topology
        threads = pin_threads(topo, 8, "compact")
        cores = {topo.core_of_thread(t) for t in threads}
        assert cores == {0, 1}  # 4 HT per core

    def test_all_256(self, machine):
        threads = pin_threads(machine.topology, 256, "compact")
        assert len(set(threads)) == 256


class TestScatter:
    def test_one_per_tile_first(self, machine):
        topo = machine.topology
        threads = pin_threads(topo, topo.n_tiles, "scatter")
        tiles = {topo.tile_of_thread(t).tile_id for t in threads}
        assert len(tiles) == topo.n_tiles  # one thread on every tile

    def test_64_covers_all_cores(self, machine):
        topo = machine.topology
        threads = pin_threads(topo, 64, "scatter")
        assert {topo.core_of_thread(t) for t in threads} == set(range(64))
        assert all(topo.ht_of_thread(t) == 0 for t in threads)

    def test_128_uses_second_hyperthread(self, machine):
        topo = machine.topology
        threads = pin_threads(topo, 128, "scatter")
        hts = {topo.ht_of_thread(t) for t in threads}
        assert hts == {0, 1}


class TestFillTiles:
    def test_both_cores_of_tile_adjacent(self, machine):
        topo = machine.topology
        threads = pin_threads(topo, 4, "fill_tiles")
        tiles = [topo.tile_of_thread(t).tile_id for t in threads]
        assert tiles == [0, 0, 1, 1]


class TestValidation:
    def test_unknown_schedule(self, machine):
        with pytest.raises(BenchmarkError):
            pin_threads(machine.topology, 4, "zigzag")

    def test_too_many(self, machine):
        with pytest.raises(BenchmarkError):
            pin_threads(machine.topology, 257, "scatter")

    def test_zero(self, machine):
        with pytest.raises(BenchmarkError):
            pin_threads(machine.topology, 0, "scatter")

    def test_bounds_checked_after_order_is_built(self, machine):
        topo = machine.topology
        for sched in ("scatter", "compact", "fill_tiles"):
            pin_threads(topo, topo.n_threads, sched)  # builds the order
            with pytest.raises(BenchmarkError):
                pin_threads(topo, topo.n_threads + 1, sched)
            with pytest.raises(BenchmarkError):
                pin_threads(topo, 0, sched)

    def test_unknown_schedule_not_remembered(self, machine):
        topo = machine.topology
        with pytest.raises(BenchmarkError):
            pin_threads(topo, 4, "zigzag")
        assert "zigzag" not in topo.pin_orders

    def test_no_duplicates_any_schedule(self, machine):
        for sched in ("scatter", "compact", "fill_tiles"):
            for n in (1, 7, 64, 200, 256):
                threads = pin_threads(machine.topology, n, sched)
                assert len(threads) == len(set(threads)) == n


class TestCoresHt:
    def test_counts(self, machine):
        topo = machine.topology
        threads = pin_threads(topo, 8, "compact")
        ht = cores_ht_of(topo, threads)
        assert ht == {0: 4, 1: 4}

    @pytest.mark.parametrize("bad", [-1, 256, 10_000])
    def test_out_of_range_thread_raises(self, machine, bad):
        with pytest.raises(TopologyError):
            cores_ht_of(machine.topology, [0, bad])


class TestPinOrderIsBuiltOnce:
    def test_returned_list_is_a_fresh_copy(self, machine):
        topo = machine.topology
        first = pin_threads(topo, 8, "scatter")
        expected = list(first)
        first[0] = -1
        first.append(999)
        assert pin_threads(topo, 8, "scatter") == expected
        assert pin_threads(topo, 8, "scatter") is not pin_threads(
            topo, 8, "scatter"
        )

    def test_orders_match_the_tile_walk(self, machine):
        """The stored orders equal the schedules' definitions spelled
        out through the public topology queries."""
        topo = machine.topology
        n_cores = topo.n_cores
        tpc = topo.config.threads_per_core
        cpt = topo.config.cores_per_tile
        tiles = range(topo.n_tiles)
        expected = {
            "compact": [
                c + h * n_cores for c in range(n_cores) for h in range(tpc)
            ],
            "scatter": [
                topo.cores_of_tile(t)[slot] + h * n_cores
                for h in range(tpc) for slot in range(cpt) for t in tiles
            ],
            "fill_tiles": [
                c + h * n_cores
                for h in range(tpc) for t in tiles for c in topo.cores_of_tile(t)
            ],
        }
        for sched, order in expected.items():
            for n in (1, 5, 64, topo.n_threads):
                assert pin_threads(topo, n, sched) == order[:n]
