"""Second round of property-based tests: serialization, engine
determinism, schedules, directory homes, stencil."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import Tree
from repro.algorithms.serialize import tree_from_dict, tree_to_dict
from repro.bench.schedules import cores_ht_of, pin_threads
from repro.machine import ClusterMode, KNLMachine, MachineConfig
from repro.machine.coherence import TagDirectory
from repro.machine.topology import Topology
from repro.sim import Engine, Program
from repro.units import CACHE_LINE_BYTES


@pytest.fixture(scope="module")
def topo():
    return Topology(MachineConfig(cluster_mode=ClusterMode.SNC4), seed=5)


@pytest.fixture(scope="module")
def directory(topo):
    return TagDirectory(topo)


# -- random tree construction ---------------------------------------------------

@st.composite
def random_tree_dicts(draw):
    """Random valid tree dicts over 1..24 ranks."""
    n = draw(st.integers(1, 24))
    ranks = list(range(n))
    # Random parent for each non-root rank: any earlier rank.
    parents = {0: None}
    for r in ranks[1:]:
        parents[r] = draw(st.integers(0, r - 1))

    def node(rank):
        children = [node(c) for c in ranks if parents.get(c) == rank]
        return {"rank": rank, "children": children}

    return node(0)


class TestSerializationProperties:
    @given(data=random_tree_dicts())
    @settings(max_examples=40)
    def test_tree_round_trip_stable(self, data):
        tree = tree_from_dict({"root": data})
        again = tree_from_dict(tree_to_dict(tree))
        assert tree_to_dict(again) == tree_to_dict(tree)
        assert again.n == tree.n

    @given(data=random_tree_dicts())
    @settings(max_examples=40)
    def test_levels_partition_ranks(self, data):
        tree = tree_from_dict({"root": data})
        flat = [r for level in tree.levels() for r in level]
        assert sorted(flat) == list(range(tree.n))


def _k_ary(n, k):
    """Child counts of the breadth-first k-ary tree over n ranks."""
    return [max(0, min(k, n - 1 - k * i)) for i in range(n)]


class TestTreeParentProperties:
    @given(
        n=st.integers(1, 80),
        k=st.integers(1, 6),
        shape=st.sampled_from(["binomial", "flat", "k_ary"]),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_parents_agree_with_parent_of(self, n, k, shape, data):
        root = data.draw(st.integers(0, n - 1))
        if shape == "binomial":
            tree = Tree.binomial(n, root=root)
        elif shape == "flat":
            tree = Tree.flat(n, root=root)
        else:
            tree = Tree.from_child_counts(_k_ary(n, k), root=root)
        parents = tree.parents()
        assert sorted(parents) == list(range(n))
        for rank in range(n):
            assert parents[rank] == tree.parent_of(rank)
        assert parents[root] is None

    @given(data=random_tree_dicts())
    @settings(max_examples=40)
    def test_parents_of_random_trees(self, data):
        tree = tree_from_dict({"root": data})
        parents = tree.parents()
        for nd in tree.root.walk():
            assert parents[nd.rank] == tree.parent_of(nd.rank)
            for c in nd.children:
                assert parents[c.rank] == nd.rank


class TestScheduleProperties:
    @given(
        n=st.integers(1, 256),
        schedule=st.sampled_from(["scatter", "compact", "fill_tiles"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_pinning_is_injective_and_valid(self, topo, n, schedule):
        threads = pin_threads(topo, n, schedule)
        assert len(threads) == n
        assert len(set(threads)) == n
        assert all(0 <= t < topo.n_threads for t in threads)
        # cores_ht accounts for exactly n threads.
        assert sum(cores_ht_of(topo, threads).values()) == n

    @given(n=st.integers(1, 64))
    @settings(max_examples=30, deadline=None)
    def test_scatter_prefix_property(self, topo, n):
        """The first min(n, n_tiles) scatter threads land on distinct
        tiles (the 'first one thread per tile' rule)."""
        threads = pin_threads(topo, n, "scatter")
        k = min(n, topo.n_tiles)
        tiles = {topo.tile_of_thread(t).tile_id for t in threads[:k]}
        assert len(tiles) == k


class TestDirectoryProperties:
    @given(
        line=st.integers(0, 2**34),
        mode=st.sampled_from(list(ClusterMode)),
    )
    @settings(max_examples=80)
    def test_home_deterministic_and_in_domain(self, topo, directory, line, mode):
        addr = line * CACHE_LINE_BYTES
        a = directory.home(addr, mode)
        b = directory.home(addr, mode)
        assert a == b
        assert 0 <= a.tile_id < topo.n_tiles

    @given(line=st.integers(0, 2**30), cluster=st.integers(0, 3))
    @settings(max_examples=60)
    def test_quadrant_homes_stay_in_quadrant(self, topo, directory, line, cluster):
        home = directory.home(
            line * CACHE_LINE_BYTES, ClusterMode.SNC4, memory_cluster=cluster
        )
        assert topo.quadrant_of_tile(home.tile_id) == cluster


class TestEngineProperties:
    @given(
        delays=st.lists(
            st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=12
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_noise_free_engine_deterministic_and_additive(self, delays):
        m = KNLMachine(MachineConfig(), seed=1, noise=False)
        eng = Engine(m, noisy=False)
        p = Program(0)
        for d in delays:
            p.delay(d)
        r1 = eng.run([p])
        p2 = Program(0)
        for d in delays:
            p2.delay(d)
        r2 = eng.run([p2])
        assert r1.finish_of(0) == pytest.approx(sum(delays))
        assert r1.finish_of(0) == r2.finish_of(0)

    @given(n_pollers=st.integers(1, 32))
    @settings(max_examples=20, deadline=None)
    def test_poller_finish_times_sorted_by_queue(self, n_pollers):
        m = KNLMachine(MachineConfig(), seed=1, noise=False)
        eng = Engine(m, noisy=False)
        progs = [Program(0).write_flag("f", cold=False)]
        pollers = [2 * i for i in range(1, n_pollers + 1)]
        progs += [Program(t).poll_flag("f") for t in pollers]
        res = eng.run(progs)
        finishes = [res.finish_of(t) for t in pollers]
        # Every poller finishes after the flag write; last - first grows
        # linearly with the queue.
        assert min(finishes) > 0
        if n_pollers > 1:
            spread = max(finishes) - min(finishes)
            beta = m.calibration.contention_beta
            assert spread == pytest.approx(beta * (n_pollers - 1), rel=0.05)


class TestStencilProperties:
    @given(
        shape=st.tuples(
            st.integers(3, 6), st.integers(3, 6), st.integers(3, 6)
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_jacobi_bounded_by_extremes(self, shape, seed):
        """Each smoothed value is a convex combination: output stays
        within the input's range."""
        from repro.apps import jacobi_step

        g = np.random.default_rng(seed).random(shape)
        out = jacobi_step(g)
        assert out.min() >= g.min() - 1e-12
        assert out.max() <= g.max() + 1e-12
