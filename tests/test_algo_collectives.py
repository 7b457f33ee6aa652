"""Broadcast/reduce plans, baselines, and speedup structure."""

import numpy as np
import pytest

from repro.algorithms import (
    baselines,
    group_by_tile,
    plan_broadcast,
    plan_reduce,
    run_episodes,
    speedup,
    tune_broadcast,
    tune_reduce,
)
from repro.bench import pin_threads
from repro.errors import ModelError
from repro.sim import Engine


class TestHierarchy:
    def test_group_by_tile(self, machine):
        topo = machine.topology
        threads = pin_threads(topo, 8, "fill_tiles")  # 4 tiles x 2 cores
        groups = group_by_tile(topo, threads)
        assert len(groups) == 4
        assert all(g.size == 2 for g in groups)

    def test_root_group_first(self, machine):
        topo = machine.topology
        threads = pin_threads(topo, 16, "scatter")
        groups = group_by_tile(topo, threads, root_thread=threads[0])
        assert groups[0].leader == threads[0]

    def test_duplicate_threads_rejected(self, machine):
        with pytest.raises(ModelError):
            group_by_tile(machine.topology, [0, 0])

    def test_root_must_participate(self, machine):
        with pytest.raises(ModelError):
            group_by_tile(machine.topology, [0, 2], root_thread=4)


class TestTunedCollectives:
    def test_tune_broadcast_model_positive(self, capability):
        tb = tune_broadcast(capability, 32)
        assert tb.model.best_ns > 0
        assert tb.model.worst_ns >= tb.model.best_ns

    def test_intra_stage_adds_cost(self, capability):
        solo = tune_broadcast(capability, 32, max_intra=1)
        intra = tune_broadcast(capability, 32, max_intra=4)
        assert intra.model.best_ns > solo.model.best_ns

    def test_reduce_more_expensive_than_broadcast(self, capability):
        bc = tune_broadcast(capability, 32)
        rd = tune_reduce(capability, 32)
        assert rd.model.best_ns > bc.model.best_ns

    def test_describe_contains_tree(self, capability):
        assert "|--" in tune_reduce(capability, 8).describe()


class TestPlansExecute:
    @pytest.mark.parametrize("n", [2, 16, 64])
    def test_broadcast_runs(self, quiet_machine, capability, n):
        threads = pin_threads(quiet_machine.topology, n, "scatter")
        plan = plan_broadcast(capability, quiet_machine.topology, threads)
        res = Engine(quiet_machine, noisy=False).run(plan.programs())
        assert res.makespan_ns > 0

    @pytest.mark.parametrize("n", [2, 16, 64])
    def test_reduce_runs(self, quiet_machine, capability, n):
        threads = pin_threads(quiet_machine.topology, n, "scatter")
        plan = plan_reduce(capability, quiet_machine.topology, threads)
        res = Engine(quiet_machine, noisy=False).run(plan.programs())
        assert res.makespan_ns > 0

    def test_hierarchical_256(self, quiet_machine, capability):
        threads = pin_threads(quiet_machine.topology, 256, "scatter")
        plan = plan_broadcast(capability, quiet_machine.topology, threads)
        progs = plan.programs()
        assert len(progs) == 256
        res = Engine(quiet_machine, noisy=False).run(progs)
        assert res.makespan_ns > 0

    def test_root_finishes_last_in_reduce_critical_path(
        self, quiet_machine, capability
    ):
        threads = pin_threads(quiet_machine.topology, 32, "scatter")
        plan = plan_reduce(capability, quiet_machine.topology, threads)
        res = Engine(quiet_machine, noisy=False).run(plan.programs())
        root = plan.groups[0].leader
        assert res.finish_of(root) == res.makespan_ns


class TestBaselines:
    def test_all_baselines_run(self, quiet_machine):
        threads = pin_threads(quiet_machine.topology, 16, "scatter")
        eng = Engine(quiet_machine, noisy=False)
        for build in (
            baselines.omp_barrier_programs,
            baselines.mpi_barrier_programs,
            baselines.omp_broadcast_programs,
            baselines.mpi_broadcast_programs,
            baselines.omp_reduce_programs,
            baselines.mpi_reduce_programs,
        ):
            res = eng.run(build(threads))
            assert res.makespan_ns > 0

    def test_omp_barrier_linear_in_n(self, quiet_machine):
        eng = Engine(quiet_machine, noisy=False)
        t16 = eng.run(
            baselines.omp_barrier_programs(
                pin_threads(quiet_machine.topology, 16, "scatter")
            )
        ).makespan_ns
        t64 = eng.run(
            baselines.omp_barrier_programs(
                pin_threads(quiet_machine.topology, 64, "scatter")
            )
        ).makespan_ns
        assert t64 > 2.5 * t16  # centralized -> roughly linear

    def test_mpi_barrier_logarithmic(self, quiet_machine):
        eng = Engine(quiet_machine, noisy=False)
        t16 = eng.run(
            baselines.mpi_barrier_programs(
                pin_threads(quiet_machine.topology, 16, "scatter")
            )
        ).makespan_ns
        t64 = eng.run(
            baselines.mpi_barrier_programs(
                pin_threads(quiet_machine.topology, 64, "scatter")
            )
        ).makespan_ns
        assert t64 < 2.0 * t16  # 4 vs 6 rounds

    def test_empty_participants_rejected(self):
        with pytest.raises(ModelError):
            baselines.omp_barrier_programs([])


class TestSpeedups:
    def test_paper_ordering_at_64(self, machine, capability):
        """Tuned beats OpenMP beats... well, MPI is the slowest (paper
        §IV-B3: 5-7x vs OpenMP, 13-24x vs MPI)."""
        from repro.algorithms.barrier import barrier_programs, tune_barrier

        threads = pin_threads(machine.topology, 64, "scatter")
        tb = tune_barrier(capability, 64)
        s_tuned = run_episodes(
            machine, lambda: barrier_programs(threads, tb.rounds, tb.arity), 15
        )
        s_omp = run_episodes(
            machine, lambda: baselines.omp_barrier_programs(threads), 15
        )
        s_mpi = run_episodes(
            machine, lambda: baselines.mpi_barrier_programs(threads), 15
        )
        sp_omp = speedup(s_omp, s_tuned)
        sp_mpi = speedup(s_mpi, s_tuned)
        assert 3.0 < sp_omp < 15.0
        assert 10.0 < sp_mpi < 35.0
        assert sp_mpi > sp_omp

    def test_run_episodes_shape(self, machine):
        threads = pin_threads(machine.topology, 4, "scatter")
        samples = run_episodes(
            machine, lambda: baselines.omp_barrier_programs(threads), 7
        )
        assert samples.shape == (7,)
        assert (samples > 0).all()

    def test_run_episodes_builds_once(self, machine):
        threads = pin_threads(machine.topology, 4, "scatter")
        calls = []

        def build():
            calls.append(1)
            return baselines.omp_barrier_programs(threads)

        assert run_episodes(machine, build, 10).shape == (10,)
        assert len(calls) == 1
        assert run_episodes(machine, build, 0).shape == (0,)
        assert len(calls) == 1

    def test_replayed_episodes_match_rebuilt_runs(self, snc4_flat_config):
        """Replaying one compiled program set draws the same noise as
        rebuilding and running it every episode."""
        from repro.machine import KNLMachine
        from repro.sim import Engine

        threads = list(range(0, 32, 4))
        build = lambda: baselines.omp_broadcast_programs(threads, 256)
        replayed = run_episodes(KNLMachine(snc4_flat_config, seed=9), build, 6)
        engine = Engine(KNLMachine(snc4_flat_config, seed=9))
        rebuilt = [engine.run(build()).makespan_ns for _ in range(6)]
        assert replayed.tolist() == rebuilt
