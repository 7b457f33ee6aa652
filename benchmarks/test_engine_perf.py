"""Performance-tracking benches for the hot paths.

No assertions on absolute speed (machine-dependent) — these exist so
``pytest benchmarks/ --benchmark-only`` tracks regressions in the
virtual-time engine and the characterization pipeline, which gate how
many iterations the figure experiments can afford.
"""

import pytest

from repro.algorithms import plan_broadcast, tune_barrier, tune_tree
from repro.algorithms.barrier import barrier_programs
from repro.bench import characterize, pin_threads
from repro.sim import Engine


def test_engine_barrier_64(benchmark, machine, capability):
    threads = pin_threads(machine.topology, 64, "scatter")
    tb = tune_barrier(capability, 64)
    progs_factory = lambda: barrier_programs(threads, tb.rounds, tb.arity)
    engine = Engine(machine, noisy=True)

    def episode():
        return engine.run(progs_factory()).makespan_ns

    result = benchmark(episode)
    assert result > 0


def test_engine_broadcast_256(benchmark, machine, capability):
    threads = pin_threads(machine.topology, 256, "scatter")
    plan = plan_broadcast(capability, machine.topology, threads)
    engine = Engine(machine, noisy=True)

    def episode():
        return engine.run(plan.programs()).makespan_ns

    assert benchmark(episode) > 0


def test_engine_replay_broadcast_256(benchmark, machine, capability):
    """The replay loop alone: the program set is built and compiled
    once, as ``run_episodes`` does, so only noise and scheduling remain."""
    threads = pin_threads(machine.topology, 256, "scatter")
    plan = plan_broadcast(capability, machine.topology, threads)
    engine = Engine(machine, noisy=True)
    compiled = engine.compile(plan.programs())

    def episode():
        return engine.replay(compiled).makespan_ns

    assert benchmark(episode) > 0


def test_characterization_speed(benchmark, machine):
    res = benchmark.pedantic(
        lambda: characterize(machine, iterations=20), rounds=1, iterations=1
    )
    assert res.config_label == "snc4-flat"


def test_tree_optimizer_64(benchmark, capability):
    tuned = benchmark(lambda: tune_tree(capability, 64))
    assert tuned.tree.n == 64
