"""Shared driver for the collective-operation experiments (Figs. 6-8).

One sweep point: pin N threads with a schedule, build the tuned
algorithm from a fitted capability model, execute `iterations` episodes
of tuned / OpenMP-style / MPI-style on the engine, and record boxplot
statistics plus the min-max model envelope.

Each of a point's three episode runs draws from its own noise stream,
seeded by the machine seed and the run's label, so a point's row does
not depend on which points ran before it.  Inside :func:`shared_points`
a point computed once is reused by every later sweep that asks for it
(``speedups`` asks for 18 of the points Figs. 6-8 compute, when they
share ``--seed`` and ``--iterations``).
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms import baselines
from repro.algorithms.barrier import barrier_programs, tune_barrier
from repro.algorithms.broadcast import plan_broadcast
from repro.algorithms.execute import run_episodes
from repro.algorithms.reduce import plan_reduce
from repro.bench import characterize
from repro.bench.schedules import pin_threads
from repro.cache.keys import content_key
from repro.experiments.common import ExperimentResult, default_config
from repro.machine.machine import KNLMachine
from repro.machine.noise import NoiseModel
from repro.model import derive_capability_model
from repro.model.parameters import CapabilityModel
from repro.rng import SeedLike, label_hash

#: Thread counts of the Figs. 6-8 sweeps.
DEFAULT_THREADS = (2, 4, 8, 16, 32, 64, 128, 256)

#: Iterations of the shared characterization behind Figs. 6-8 (the
#: :func:`make_setup` default — declared so the scheduler can warm it).
CHAR_ITERATIONS = 60


def characterization_needs(default_seed: int):
    """``needs=`` declaration for experiments built on :func:`make_setup`."""
    from repro.runtime.task import CharacterizationNeed

    def needs(kw):
        seed = kw.get("seed", default_seed)
        if not isinstance(seed, int):
            return ()
        return (
            CharacterizationNeed(
                config=default_config(),
                machine_seed=seed,
                iterations=CHAR_ITERATIONS,
            ),
        )

    return needs

#: The two pinning schedules of §IV-B3.
DEFAULT_SCHEDULES = ("fill_tiles", "scatter")

COLUMNS = (
    "collective", "schedule", "threads",
    "tuned_med_us", "tuned_q1_us", "tuned_q3_us",
    "model_best_us", "model_worst_us",
    "omp_med_us", "mpi_med_us",
    "speedup_omp", "speedup_mpi",
)


@dataclass
class CollectiveSetup:
    machine: KNLMachine
    capability: CapabilityModel

    @functools.cached_property
    def capability_key(self) -> str:
        """Content hash of the fitted model, which (with the machine's
        facts) fixes every program a sweep point runs."""
        return content_key(self.capability)


#: Rows of the sweep points computed in the current
#: :func:`shared_points` scope; None outside one.
_points: Optional[Dict[Tuple, Dict[str, Any]]] = None


@contextlib.contextmanager
def shared_points() -> Iterator[None]:
    """Reuse sweep points across the collective sweeps run inside.

    A point's row is a pure function of its key (machine facts, noise
    parameters, fitted model, and the point's label), so a reused row is
    the row a recomputation would give.  The memo lives until the
    outermost scope exits; a nested scope shares it.
    """
    global _points
    outer = _points
    if outer is None:
        _points = {}
    try:
        yield
    finally:
        _points = outer


def make_setup(
    seed: SeedLike = 29, iterations: int = CHAR_ITERATIONS
) -> CollectiveSetup:
    """SNC4-flat machine + fitted capability model (collectives run with
    buffers in MCDRAM per the paper's Figs. 6-8)."""
    machine = KNLMachine(default_config(), seed=seed)
    cap = derive_capability_model(characterize(machine, iterations=iterations))
    return CollectiveSetup(machine=machine, capability=cap)


def _tuned_builders(
    setup: CollectiveSetup,
    collective: str,
    threads: List[int],
    payload_bytes: int,
):
    """(program builder, min-max model) for the tuned algorithm."""
    cap = setup.capability
    topo = setup.machine.topology
    if collective == "barrier":
        tb = tune_barrier(cap, len(threads))
        return (
            lambda: barrier_programs(threads, tb.rounds, tb.arity),
            tb.model,
        )
    if collective == "broadcast":
        plan = plan_broadcast(cap, topo, threads, payload_bytes)
        return plan.programs, plan.model
    if collective == "reduce":
        plan = plan_reduce(cap, topo, threads, payload_bytes)
        return plan.programs, plan.model
    raise ValueError(f"unknown collective {collective!r}")


def _baseline_builders(collective: str, threads: List[int], payload_bytes: int):
    if collective == "barrier":
        return (
            lambda: baselines.omp_barrier_programs(threads),
            lambda: baselines.mpi_barrier_programs(threads),
        )
    if collective == "broadcast":
        return (
            lambda: baselines.omp_broadcast_programs(threads, payload_bytes),
            lambda: baselines.mpi_broadcast_programs(threads, payload_bytes),
        )
    if collective == "reduce":
        return (
            lambda: baselines.omp_reduce_programs(threads, payload_bytes),
            lambda: baselines.mpi_reduce_programs(threads, payload_bytes),
        )
    raise ValueError(f"unknown collective {collective!r}")


def _point_noise(machine: KNLMachine, label: str) -> Optional[NoiseModel]:
    """The stream of one episode run: seeded by the machine seed and
    ``label``, or None (the machine's own stream) when the machine's
    seed is not a plain int."""
    if machine.seed is None:
        return None
    return NoiseModel(
        machine.noise.params,
        np.random.SeedSequence([machine.seed, label_hash(label)]),
    )


def _sweep_point(
    setup: CollectiveSetup,
    collective: str,
    schedule: str,
    n: int,
    iterations: int,
    payload_bytes: int,
) -> Dict[str, Any]:
    """One row of a sweep, from the memo when a scope holds it."""
    machine = setup.machine
    key = None
    if _points is not None and machine.facts_key is not None:
        key = (machine.facts_key, machine.noise.params, setup.capability_key,
               collective, schedule, n, iterations, payload_bytes)
        row = _points.get(key)
        if row is not None:
            return row
    threads = pin_threads(machine.topology, n, schedule)
    tuned_build, model = _tuned_builders(
        setup, collective, threads, payload_bytes
    )
    omp_build, mpi_build = _baseline_builders(
        collective, threads, payload_bytes
    )

    def episodes(algorithm: str, build, count: int) -> np.ndarray:
        label = f"{collective}/{schedule}/{n}/{algorithm}/{count}/{payload_bytes}"
        return run_episodes(machine, build, count,
                            noise=_point_noise(machine, label))

    s_tuned = episodes("tuned", tuned_build, iterations)
    s_omp = episodes("omp", omp_build, max(10, iterations // 2))
    s_mpi = episodes("mpi", mpi_build, max(10, iterations // 2))
    q1, med, q3 = np.percentile(s_tuned, [25, 50, 75]) / 1e3
    row = dict(
        collective=collective,
        schedule=schedule,
        threads=n,
        tuned_med_us=float(med),
        tuned_q1_us=float(q1),
        tuned_q3_us=float(q3),
        model_best_us=model.best_ns / 1e3,
        model_worst_us=model.worst_ns / 1e3,
        omp_med_us=float(np.median(s_omp)) / 1e3,
        mpi_med_us=float(np.median(s_mpi)) / 1e3,
        speedup_omp=float(np.median(s_omp) / np.median(s_tuned)),
        speedup_mpi=float(np.median(s_mpi) / np.median(s_tuned)),
    )
    if key is not None:
        _points[key] = row
    return row


def collective_sweep(
    collective: str,
    exp_id: str,
    title: str,
    iterations: int = 40,
    seed: SeedLike = 29,
    thread_counts: Sequence[int] = DEFAULT_THREADS,
    schedules: Sequence[str] = DEFAULT_SCHEDULES,
    payload_bytes: int = 64,
    setup: Optional[CollectiveSetup] = None,
) -> ExperimentResult:
    setup = setup or make_setup(seed=seed)
    result = ExperimentResult(exp_id=exp_id, title=title, columns=COLUMNS)
    for schedule in schedules:
        for n in thread_counts:
            if n > setup.machine.topology.n_threads:
                continue
            result.add(**_sweep_point(
                setup, collective, schedule, n, iterations, payload_bytes
            ))
    result.note(
        "min-max envelope brackets the trend; the paper notes the model "
        "overestimates at 32-64 threads (ours does too: levels pipeline)"
    )
    return result
