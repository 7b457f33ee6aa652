"""The virtual-time engine's runs are pinned float for float.

``tests/fixtures/engine_runs.json`` holds, for every case below, the
exact ``repr`` of each thread's finish time, each flag's set time and
every traced op's ``(thread, pc, start, end)``.  Each case runs on a
fresh SNC4-flat and a fresh SNC2 machine (SNC2 draws more outliers),
with the engine noisy and noise-free, twice in a row so the second run
pins where the first left the noise stream.  The cases cover every op
kind, every ``WriteFlag`` ``n_pollers``/``cold`` combination, polls with
line-sized and larger payloads, one-waiter and multi-waiter wakes, and
pollers that queue behind an in-flight transfer.  An engine change that
moves a single noise draw, or reorders two, fails here.

Float draws may differ between numpy releases, so the test skips when
the installed numpy's major.minor is not the one that wrote the fixture.

Regenerate (only when a run is meant to change) with::

    PYTHONPATH=src python tests/test_engine_golden.py --write
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Callable, Dict, List

import numpy as np
import pytest

from repro.algorithms import baselines
from repro.algorithms.barrier import barrier_programs, rounds_for
from repro.machine import (
    MESIF,
    ClusterMode,
    KNLMachine,
    MachineConfig,
    MemoryKind,
    MemoryMode,
)
from repro.sim import Engine, Program

FIXTURE = pathlib.Path(__file__).resolve().parent / "fixtures" / "engine_runs.json"
SEED = 20
RUNS_PER_CASE = 2

CONFIGS = {
    "snc4-flat": MachineConfig(
        cluster_mode=ClusterMode.SNC4, memory_mode=MemoryMode.FLAT
    ),
    "snc2-flat": MachineConfig(
        cluster_mode=ClusterMode.SNC2, memory_mode=MemoryMode.FLAT
    ),
}


def _every_op() -> List[Program]:
    p = Program(0)
    p.delay(37.5).delay(0.0).compute(640, 8.0).compute(100, 3.3)
    p.local_copy(64).local_copy(512 << 10)
    p.copy_from(40, 4096).copy_from(40, 1 << 16, MESIF.EXCLUSIVE, vectorized=False)
    p.copy_from(1, 4096, MESIF.SHARED).copy_from(0, 8192)
    p.mem_read(1 << 16).mem_read(1 << 14, MemoryKind.MCDRAM)
    p.mem_write(1 << 20).mem_write(1 << 18, MemoryKind.MCDRAM, nt=False)
    p.write_flag("solo").write_flag("warm", cold=False)
    return [p]


def _write_flag_combos() -> List[Program]:
    """One writer per ``n_pollers``/``cold`` pair; each flag has as many
    blocked pollers as it announces (at least one)."""
    progs: List[Program] = []
    thread = 0
    for k, (n_pollers, cold) in enumerate(
        [(0, True), (0, False), (1, True), (1, False), (3, True), (3, False)]
    ):
        flag = f"f/{n_pollers}/{int(cold)}"
        progs.append(
            Program(thread).delay(200.0 * (k + 1)).write_flag(flag, n_pollers, cold)
        )
        for _ in range(max(1, n_pollers)):
            thread += 5
            progs.append(Program(thread).poll_flag(flag))
        thread += 5
    return progs


def _poll_payloads() -> List[Program]:
    """Blocked pollers (a multi-waiter wake) and late ones, with
    payloads on both sides of one cache line."""
    progs = [Program(0).delay(50.0).write_flag("p", n_pollers=6, cold=False)]
    payloads = [
        (0, MESIF.MODIFIED),
        (64, MESIF.MODIFIED),
        (65, MESIF.MODIFIED),
        (4096, MESIF.MODIFIED),
        (4096, MESIF.EXCLUSIVE),
        (16384, MESIF.SHARED),
    ]
    for i, (nbytes, state) in enumerate(payloads):
        progs.append(Program(10 + 3 * i).poll_flag("p", nbytes, state))
        progs.append(
            Program(100 + 7 * i).delay(5000.0 + 30.0 * i).poll_flag("p", nbytes, state)
        )
    # A same-tile poller: the payload plateau depends on the writer's tile.
    progs.append(Program(1).poll_flag("p", 1024))
    return progs


def _one_waiter() -> List[Program]:
    return [
        Program(0).delay(1000.0).write_flag("one", n_pollers=1),
        Program(77).poll_flag("one", payload_bytes=256),
    ]


def _queue_behind_inflight() -> List[Program]:
    """Late pollers whose transfers overlap an in-flight one, after a
    direct serve and after a multi-waiter wake."""
    return [
        Program(0).write_flag("q", cold=False).delay(10.0).write_flag("m", 3, False),
        Program(20).delay(400.0).poll_flag("q", payload_bytes=4096),
        Program(24).delay(420.0).poll_flag("q"),
        Program(28).delay(425.0).poll_flag("q", payload_bytes=128),
        Program(32).delay(100_000.0).poll_flag("q"),
        Program(60).poll_flag("m"),
        Program(64).poll_flag("m", payload_bytes=512),
        Program(68).poll_flag("m"),
        Program(72).delay(300.0).poll_flag("m"),
    ]


def _chain() -> List[Program]:
    return [
        Program(0).delay(100.0).write_flag("a", cold=False),
        Program(30).poll_flag("a", 2048).local_copy(2048).write_flag("b"),
        Program(90).poll_flag("b", 192).compute(192, 8.0).write_flag("c", 1, False),
        Program(200).poll_flag("c").mem_write(4096),
    ]


def _zero_op() -> List[Program]:
    return [Program(5), Program(6).delay(1.0), Program(7)]


def _dissemination_barrier() -> List[Program]:
    ranks = list(range(0, 64, 8))
    return barrier_programs(ranks, rounds_for(len(ranks), 2), 2)


def _omp_broadcast() -> List[Program]:
    return baselines.omp_broadcast_programs(list(range(0, 48, 6)), 256)


def _omp_reduce() -> List[Program]:
    return baselines.omp_reduce_programs(list(range(0, 64, 8)), 128)


def _mpi_reduce() -> List[Program]:
    return baselines.mpi_reduce_programs(list(range(0, 32, 4)), 128)


def _mpi_barrier() -> List[Program]:
    return baselines.mpi_barrier_programs(list(range(0, 36, 6)))


CASES: Dict[str, Callable[[], List[Program]]] = {
    "every_op": _every_op,
    "write_flag_combos": _write_flag_combos,
    "poll_payloads": _poll_payloads,
    "one_waiter": _one_waiter,
    "queue_behind_inflight": _queue_behind_inflight,
    "chain": _chain,
    "zero_op": _zero_op,
    "dissemination_barrier": _dissemination_barrier,
    "omp_broadcast": _omp_broadcast,
    "omp_reduce": _omp_reduce,
    "mpi_reduce": _mpi_reduce,
    "mpi_barrier": _mpi_barrier,
}

KEYS = [
    f"{config}/{'noisy' if noisy else 'quiet'}/{case}"
    for config in CONFIGS
    for noisy in (True, False)
    for case in CASES
]


def _run_case(key: str, record_trace: bool) -> List[dict]:
    config, mode, case = key.split("/")
    machine = KNLMachine(CONFIGS[config], seed=SEED)
    engine = Engine(machine, noisy=mode == "noisy", record_trace=record_trace)
    runs = []
    for _ in range(RUNS_PER_CASE):
        res = engine.run(CASES[case]())
        run = {
            "finish_ns": [[t, repr(v)] for t, v in res.finish_ns.items()],
            "flag_set_ns": {f: repr(v) for f, v in sorted(res.flag_set_ns.items())},
        }
        if record_trace:
            run["trace"] = [
                [e.thread, e.op_index, repr(e.start_ns), repr(e.end_ns)]
                for e in res.trace
            ]
        runs.append(run)
    return runs


def _major_minor(version: str) -> str:
    return ".".join(version.split(".")[:2])


@pytest.fixture(scope="module")
def recorded() -> dict:
    doc = json.loads(FIXTURE.read_text())
    if _major_minor(np.__version__) != _major_minor(doc["numpy"]):
        pytest.skip(
            f"engine runs were recorded with numpy {doc['numpy']}; numpy "
            f"{np.__version__} may draw different floats"
        )
    assert doc["seed"] == SEED
    assert sorted(doc["runs"]) == sorted(KEYS)
    return doc["runs"]


@pytest.mark.parametrize("key", KEYS)
def test_engine_run_matches_recording(recorded, key):
    assert _run_case(key, record_trace=True) == recorded[key]


@pytest.mark.parametrize("key", KEYS)
def test_untraced_run_matches_recording(recorded, key):
    """Recording a trace draws no noise of its own."""
    expected = [
        {k: v for k, v in run.items() if k != "trace"} for run in recorded[key]
    ]
    assert _run_case(key, record_trace=False) == expected


def _write() -> None:
    # One line per case keeps the fixture small and its diffs readable.
    lines = [
        f"  {json.dumps(key)}: "
        f"{json.dumps(_run_case(key, record_trace=True), separators=(',', ':'))}"
        for key in KEYS
    ]
    FIXTURE.write_text(
        f'{{"numpy": {json.dumps(np.__version__)}, "seed": {SEED}, "runs": {{\n'
        + ",\n".join(lines)
        + "\n}}\n"
    )
    print(f"wrote {len(KEYS)} recorded cases to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    _write()
