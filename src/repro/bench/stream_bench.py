"""Memory-bandwidth benchmarks (§V-A, Table II, Fig. 9).

STREAM-style kernels — copy ``a[i]=b[i]``, read ``a=b[i]``, write
``b[i]=a``, triad ``a[i]=b[i]+s*c[i]`` — with vector instructions and
non-temporal hints where possible, run for many iterations over buffers
selected at random from a larger pool.  Per iteration the slowest
thread's time is recorded; the experiment reports the median, and a
table entry is the maximum median over thread counts and schedules.

``tuned=True`` switches to the sequential, carefully scheduled STREAM
variant that reaches the peak figures.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.bench.runner import BenchResult, Runner
from repro.bench.schedules import cores_ht_of, pin_threads
from repro.bench.stats import max_median
from repro.errors import BenchmarkError
from repro.machine.config import MemoryKind
from repro.machine.machine import KNLMachine
from repro.units import MIB

#: Per-thread bytes touched per iteration (the paper streams buffers well
#: beyond cache capacity).
DEFAULT_BYTES_PER_THREAD = 16 * MIB

#: Pool from which each iteration draws a random buffer (drives the
#: MCDRAM-cache hit rate in cache mode: pool of 32 GiB >> 16 GB cache).
DEFAULT_POOL_BYTES = 32 * (1 << 30)

#: Thread counts of the Fig. 9 sweep.
DEFAULT_THREAD_SWEEP = (1, 4, 8, 16, 32, 64, 128, 256)

STREAM_OPS = ("copy", "read", "write", "triad")


def stream_once(
    machine: KNLMachine,
    op: str,
    n_threads: int,
    schedule: str = "scatter",
    kind: MemoryKind = MemoryKind.DDR,
    nt: bool = True,
    tuned: bool = False,
    bytes_per_thread: int = DEFAULT_BYTES_PER_THREAD,
    pool_bytes: int = DEFAULT_POOL_BYTES,
    noisy: bool = True,
) -> float:
    """One iteration: returns achieved GB/s (total bytes / slowest thread)."""
    cores_ht = _pinned_cores_ht(machine, op, n_threads, schedule)
    return _stream_gbps(
        machine, op, cores_ht, n_threads, kind, nt, tuned,
        bytes_per_thread, pool_bytes, noisy,
    )


def _pinned_cores_ht(
    machine: KNLMachine, op: str, n_threads: int, schedule: str
) -> Dict[int, int]:
    """Validate ``op`` and pin: core → threads streaming on it."""
    if op not in STREAM_OPS:
        raise BenchmarkError(f"unknown op {op!r}")
    topo = machine.topology
    return cores_ht_of(topo, pin_threads(topo, n_threads, schedule))


def _stream_gbps(
    machine: KNLMachine,
    op: str,
    cores_ht: Dict[int, int],
    n_threads: int,
    kind: MemoryKind,
    nt: bool,
    tuned: bool,
    bytes_per_thread: int,
    pool_bytes: int,
    noisy: bool = True,
) -> float:
    """One iteration on an already pinned thread set."""
    times = machine.stream_iteration_ns(
        op,
        bytes_per_thread,
        cores_ht,
        kind=kind,
        nt=nt,
        tuned=tuned,
        working_set_bytes=pool_bytes,
        noisy=noisy,
    )
    moved_bytes = bytes_per_thread * n_threads
    return moved_bytes / float(times.max())


def stream_bandwidth(
    runner: Runner,
    op: str,
    n_threads: int,
    schedule: str = "scatter",
    kind: MemoryKind = MemoryKind.DDR,
    nt: bool = True,
    tuned: bool = False,
    bytes_per_thread: int = DEFAULT_BYTES_PER_THREAD,
    pool_bytes: int = DEFAULT_POOL_BYTES,
) -> BenchResult:
    """Median bandwidth of a stream kernel at one operating point.

    The threads are pinned once, before the first iteration, as the
    paper's harness binds them once per run.
    """
    m = runner.machine
    cores_ht = _pinned_cores_ht(m, op, n_threads, schedule)

    def sample(rng: np.random.Generator) -> float:
        return _stream_gbps(
            m, op, cores_ht, n_threads, kind, nt, tuned,
            bytes_per_thread, pool_bytes,
        )

    label = "tuned" if tuned else ("nt" if nt else "plain")
    return runner.collect(
        name=f"stream/{op}/{kind.value}/{schedule}/t{n_threads}/{label}",
        sample_fn=sample,
        params={
            "op": op,
            "kind": kind.value,
            "schedule": schedule,
            "n_threads": n_threads,
            "nt": nt,
            "tuned": tuned,
        },
        unit="GB/s",
    )


def thread_sweep(
    runner: Runner,
    op: str,
    kind: MemoryKind,
    schedule: str,
    thread_counts: Sequence[int] = DEFAULT_THREAD_SWEEP,
    **kw,
) -> List[BenchResult]:
    """Fig. 9: bandwidth vs thread count for one schedule."""
    max_t = runner.machine.topology.n_threads
    return [
        stream_bandwidth(runner, op, t, schedule, kind, **kw)
        for t in thread_counts
        if t <= max_t
    ]


def best_median(
    runner: Runner,
    op: str,
    kind: MemoryKind,
    thread_counts: Sequence[int] = DEFAULT_THREAD_SWEEP,
    schedules: Sequence[str] = ("scatter", "compact"),
    **kw,
) -> float:
    """Table II's cell: maximum median across thread counts & schedules."""
    meds = []
    for sched in schedules:
        meds.extend(
            r.median for r in thread_sweep(runner, op, kind, sched, thread_counts, **kw)
        )
    return max_median(meds)


def memory_latency_bench(
    runner: Runner, kind: MemoryKind = MemoryKind.DDR, core: int = 0
) -> BenchResult:
    """Idle (unloaded) memory latency, BenchIT pointer-chase style."""
    m = runner.machine

    def batch(n: int, rng: np.random.Generator) -> np.ndarray:
        true = m.memory_latency_true_ns(core, kind=kind)
        return m.noise.sample_mean_of(true, n, 32)

    return runner.collect_vectorized(
        name=f"memlat/{kind.value}",
        batch_fn=batch,
        params={"kind": kind.value, "core": core},
    )


def table2_block(
    runner: Runner, kind: MemoryKind, thread_counts: Sequence[int] = (16, 64, 128, 256)
) -> Dict[str, float]:
    """All Table-II rows for one memory target in the current mode."""
    out: Dict[str, float] = {}
    out["latency_ns"] = memory_latency_bench(runner, kind).median
    for op in STREAM_OPS:
        out[f"{op}_nt"] = best_median(runner, op, kind, thread_counts)
    for op in ("copy", "triad"):
        out[f"{op}_stream_peak"] = best_median(
            runner, op, kind, thread_counts, tuned=True
        )
    return out
