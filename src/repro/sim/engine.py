"""The virtual-time engine.

Threads are advanced in global virtual-time order (a heap keyed by each
thread's clock), one op at a time.  Flags implement the happens-before
edges: a :class:`PollFlag` blocks until the writer's clock reaches the
corresponding :class:`WriteFlag`, then pays the machine's cost for
pulling the flag line (plus payload) — with queueing when several pollers
hit the same flag, following the measured contention model
``T_C(N) = α + β·N``.

Processing in clock order makes contention ranks consistent: when a
poller starts its transfer, every transfer that started earlier in
virtual time has already been registered.

A run has two phases.  :meth:`Engine.compile` does everything that does
not depend on noise, once per program set: it checks the set, resolves
each thread's core, interns flag names to ints, finds each flag's one
writer and prices every op noise-free through the machine's cost model.
:meth:`Engine.replay` walks the resulting flat instruction lists and
draws only the noise, in op order.  ``run(programs)`` is
``replay(compile(programs))``; a caller that runs one fixed program set
many times (a collective's episodes) compiles it once.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.machine.coherence import MESIF
from repro.machine.machine import KNLMachine
from repro.sim.kernels import flag_wake_finishes
from repro.sim.trace import Trace, TraceEvent
from repro.sim.program import (
    Compute,
    CopyFrom,
    Delay,
    LocalCopy,
    MemRead,
    MemWrite,
    Op,
    PollFlag,
    Program,
    WriteFlag,
)
from repro.units import CACHE_LINE_BYTES, lines_in

# Instruction op codes.  An instruction is a tuple headed by its code;
# the costs it carries are noise-free.
_JITTER = 0    # (code, ns): jitter only (Delay, Compute, MemWrite)
_SAMPLE = 1    # (code, ns): one noise sample (LocalCopy, CopyFrom)
_MEM_READ = 2  # (code, latency_ns, stream_ns)
_WRITE = 3     # (code, flag, store_ns, visibility_ns)
_POLL = 4      # (code, flag, flag_line_ns, payload_ns)
_END = 5       # (code,): closes every thread's list

_END_INS = (_END,)
_arrival = operator.itemgetter(0)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one engine run."""

    finish_ns: Mapping[int, float]
    flag_set_ns: Mapping[str, float]
    #: Present when the engine ran with ``record_trace=True``.
    trace: Optional[Trace] = None

    @property
    def makespan_ns(self) -> float:
        """Time when the last thread finished."""
        return max(self.finish_ns.values())

    def finish_of(self, thread: int) -> float:
        return self.finish_ns[thread]


@dataclass(frozen=True)
class CompiledRun:
    """A program set lowered by :meth:`Engine.compile` for one machine:
    per-thread instruction tuples (see the op codes above, each list
    closed by ``_END``), indexed like ``threads``; ``ops`` keeps the
    source ops for trace events."""

    machine: KNLMachine
    threads: Tuple[int, ...]
    code: Tuple[Tuple[tuple, ...], ...]
    ops: Tuple[Tuple[Op, ...], ...]
    flags: Tuple[str, ...]


class Engine:
    """Runs a set of per-thread programs to completion on a machine."""

    def __init__(
        self,
        machine: KNLMachine,
        noisy: bool = True,
        record_trace: bool = False,
    ) -> None:
        self.machine = machine
        self.noisy = noisy
        self.record_trace = record_trace

    # ------------------------------------------------------------------

    def run(self, programs: Sequence[Program]) -> RunResult:
        """Compile ``programs`` and replay them once."""
        return self.replay(self.compile(programs))

    def compile(self, programs: Sequence[Program]) -> CompiledRun:
        """Check and lower ``programs``; draws no noise, so a rejected
        set (duplicate or out-of-range thread, unknown op, a flag
        written twice) leaves the machine's noise stream untouched."""
        threads = tuple(p.thread for p in programs)
        if len(set(threads)) != len(threads):
            raise SimulationError("duplicate thread ids in program set")
        topo = self.machine.topology
        cores = [topo.core_of_thread(t) for t in threads]
        flag_ids: Dict[str, int] = {}
        writer_core: Dict[int, int] = {}
        for p, core in zip(programs, cores):
            for op in p.ops:
                if isinstance(op, (WriteFlag, PollFlag)):
                    f = flag_ids.setdefault(op.flag, len(flag_ids))
                    if isinstance(op, WriteFlag):
                        if f in writer_core:
                            raise SimulationError(
                                f"flag {op.flag!r} written twice "
                                f"(again by thread {p.thread})"
                            )
                        writer_core[f] = core
        code = tuple(
            tuple([self._lower(op, core, flag_ids, writer_core) for op in p.ops]
                  + [_END_INS])
            for p, core in zip(programs, cores)
        )
        return CompiledRun(
            machine=self.machine,
            threads=threads,
            code=code,
            ops=tuple(tuple(p.ops) for p in programs),
            flags=tuple(flag_ids),
        )

    def _lower(
        self, op: Op, core: int, flag_ids: Dict[str, int],
        writer_core: Dict[int, int],
    ) -> tuple:
        """One op as an instruction with its noise-free costs."""
        m = self.machine
        if isinstance(op, WriteFlag):
            return (_WRITE, flag_ids[op.flag],
                    m.flag_write_ns(op.n_pollers, noisy=False),
                    m.flag_visibility_ns(op.n_pollers, op.cold, noisy=False))
        if isinstance(op, PollFlag):
            f = flag_ids[op.flag]
            writer = writer_core.get(f)
            if writer is None:  # never served: the run deadlocks
                return (_POLL, f, None, None)
            payload = 0.0
            if op.payload_bytes > CACHE_LINE_BYTES:
                extra_lines = lines_in(op.payload_bytes) - 1
                bw = m._multiline_plateau_bw(  # noqa: SLF001 - engine is a friend
                    core, op.payload_state, writer, "copy", True
                )
                payload = extra_lines * CACHE_LINE_BYTES / bw
            return (_POLL, f, m.line_transfer_true_ns(
                core, MESIF.MODIFIED, writer), payload)
        if isinstance(op, Delay):
            return (_JITTER, op.ns)
        if isinstance(op, Compute):
            return (_JITTER, lines_in(op.nbytes) * op.ns_per_line)
        if isinstance(op, LocalCopy):
            return (_SAMPLE, m.multiline_true_ns(
                core, op.nbytes, MESIF.EXCLUSIVE, core, "copy"))
        if isinstance(op, CopyFrom):
            return (_SAMPLE, m.multiline_true_ns(
                core, op.nbytes, op.state, op.owner_core, "copy", op.vectorized))
        if isinstance(op, MemRead):
            return (_MEM_READ, m.memory_latency_true_ns(core, kind=op.kind),
                    op.nbytes / 8.0)  # single-thread ~8 GB/s (§V-B)
        if isinstance(op, MemWrite):
            return (_JITTER, op.nbytes / (8.0 if op.nt else 8.0 * 0.52))
        raise SimulationError(f"unknown op {op!r}")

    def replay(self, compiled: CompiledRun) -> RunResult:
        """Run a compiled program set once, drawing fresh noise."""
        from repro.obs import counter

        if compiled.machine is not self.machine:
            raise SimulationError("program set was compiled for another machine")
        counter("sim.runs").inc()
        noisy = self.noisy
        sample = self.machine.noise.sample
        jitter = self.machine.noise.jitter_only
        beta = self.machine.calibration.contention_beta
        threads, code, ops = compiled.threads, compiled.code, compiled.ops
        n_flags = len(compiled.flags)
        pc = [0] * len(threads)
        set_time: List[Optional[float]] = [None] * n_flags
        # Finish of the latest transfer in each flag's contention queue,
        # and the number of transfers served so far (rank accounting).
        queue_tail = [float("-inf")] * n_flags
        served = [0] * n_flags
        # flag -> blocked (arrival, thread index, pc) in blocking order
        waiters: Dict[int, List[Tuple[float, int, int]]] = {}
        finished: Dict[int, float] = {}
        events: Optional[List[TraceEvent]] = [] if self.record_trace else None

        # Heap of (clock, tiebreak, thread index); blocked threads leave
        # it.  A thread keeps running while its clock stays below every
        # other entry's: exactly when its push would be the next pop.
        heap = [(0.0, i, i) for i in range(len(threads))]
        tiebreak = itertools.count(len(threads))
        heappush, heappop = heapq.heappush, heapq.heappop

        def serve(f: int, ins: tuple, start: float) -> float:
            """Finish of one poller's transfer (flag + payload): the
            first reader pays the plain cache-to-cache cost; one whose
            transfer overlaps an in-flight one queues at β."""
            base = sample(ins[2]) if noisy else ins[2]
            finish = start + (base + ins[3])
            if served[f] and queue_tail[f] > start:
                finish = max(finish, queue_tail[f] + (jitter(beta) if noisy else beta))
            queue_tail[f] = finish
            served[f] += 1
            return finish

        def wake(f: int, flag_set: float, woken: list) -> None:
            """Serve the threads blocked on flag ``f``, just set, in their
            arrival (clock) order.  A wide wake (broadcast fan-out) draws
            all waiters' noise through one array kernel; one waiter takes
            the scalar path."""
            woken.sort(key=_arrival)
            starts = [max(w[0], flag_set) for w in woken]
            polls = [code[w][wk] for _, w, wk in woken]
            if len(woken) > 1:
                finishes, queue_tail[f], served[f] = flag_wake_finishes(
                    self.machine, starts, [p[2] for p in polls],
                    [p[3] for p in polls], queue_tail[f], served[f], noisy,
                )
            else:
                finishes = [serve(f, polls[0], starts[0])]
            for (_, w, wk), start, finish in zip(woken, starts, finishes):
                if events is not None:
                    events.append(
                        TraceEvent(threads[w], wk, ops[w][wk], start, finish))
                pc[w] = wk + 1
                heappush(heap, (finish, next(tiebreak), w))

        while heap:
            now, _, i = heappop(heap)
            prog = code[i]
            k = pc[i]
            while True:
                ins = prog[k]
                kind = ins[0]
                start = now
                if kind == _POLL:
                    f = ins[1]
                    flag_set = set_time[f]
                    if flag_set is None:
                        waiters.setdefault(f, []).append((now, i, k))
                        break
                    if flag_set > now:
                        start = flag_set
                    end = serve(f, ins, start)
                elif kind == _JITTER:
                    end = now + (jitter(ins[1]) if noisy else ins[1])
                elif kind == _SAMPLE:
                    end = now + (sample(ins[1]) if noisy else ins[1])
                elif kind == _WRITE:
                    f = ins[1]
                    end = now + (sample(ins[2]) if noisy else ins[2])
                    visible = sample(ins[3]) if noisy and ins[3] else ins[3]
                    set_time[f] = flag_set = end + visible
                    woken = waiters.pop(f, None)
                    if woken:
                        wake(f, flag_set, woken)
                elif kind == _MEM_READ:
                    end = now + (sample(ins[1]) + jitter(ins[2])
                                 if noisy else ins[1] + ins[2])
                else:  # _END
                    finished[threads[i]] = now
                    break
                if events is not None:
                    events.append(TraceEvent(threads[i], k, ops[i][k], start, end))
                k += 1
                now = end
                if heap and heap[0][0] <= now:
                    pc[i] = k
                    heappush(heap, (now, next(tiebreak), i))
                    break

        if waiters:
            stuck = sorted(threads[w[1]] for ws in waiters.values() for w in ws)
            missing = sorted(compiled.flags[f] for f in waiters)
            raise SimulationError(
                f"deadlock: threads {stuck} wait on flags never "
                f"written: {missing}"
            )
        trace = None
        if events is not None:
            trace = Trace(events)
            self._publish_trace(trace)
        return RunResult(
            finish_ns=finished,
            flag_set_ns=dict(zip(compiled.flags, set_time)),
            trace=trace,
        )

    def _publish_trace(self, trace: Trace) -> None:
        """Export hook: attach the finished virtual-time trace to the
        process-global tracer (a no-op unless tracing is enabled), so a
        ``--trace`` run exports sim timelines on their own clock track.
        """
        from repro.obs import counter, get_tracer

        tracer = get_tracer()
        if not tracer.enabled:
            return
        counter("sim.ops.traced").inc(len(trace))
        tracer.add_sim_trace(
            trace, label=f"{self.machine.config.label()}/{len(trace)}ops"
        )
