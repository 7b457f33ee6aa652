"""The virtual-time engine.

Each thread runs its ops in order on its own virtual clock.  Flags
implement the happens-before edges: a :class:`PollFlag` blocks until the
writer's clock reaches the corresponding :class:`WriteFlag`, then pays
the machine's cost for pulling the flag line (plus payload) — with
queueing when several pollers hit the same flag, following the measured
contention model ``T_C(N) = α + β·N``.

The event loop advances threads in global virtual-time order (a heap
keyed by each thread's clock), one op at a time.  Processing in clock
order makes contention ranks consistent: when a poller starts its
transfer, every transfer that started earlier in virtual time has
already been registered.

A run has two phases.  :meth:`Engine.compile` does everything that does
not depend on noise, once per program set: it checks the set, resolves
each thread's core, interns flag names to ints, finds each flag's one
writer, prices every op noise-free through the machine's cost model and
gives each noisy cost a fixed slot.  :meth:`Engine.replay` draws all of
a run's noise at its start, one ``sample_values`` call over the sample
slots and one ``jitter_values`` call over the jitter slots, and its loop
only indexes into the drawn values.  Noise therefore comes in slot
order, and the number of draws is fixed by the program set, not by the
order events happen in.  ``run(programs)`` is
``replay(compile(programs))``; a caller that runs one fixed program set
many times (a collective's episodes) compiles it once.

A replay takes one of two forms, chosen by :meth:`Engine.compile`:

* *The straight-line tape* — for an uncontended set: every flag has at
  most one poller, every polled flag has a writer and a dependency walk
  reaches every thread's end.  With no queue, a poll finishes at
  ``max(arrival, flag_set) + cost`` whatever order events run in, so
  the tape replays the instructions in one fixed dependency order, with
  one clock per thread and no heap, and gives exactly the event loop's
  floats.  This covers the MPI-style collectives, the OpenMP-style
  reduce chain, the tuned reduces and the dissemination barriers.
* *The event loop* — for every other set: a flag with several pollers
  (whose queueing depends on arrival order), an unwritten flag or a
  cycle (which end in the deadlock error).

Both forms draw the same noise, and key ``finish_ns`` in ``threads``
order.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.machine.coherence import MESIF
from repro.machine.machine import KNLMachine
from repro.machine.noise import NoiseModel
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
# a slot is an index into the replay's value list, which holds 0.0 at
# slot 0, the sample slots at 1, 2, ... and the jitter slots at -1,
# -2, ... (so both kinds are numbered while a set is lowered).
_COST = 0      # (code, slot): jitter for Delay, Compute, MemWrite;
               # sample for LocalCopy, CopyFrom
_MEM_READ = 1  # (code, latency_slot, stream_slot)
_WRITE = 2     # (code, flag, store_slot, visibility_slot)
_POLL = 3      # (code, flag, flag_line_slot, payload_ns, beta_slot)
_END = 4       # (code,): closes every thread's list

_END_INS = (_END,)
# A tape is a tuple of runs ``(thread index, first pc, instructions)``:
# each run is one thread's instructions from ``first pc`` up to a poll
# of a flag not yet written (or its ``_END``, which the tape leaves out).
Tape = Tuple[Tuple[int, int, Tuple[tuple, ...]], ...]
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
    source ops for trace events.  ``sampled`` and ``jittered`` hold the
    noise-free value of each sample and jitter slot, in slot order.
    ``tape`` is the straight-line replay order of an uncontended set,
    None for a set the event loop must run (see the module docstring)."""

    machine: KNLMachine
    threads: Tuple[int, ...]
    code: Tuple[Tuple[tuple, ...], ...]
    ops: Tuple[Tuple[Op, ...], ...]
    flags: Tuple[str, ...]
    sampled: np.ndarray
    jittered: np.ndarray
    tape: Optional[Tape]


class Engine:
    """Runs a set of per-thread programs to completion on a machine."""

    def __init__(
        self,
        machine: KNLMachine,
        noisy: bool = True,
        record_trace: bool = False,
        noise: Optional[NoiseModel] = None,
    ) -> None:
        """``noise`` is the stream replays draw from; None (the
        default) draws from the machine's own."""
        self.machine = machine
        self.noisy = noisy
        self.record_trace = record_trace
        self.noise = noise

    # ------------------------------------------------------------------

    def run(self, programs: Sequence[Program]) -> RunResult:
        """Compile ``programs`` and replay them once."""
        return self.replay(self.compile(programs))

    def compile(self, programs: Sequence[Program]) -> CompiledRun:
        """Check and lower ``programs``; draws no noise, so a rejected
        set (duplicate or out-of-range thread, unknown op, a flag
        written twice, a negative op cost) leaves the machine's noise
        stream untouched."""
        threads = tuple(p.thread for p in programs)
        if len(set(threads)) != len(threads):
            raise SimulationError("duplicate thread ids in program set")
        topo = self.machine.topology
        cores = [topo.core_of_thread(t) for t in threads]
        flag_ids: Dict[str, int] = {}
        writer_core: Dict[int, int] = {}
        polled: List[int] = []  # the flag of every poll
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
                    else:
                        polled.append(f)
        sampled: List[float] = []
        jittered: List[float] = []

        def sample(ns: float) -> int:
            sampled.append(ns)
            return len(sampled)

        def jitter(ns: float) -> int:
            jittered.append(ns)
            return -len(jittered)

        code = tuple(
            tuple([self._lower(op, core, flag_ids, writer_core, sample, jitter)
                   for op in p.ops] + [_END_INS])
            for p, core in zip(programs, cores)
        )
        lowest = min(sampled + jittered, default=0.0)
        if lowest < 0:
            raise SimulationError(f"negative op cost: {lowest} ns")
        return CompiledRun(
            machine=self.machine,
            threads=threads,
            code=code,
            ops=tuple(tuple(p.ops) for p in programs),
            flags=tuple(flag_ids),
            sampled=np.array(sampled, dtype=float),
            jittered=np.array(jittered, dtype=float),
            # Pollers of one flag queue in arrival order, which only the
            # event loop knows: a contended set gets no tape.
            tape=(None if len(set(polled)) < len(polled)
                  else _straight_line(code, len(flag_ids))),
        )

    def _lower(
        self, op: Op, core: int, flag_ids: Dict[str, int],
        writer_core: Dict[int, int], sample: Callable[[float], int],
        jitter: Callable[[float], int],
    ) -> tuple:
        """One op as an instruction; ``sample``/``jitter`` give each
        noise-free cost its slot.  A zero flag visibility stays exactly
        zero (slot 0), and a poll no writer serves gets no slot."""
        m = self.machine
        if isinstance(op, WriteFlag):
            store = sample(m.flag_write_ns(op.n_pollers, noisy=False))
            visibility = m.flag_visibility_ns(op.n_pollers, op.cold, noisy=False)
            return (_WRITE, flag_ids[op.flag], store,
                    sample(visibility) if visibility else 0)
        if isinstance(op, PollFlag):
            f = flag_ids[op.flag]
            writer = writer_core.get(f)
            if writer is None:  # never served: the run deadlocks
                return (_POLL, f, None, None, None)
            payload = 0.0
            if op.payload_bytes > CACHE_LINE_BYTES:
                extra_lines = lines_in(op.payload_bytes) - 1
                bw = m._multiline_plateau_bw(  # noqa: SLF001 - engine is a friend
                    core, op.payload_state, writer, "copy", True
                )
                payload = extra_lines * CACHE_LINE_BYTES / bw
            return (_POLL, f,
                    sample(m.line_transfer_true_ns(core, MESIF.MODIFIED, writer)),
                    payload, jitter(m.calibration.contention_beta))
        if isinstance(op, Delay):
            return (_COST, jitter(op.ns))
        if isinstance(op, Compute):
            return (_COST, jitter(lines_in(op.nbytes) * op.ns_per_line))
        if isinstance(op, LocalCopy):
            return (_COST, sample(m.multiline_true_ns(
                core, op.nbytes, MESIF.EXCLUSIVE, core, "copy")))
        if isinstance(op, CopyFrom):
            return (_COST, sample(m.multiline_true_ns(
                core, op.nbytes, op.state, op.owner_core, "copy", op.vectorized)))
        if isinstance(op, MemRead):
            return (_MEM_READ, sample(m.memory_latency_true_ns(core, kind=op.kind)),
                    jitter(op.nbytes / 8.0))  # single-thread ~8 GB/s (§V-B)
        if isinstance(op, MemWrite):
            return (_COST, jitter(op.nbytes / (8.0 if op.nt else 8.0 * 0.52)))
        raise SimulationError(f"unknown op {op!r}")

    def replay(self, compiled: CompiledRun) -> RunResult:
        """Run a compiled program set once, drawing fresh noise: one
        array draw over its sample slots, then one over its jitter
        slots.  A set with a tape plays it; any other runs the event
        loop."""
        from repro.obs import counter

        if compiled.machine is not self.machine:
            raise SimulationError("program set was compiled for another machine")
        counter("sim.runs").inc()
        sampled, jittered = compiled.sampled, compiled.jittered
        if self.noisy:
            noise = self.noise if self.noise is not None else self.machine.noise
            sampled = noise.sample_values(sampled)
            jittered = noise.jitter_values(jittered)
        value = [0.0, *sampled.tolist(), *jittered[::-1].tolist()]
        events: Optional[List[TraceEvent]] = [] if self.record_trace else None
        if compiled.tape is not None:
            counter("sim.runs.straight").inc()
            finish, set_time = _play_tape(compiled, value, events)
        else:
            finish, set_time = _event_loop(compiled, value, events)
        trace = None
        if events is not None:
            trace = Trace(events)
            self._publish_trace(trace)
        return RunResult(
            finish_ns=dict(zip(compiled.threads, finish)),
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


def _event_loop(
    compiled: CompiledRun, value: List[float],
    events: Optional[List[TraceEvent]],
) -> Tuple[List[float], List[Optional[float]]]:
    """Run a set in global virtual-time order, queueing pollers that
    contend for a flag; returns each thread's finish (in ``threads``
    order) and each flag's set time, or raises on a deadlock."""
    threads, code, ops = compiled.threads, compiled.code, compiled.ops
    n_flags = len(compiled.flags)
    pc = [0] * len(threads)
    set_time: List[Optional[float]] = [None] * n_flags
    # Finish of the latest transfer in each flag's contention queue
    # (-inf until the first one: nothing to queue behind).
    queue_tail = [float("-inf")] * n_flags
    # flag -> blocked (arrival, thread index, pc) in blocking order
    waiters: Dict[int, List[Tuple[float, int, int]]] = {}
    finished = [0.0] * len(threads)

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
        finish = start + (value[ins[2]] + ins[3])
        if queue_tail[f] > start:
            finish = max(finish, queue_tail[f] + value[ins[4]])
        queue_tail[f] = finish
        return finish

    while heap:
        now, _, i = heappop(heap)
        prog = code[i]
        k = pc[i]
        while True:
            ins = prog[k]
            kind = ins[0]
            start = now
            if kind == _COST:
                end = now + value[ins[1]]
            elif kind == _POLL:
                f = ins[1]
                flag_set = set_time[f]
                if flag_set is None:
                    waiters.setdefault(f, []).append((now, i, k))
                    break
                if flag_set > now:
                    start = flag_set
                end = serve(f, ins, start)
            elif kind == _WRITE:
                f = ins[1]
                end = now + value[ins[2]]
                set_time[f] = flag_set = end + value[ins[3]]
                woken = waiters.pop(f, None)
                if woken:  # serve the blocked pollers in arrival order
                    woken.sort(key=_arrival)
                    for arrival, w, wk in woken:
                        w_start = max(arrival, flag_set)
                        w_end = serve(f, code[w][wk], w_start)
                        if events is not None:
                            events.append(TraceEvent(
                                threads[w], wk, ops[w][wk], w_start, w_end))
                        pc[w] = wk + 1
                        heappush(heap, (w_end, next(tiebreak), w))
            elif kind == _MEM_READ:
                end = now + (value[ins[1]] + value[ins[2]])
            else:  # _END
                finished[i] = now
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
    return finished, set_time


def _play_tape(
    compiled: CompiledRun, value: List[float],
    events: Optional[List[TraceEvent]],
) -> Tuple[List[float], List[Optional[float]]]:
    """Run an uncontended set's tape: the event loop's float operations
    in dependency order, one clock per thread and no heap.  Every poll
    comes after its flag's write and has no other poller to queue
    behind, so it starts at ``max(arrival, flag_set)``."""
    threads, ops = compiled.threads, compiled.ops
    set_time: List[Optional[float]] = [None] * len(compiled.flags)
    clock = [0.0] * len(threads)
    for i, k, run in compiled.tape:
        now = clock[i]
        for ins in run:
            kind = ins[0]
            start = now
            if kind == _COST:
                now = now + value[ins[1]]
            elif kind == _POLL:
                flag_set = set_time[ins[1]]
                if flag_set > now:
                    start = flag_set
                now = start + (value[ins[2]] + ins[3])
            elif kind == _WRITE:
                now = now + value[ins[2]]
                set_time[ins[1]] = now + value[ins[3]]
            else:  # _MEM_READ
                now = now + (value[ins[1]] + value[ins[2]])
            if events is not None:
                events.append(TraceEvent(threads[i], k, ops[i][k], start, now))
                k += 1
        clock[i] = now
    return clock, set_time


def _straight_line(
    code: Tuple[Tuple[tuple, ...], ...], n_flags: int
) -> Optional[Tape]:
    """The tape of a set whose flags each have at most one poller, or
    None.  A worklist walk runs each thread until it reaches a poll of a
    flag not yet written, parks it there and wakes it at that flag's
    write.  None when the walk leaves a thread parked (an unwritten flag
    or a cycle: the event loop reports the deadlock)."""
    written = [False] * n_flags
    parked: Dict[int, int] = {}  # flag -> the thread index polling it
    pc = [0] * len(code)
    ready = list(range(len(code)))
    tape = []
    while ready:
        i = ready.pop()
        prog = code[i]
        first = k = pc[i]
        while True:
            ins = prog[k]
            kind = ins[0]
            if kind == _END:
                break
            if kind == _POLL and not written[ins[1]]:
                parked[ins[1]] = i
                break
            if kind == _WRITE:
                written[ins[1]] = True
                woken = parked.pop(ins[1], None)
                if woken is not None:
                    ready.append(woken)
            k += 1
        pc[i] = k
        if k > first:
            tape.append((i, first, prog[first:k]))
    return None if parked else tuple(tape)
