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
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.machine.coherence import MESIF
from repro.machine.machine import KNLMachine
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


@dataclass
class _FlagState:
    set_time: Optional[float] = None
    writer_core: Optional[int] = None
    #: Finish time of the latest transfer in the contention queue.
    queue_tail: float = -np.inf
    #: Number of transfers served so far (for rank accounting).
    served: int = 0
    #: Threads blocked waiting for the flag.
    waiters: List[int] = field(default_factory=list)


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
        from repro.obs import counter

        counter("sim.runs").inc()
        threads = [p.thread for p in programs]
        if len(set(threads)) != len(threads):
            raise SimulationError("duplicate thread ids in program set")
        progs: Dict[int, Program] = {p.thread: p for p in programs}
        # Each thread's core is fixed for the run: resolve (and range-
        # check) it once, before any op is costed.
        topo = self.machine.topology
        cores: Dict[int, int] = {t: topo.core_of_thread(t) for t in threads}
        clock: Dict[int, float] = {t: 0.0 for t in threads}
        pc: Dict[int, int] = {t: 0 for t in threads}
        flags: Dict[str, _FlagState] = {}
        finished: Dict[int, float] = {}

        # Heap of (clock, tiebreak, thread). Blocked threads leave the heap.
        events: List[TraceEvent] = []
        counter = itertools.count()
        heap = [(0.0, next(counter), t) for t in threads]
        heapq.heapify(heap)
        blocked: Dict[int, str] = {}  # thread -> flag name it waits on

        while heap:
            now, _, t = heapq.heappop(heap)
            if now != clock[t]:
                continue  # stale entry
            prog = progs[t]
            if pc[t] >= len(prog.ops):
                finished[t] = clock[t]
                continue
            op = prog.ops[pc[t]]
            if isinstance(op, PollFlag):
                st = flags.setdefault(op.flag, _FlagState())
                if st.set_time is None:
                    blocked[t] = op.flag
                    st.waiters.append(t)
                    continue
                arrival = clock[t]
                clock[t] = self._serve_poll(st, op, cores[t], arrival)
                if self.record_trace:
                    events.append(TraceEvent(
                        t, pc[t], op, max(arrival, st.set_time), clock[t]
                    ))
                pc[t] += 1
                heapq.heappush(heap, (clock[t], next(counter), t))
                continue

            cost = self._op_cost(op, cores[t])
            if self.record_trace:
                events.append(TraceEvent(t, pc[t], op, clock[t], clock[t] + cost))
            clock[t] += cost
            pc[t] += 1
            if isinstance(op, WriteFlag):
                st = flags.setdefault(op.flag, _FlagState())
                if st.set_time is not None:
                    raise SimulationError(
                        f"flag {op.flag!r} written twice (by thread {t})"
                    )
                st.set_time = clock[t] + self.machine.flag_visibility_ns(
                    op.n_pollers, op.cold, noisy=self.noisy
                )
                st.writer_core = cores[t]
                # Wake waiters in their arrival (clock) order.  A wide
                # wake (broadcast fan-out) batches all waiters' noise
                # draws through one array kernel; a single waiter takes
                # the scalar path.
                waking = sorted(st.waiters, key=lambda x: clock[x])
                if len(waking) > 1:
                    finishes = self._serve_poll_batch(
                        st, [(cores[w], progs[w].ops[pc[w]], clock[w])
                             for w in waking]
                    )
                else:
                    finishes = [
                        self._serve_poll(
                            st, progs[w].ops[pc[w]], cores[w], clock[w]
                        )
                        for w in waking
                    ]
                for w, finish in zip(waking, finishes):
                    wop = progs[w].ops[pc[w]]
                    assert isinstance(wop, PollFlag) and wop.flag == op.flag
                    warrival = clock[w]
                    clock[w] = finish
                    if self.record_trace:
                        events.append(TraceEvent(
                            w, pc[w], wop, max(warrival, st.set_time), clock[w]
                        ))
                    pc[w] += 1
                    del blocked[w]
                    heapq.heappush(heap, (clock[w], next(counter), w))
                st.waiters.clear()
            heapq.heappush(heap, (clock[t], next(counter), t))

        if blocked:
            missing = sorted(set(blocked.values()))
            raise SimulationError(
                f"deadlock: threads {sorted(blocked)} wait on flags never "
                f"written: {missing}"
            )
        # Threads that ran off the end of their op list inside the loop are
        # already in `finished`; catch any zero-op programs too.
        for t in threads:
            finished.setdefault(t, clock[t])
        trace = Trace(events) if self.record_trace else None
        if trace is not None:
            self._publish_trace(trace)
        return RunResult(
            finish_ns=finished,
            flag_set_ns={
                name: st.set_time
                for name, st in flags.items()
                if st.set_time is not None
            },
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

    # ------------------------------------------------------------------

    def _serve_poll(
        self, st: _FlagState, op: PollFlag, reader: int, arrival: float
    ) -> float:
        """Completion time of a poller's transfer (flag + payload).

        The first reader pays the plain cache-to-cache cost; readers whose
        transfer overlaps an in-flight one queue at β per reader, so N
        simultaneous pollers complete at ``set + α + iβ`` — the measured
        T_C shape.  ``reader`` is the poller's core.
        """
        m = self.machine
        start = max(arrival, st.set_time)
        base = m.flag_read_ns(reader, st.writer_core, noisy=self.noisy)
        if op.payload_bytes > CACHE_LINE_BYTES:
            extra_lines = lines_in(op.payload_bytes) - 1
            bw = m._multiline_plateau_bw(  # noqa: SLF001 - engine is a friend
                reader, op.payload_state, st.writer_core, "copy", True
            )
            base += extra_lines * CACHE_LINE_BYTES / bw
        solo_finish = start + base
        if st.served == 0 or st.queue_tail <= start:
            finish = solo_finish
        else:
            beta = m.calibration.contention_beta
            if self.noisy:
                beta = m.noise.jitter_only(beta)
            finish = max(solo_finish, st.queue_tail + beta)
        st.queue_tail = finish
        st.served += 1
        return finish

    def _serve_poll_batch(
        self, st: _FlagState, wakes: List[tuple]
    ) -> List[float]:
        """Array-kernel twin of :meth:`_serve_poll` for a whole wake:
        per-waiter solo costs are drawn in one vectorized noise call,
        the contention-queue recurrence folds over the results
        (:func:`repro.sim.kernels.flag_wake_finishes`).  ``wakes`` holds
        ``(reader core, poll op, arrival)`` per waiter."""
        from repro.sim.kernels import flag_wake_finishes

        m = self.machine
        starts: List[float] = []
        base_true: List[float] = []
        extra: List[float] = []
        for reader, op, arrival in wakes:
            assert isinstance(op, PollFlag)
            starts.append(max(arrival, st.set_time))
            base_true.append(
                m.line_transfer_true_ns(reader, MESIF.MODIFIED, st.writer_core)
            )
            if op.payload_bytes > CACHE_LINE_BYTES:
                extra_lines = lines_in(op.payload_bytes) - 1
                bw = m._multiline_plateau_bw(  # noqa: SLF001 - friend
                    reader, op.payload_state, st.writer_core, "copy", True
                )
                extra.append(extra_lines * CACHE_LINE_BYTES / bw)
            else:
                extra.append(0.0)
        finishes, st.queue_tail, st.served = flag_wake_finishes(
            m, starts, base_true, extra, st.queue_tail, st.served, self.noisy
        )
        return finishes

    def _op_cost(self, op: Op, core: int) -> float:
        m = self.machine
        noisy = self.noisy
        if isinstance(op, Delay):
            return op.ns if not noisy else m.noise.jitter_only(op.ns)
        if isinstance(op, Compute):
            value = lines_in(op.nbytes) * op.ns_per_line
            return value if not noisy else m.noise.jitter_only(value)
        if isinstance(op, LocalCopy):
            return m.multiline_ns(
                core, op.nbytes, MESIF.EXCLUSIVE, core, "copy", noisy=noisy
            )
        if isinstance(op, CopyFrom):
            return m.multiline_ns(
                core, op.nbytes, op.state, op.owner_core, "copy",
                vectorized=op.vectorized, noisy=noisy,
            )
        if isinstance(op, MemRead):
            lat = m.memory_latency_ns(core, kind=op.kind, noisy=noisy)
            stream = op.nbytes / 8.0  # single-thread ~8 GB/s (§V-B)
            return lat + (m.noise.jitter_only(stream) if noisy else stream)
        if isinstance(op, MemWrite):
            bw = 8.0 if op.nt else 8.0 * 0.52
            stream = op.nbytes / bw
            return (m.noise.jitter_only(stream) if noisy else stream)
        if isinstance(op, WriteFlag):
            return m.flag_write_ns(op.n_pollers, noisy=noisy)
        raise SimulationError(f"unknown op {op!r}")
