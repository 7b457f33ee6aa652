"""The straight-line tape against the event loop.

``Engine.compile`` gives an uncontended program set (every flag with at
most one poller, every polled flag written, no cycle) a tape, and
``Engine.replay`` plays it without the heap.  The tape must equal the
event loop bit for bit: finish and flag times, the trace, and where it
leaves the noise stream.  The event loop is forced by replaying the same
compiled set with its tape removed.
"""

from __future__ import annotations

import dataclasses
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algorithms import baselines
from repro.errors import SimulationError
from repro.machine import MESIF, MemoryKind, NoiseModel
from repro.obs import counter
from repro.sim import Engine, Program

NOISE_SEED = 11

#: Payloads on both sides of one cache line, and the states a payload
#: can be pulled in.
PAYLOADS = st.sampled_from([0, 1, 64, 65, 128, 4096, 1 << 15])
STATES = st.sampled_from([MESIF.MODIFIED, MESIF.EXCLUSIVE, MESIF.SHARED])
SIZES = st.integers(0, 1 << 16)


@st.composite
def uncontended_sets(draw, n_threads: int):
    """Programs built by appending ops one at a time to random threads;
    a poll is only appended for a flag already written and not yet
    polled, so the append order is a valid run order (no cycle) and
    each flag has at most one poller.  Threads may stay empty; a writer
    of several flags fans out, a poll followed by a write chains."""
    threads = draw(st.lists(st.integers(0, n_threads - 1), min_size=1,
                            max_size=8, unique=True))
    progs = [Program(t) for t in threads]
    unpolled = []
    for step in range(draw(st.integers(0, 30))):
        prog = progs[draw(st.integers(0, len(progs) - 1))]
        kind = draw(st.sampled_from(
            ["delay", "compute", "local_copy", "copy_from", "mem_read",
             "mem_write", "write", "write", "poll", "poll", "poll"]))
        if kind == "delay":
            prog.delay(draw(st.floats(0.0, 1e4)))
        elif kind == "compute":
            prog.compute(draw(SIZES), draw(st.floats(0.0, 16.0)))
        elif kind == "local_copy":
            prog.local_copy(draw(SIZES))
        elif kind == "copy_from":
            prog.copy_from(draw(st.integers(0, 63)), draw(SIZES), draw(STATES),
                           vectorized=draw(st.booleans()))
        elif kind == "mem_read":
            prog.mem_read(draw(SIZES), draw(st.sampled_from(MemoryKind)))
        elif kind == "mem_write":
            prog.mem_write(draw(SIZES), draw(st.sampled_from(MemoryKind)),
                           nt=draw(st.booleans()))
        elif kind == "write":
            flag = f"f{step}"
            prog.write_flag(flag, draw(st.integers(0, 4)), draw(st.booleans()))
            if draw(st.booleans()):  # some flags are never polled
                unpolled.append(flag)
        elif unpolled:
            flag = unpolled.pop(draw(st.integers(0, len(unpolled) - 1)))
            prog.poll_flag(flag, draw(PAYLOADS), draw(STATES))
    return progs


def _replay_both(machine, programs, noisy=True):
    """``(tape run, event-loop run, next draw after each)`` for one
    compiled set, each from a fresh noise stream of one seed."""
    compiled = Engine(machine).compile(programs)
    assert compiled.tape is not None
    out = []
    for form in (compiled, dataclasses.replace(compiled, tape=None)):
        noise = NoiseModel(machine.noise.params, seed=NOISE_SEED)
        engine = Engine(machine, noisy=noisy, record_trace=True, noise=noise)
        out.append((engine.replay(form), noise.rng.random()))
    return out


class TestTapeEqualsEventLoop:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), noisy=st.booleans())
    def test_generated_uncontended_sets(self, machine, data, noisy):
        programs = data.draw(uncontended_sets(machine.topology.n_threads))
        (tape, tape_next), (loop, loop_next) = _replay_both(
            machine, programs, noisy)
        assert list(tape.finish_ns.items()) == list(loop.finish_ns.items())
        assert list(tape.finish_ns) == [p.thread for p in programs]
        assert tape.flag_set_ns == loop.flag_set_ns
        assert tape.trace.events == loop.trace.events
        assert tape_next == loop_next

    @pytest.mark.parametrize("build", [
        lambda: baselines.mpi_barrier_programs(list(range(0, 64, 4))),
        lambda: baselines.mpi_reduce_programs(list(range(0, 64, 4)), 256),
        lambda: baselines.mpi_broadcast_programs(list(range(0, 64, 4)), 4096),
        lambda: baselines.omp_reduce_programs(list(range(0, 64, 4)), 128),
    ], ids=["mpi-barrier", "mpi-reduce", "mpi-broadcast", "omp-reduce"])
    def test_baseline_collectives(self, machine, build):
        (tape, tape_next), (loop, loop_next) = _replay_both(machine, build())
        assert tape.finish_ns == loop.finish_ns
        assert tape.flag_set_ns == loop.flag_set_ns
        assert tape.trace.events == loop.trace.events
        assert tape_next == loop_next


class TestPathSelection:
    def test_contended_flag_takes_the_event_loop(self, machine):
        compiled = Engine(machine).compile([
            Program(0).write_flag("go", n_pollers=2),
            Program(4).poll_flag("go"),
            Program(8).poll_flag("go"),
        ])
        assert compiled.tape is None

    def test_one_thread_polling_a_flag_twice_is_contended(self, machine):
        compiled = Engine(machine).compile([
            Program(0).write_flag("go"),
            Program(4).poll_flag("go").poll_flag("go"),
        ])
        assert compiled.tape is None

    @pytest.mark.parametrize("programs, stuck", [
        ([Program(0).delay(5.0), Program(4).poll_flag("never")],
         "threads [4] wait on flags never written: ['never']"),
        ([Program(0).poll_flag("b").write_flag("a"),
          Program(4).poll_flag("a").write_flag("b")],
         "threads [0, 4] wait on flags never written: ['a', 'b']"),
    ], ids=["unwritten-flag", "cycle"])
    def test_deadlocks_take_the_event_loop_after_drawing_noise(
        self, machine, programs, stuck
    ):
        compiled = Engine(machine).compile(programs)
        assert compiled.tape is None
        noise = NoiseModel(machine.noise.params, seed=NOISE_SEED)
        with pytest.raises(SimulationError, match=re.escape(stuck)):
            Engine(machine, noise=noise).replay(compiled)
        fresh = NoiseModel(machine.noise.params, seed=NOISE_SEED)
        fresh.sample_values(compiled.sampled)
        fresh.jitter_values(compiled.jittered)
        assert noise.rng.random() == fresh.rng.random()

    @pytest.mark.parametrize("contended", [False, True])
    def test_finish_ns_in_set_order_on_both_paths(self, machine, contended):
        """Threads 9 and 5 wait for thread 3, so they finish last; the
        result still lists them in program-set order."""
        waiters = [Program(9).poll_flag("go"), Program(5)]
        if contended:
            waiters[1].poll_flag("go")
        programs = [waiters[0], Program(3).delay(2.0).write_flag("go"),
                    waiters[1]]
        engine = Engine(machine, noisy=False)
        compiled = engine.compile(programs)
        assert (compiled.tape is None) is contended
        res = engine.replay(compiled)
        assert list(res.finish_ns) == [9, 3, 5]
        assert res.finish_ns[9] > res.finish_ns[3]


class TestStraightRunsCounter:
    def _straight_runs(self, machine, programs) -> int:
        before = counter("sim.runs.straight").value
        Engine(machine, noisy=False).run(programs)
        return counter("sim.runs.straight").value - before

    def test_mpi_barrier_counts(self, machine):
        ranks = list(range(0, 64, 4))
        assert self._straight_runs(
            machine, baselines.mpi_barrier_programs(ranks)) == 1

    def test_omp_barrier_does_not(self, machine):
        ranks = list(range(0, 64, 4))
        assert self._straight_runs(
            machine, baselines.omp_barrier_programs(ranks)) == 0
