"""Virtual-time engine: ordering, blocking, contention, deadlock."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.errors import SimulationError, TopologyError
from repro.machine import MESIF, KNLMachine
from repro.sim import Engine, Op, Program
from tests import test_engine_golden as golden


@pytest.fixture()
def engine(quiet_machine):
    return Engine(quiet_machine, noisy=False)


class TestBasics:
    def test_single_thread_delay(self, engine):
        res = engine.run([Program(0).delay(100.0)])
        assert res.finish_of(0) == pytest.approx(100.0)

    def test_sequential_ops_accumulate(self, engine):
        res = engine.run([Program(0).delay(100.0).delay(50.0)])
        assert res.finish_of(0) == pytest.approx(150.0)

    def test_independent_threads_parallel(self, engine):
        res = engine.run([Program(0).delay(100.0), Program(1).delay(30.0)])
        assert res.makespan_ns == pytest.approx(100.0)
        assert res.finish_of(1) == pytest.approx(30.0)

    def test_empty_program_finishes_at_zero(self, engine):
        res = engine.run([Program(0)])
        assert res.finish_of(0) == 0.0

    def test_out_of_range_thread_rejected_before_any_op(self, snc4_flat_config):
        """Each thread's core is resolved before the run: a program bound
        to a thread the machine lacks raises, even with no ops, and no
        other thread's op is costed (no noise is drawn) first."""
        m = KNLMachine(snc4_flat_config, seed=3)
        eng = Engine(m, noisy=True)
        before = m.noise.rng.bit_generator.state
        with pytest.raises(TopologyError):
            eng.run([Program(0).delay(100.0), Program(m.topology.n_threads)])
        assert m.noise.rng.bit_generator.state == before

    def test_duplicate_threads_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.run([Program(0), Program(0)])


class TestFlags:
    def test_poll_waits_for_writer(self, engine, quiet_machine):
        progs = [
            Program(0).delay(500.0).write_flag("go", cold=False),
            Program(2).poll_flag("go"),
        ]
        res = engine.run(progs)
        # Reader finishes after writer's flag became visible + read cost.
        read = quiet_machine.flag_read_ns(2, 0, noisy=False)
        write = quiet_machine.flag_write_ns(noisy=False)
        assert res.finish_of(2) == pytest.approx(500.0 + write + read, rel=0.01)

    def test_cold_flag_visible_later(self, engine, quiet_machine):
        warm = engine.run(
            [Program(0).write_flag("w", cold=False), Program(2).poll_flag("w")]
        ).finish_of(2)
        cold = engine.run(
            [Program(0).write_flag("c", cold=True), Program(2).poll_flag("c")]
        ).finish_of(2)
        assert cold > warm + 50.0

    def test_late_poller_no_wait(self, engine):
        progs = [
            Program(0).write_flag("go", cold=False),
            Program(2).delay(10_000.0).poll_flag("go"),
        ]
        res = engine.run(progs)
        assert res.finish_of(2) < 10_000.0 + 300.0

    def test_flag_set_times_reported(self, engine):
        res = engine.run([Program(0).delay(42.0).write_flag("f", cold=False)])
        assert "f" in res.flag_set_ns
        assert res.flag_set_ns["f"] >= 42.0

    def test_double_write_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.run(
                [Program(0).write_flag("f").write_flag("f")]
            )

    def test_deadlock_detected(self, engine):
        with pytest.raises(SimulationError, match="deadlock"):
            engine.run([Program(0).poll_flag("never")])

    def test_cross_wait_deadlock(self, engine):
        progs = [
            Program(0).poll_flag("b").write_flag("a"),
            Program(2).poll_flag("a").write_flag("b"),
        ]
        with pytest.raises(SimulationError, match="deadlock"):
            engine.run(progs)

    def test_chain_propagates(self, engine):
        # 0 -> 2 -> 4: completion strictly ordered.
        progs = [
            Program(0).delay(100.0).write_flag("a", cold=False),
            Program(2).poll_flag("a").write_flag("b", cold=False),
            Program(4).poll_flag("b"),
        ]
        res = engine.run(progs)
        assert res.finish_of(0) < res.finish_of(2) < res.finish_of(4)


class TestContention:
    def test_concurrent_pollers_serialize(self, engine, quiet_machine):
        n = 8
        progs = [Program(0).write_flag("go", cold=False)]
        pollers = [2 * i for i in range(1, n + 1)]
        progs += [Program(t).poll_flag("go") for t in pollers]
        res = engine.run(progs)
        finishes = sorted(res.finish_of(t) for t in pollers)
        beta = quiet_machine.calibration.contention_beta
        # Consecutive finishers separated by ~beta once the queue forms.
        gaps = np.diff(finishes)
        assert np.median(gaps) == pytest.approx(beta, rel=0.2)

    def test_spread_arrivals_no_queueing(self, engine):
        progs = [Program(0).write_flag("go", cold=False)]
        pollers = [2, 4, 6]
        for i, t in enumerate(pollers):
            progs.append(Program(t).delay(10_000.0 * (i + 1)).poll_flag("go"))
        res = engine.run(progs)
        finishes = [res.finish_of(t) for t in pollers]
        gaps = np.diff(sorted(finishes))
        assert all(g > 5_000.0 for g in gaps)  # no contention compression

    def test_payload_lengthens_transfer(self, engine):
        short = engine.run(
            [
                Program(0).write_flag("a", cold=False),
                Program(2).poll_flag("a", payload_bytes=64),
            ]
        ).finish_of(2)
        long = engine.run(
            [
                Program(0).write_flag("b", cold=False),
                Program(2).poll_flag("b", payload_bytes=64 * 128),
            ]
        ).finish_of(2)
        assert long > short + 500.0


class TestOpCosts:
    def test_copy_from_uses_machine_cost(self, engine, quiet_machine):
        res = engine.run([Program(0).copy_from(10, 64 * 1024, MESIF.EXCLUSIVE)])
        expect = quiet_machine.multiline_true_ns(0, 64 * 1024, MESIF.EXCLUSIVE, 10)
        assert res.finish_of(0) == pytest.approx(expect, rel=0.01)

    def test_mem_read_scales(self, engine):
        small = engine.run([Program(0).mem_read(1 << 16)]).finish_of(0)
        big = engine.run([Program(0).mem_read(1 << 22)]).finish_of(0)
        assert big > 10 * small

    def test_compute_cost(self, engine):
        res = engine.run([Program(0).compute(64 * 10, 8.0)])
        assert res.finish_of(0) == pytest.approx(80.0)

    def test_noisy_engine_varies(self, machine):
        eng = Engine(machine, noisy=True)
        runs = {
            eng.run([Program(0).copy_from(10, 4096)]).finish_of(0)
            for _ in range(5)
        }
        assert len(runs) > 1


@dataclass(frozen=True)
class _Bogus(Op):
    """An op kind the engine does not know."""


class TestCompile:
    """``compile`` checks and prices a program set without drawing
    noise; ``replay`` runs it; ``run`` is the two in a row."""

    @pytest.mark.parametrize(
        "programs, error, match",
        [
            (lambda m: [Program(0).delay(5.0), Program(0)],
             SimulationError, "duplicate"),
            (lambda m: [Program(0).delay(5.0), Program(m.topology.n_threads)],
             TopologyError, None),
            (lambda m: [Program(0).delay(5.0).extend([_Bogus()])],
             SimulationError, "unknown op"),
            (lambda m: [Program(0).delay(5.0).write_flag("twice"),
                        Program(2).poll_flag("twice").write_flag("twice")],
             SimulationError, "'twice' written twice"),
            (lambda m: [Program(0).delay(5.0), Program(4).compute(64, -5.0)],
             SimulationError, "negative op cost"),
            (lambda m: [Program(0).delay(5.0).mem_write(-64)],
             SimulationError, "negative op cost"),
        ],
        ids=["duplicate-thread", "thread-out-of-range", "unknown-op",
             "flag-written-twice", "negative-compute", "negative-mem-write"],
    )
    def test_bad_program_set_rejected_before_any_noise(
        self, snc4_flat_config, programs, error, match
    ):
        m = KNLMachine(snc4_flat_config, seed=3)
        eng = Engine(m, noisy=True)
        before = m.noise.rng.bit_generator.state
        with pytest.raises(error, match=match):
            eng.compile(programs(m))
        with pytest.raises(error, match=match):
            eng.run(programs(m))
        assert m.noise.rng.bit_generator.state == before

    def test_replays_continue_the_noise_stream(self, snc4_flat_config):
        def progs():
            return [
                Program(0).delay(10.0).write_flag("go", n_pollers=3),
                Program(4).poll_flag("go", payload_bytes=512),
                Program(8).poll_flag("go"),
                Program(12).copy_from(40, 4096).poll_flag("go"),
            ]

        ran = Engine(KNLMachine(snc4_flat_config, seed=5), record_trace=True)
        replayed = Engine(KNLMachine(snc4_flat_config, seed=5), record_trace=True)
        compiled = replayed.compile(progs())
        for _ in range(3):
            a, b = ran.run(progs()), replayed.replay(compiled)
            assert a.finish_ns == b.finish_ns
            assert a.flag_set_ns == b.flag_set_ns
            assert a.trace.events == b.trace.events

    def test_replay_on_another_machine_rejected(self, engine, machine):
        compiled = engine.compile([Program(0).delay(1.0)])
        with pytest.raises(SimulationError, match="another machine"):
            Engine(machine).replay(compiled)


class TestNoiseSlots:
    """Where ``replay`` draws its noise."""

    @pytest.mark.parametrize("config", sorted(golden.CONFIGS))
    @pytest.mark.parametrize("case", sorted(golden.CASES))
    def test_noise_off_equals_noise_free(self, config, case):
        """A noisy replay on a machine built with ``noise=False`` (zero
        sigma, no outliers, no quantum) is the noise-free replay, float
        for float and in the trace."""
        def run(noisy):
            m = KNLMachine(golden.CONFIGS[config], seed=golden.SEED, noise=False)
            return Engine(m, noisy=noisy, record_trace=True).run(golden.CASES[case]())

        noisy, quiet = run(True), run(False)
        assert noisy.finish_ns == quiet.finish_ns
        assert noisy.flag_set_ns == quiet.flag_set_ns
        assert noisy.trace.events == quiet.trace.events

    @staticmethod
    def _second_poller_at(delay_ns):
        """``q``'s second poller starts ``delay_ns`` in: early enough to
        queue behind the first poller's transfer, or long after it."""
        return [
            Program(0).write_flag("q", cold=False),
            Program(20).delay(400.0).poll_flag("q", payload_bytes=4096),
            Program(24).delay(delay_ns).poll_flag("q"),
        ]

    def test_draw_count_does_not_depend_on_event_order(self, snc4_flat_config):
        """Every poll's queue β has a slot whether or not it queues, so
        two sets of the same shape leave the noise stream in one state."""
        qm = KNLMachine(snc4_flat_config, seed=5, noise=False)
        quiet = Engine(qm, noisy=False)
        early, late = self._second_poller_at(405.0), self._second_poller_at(1e5)
        res = quiet.run(early)
        assert res.finish_of(24) == res.finish_of(20) + qm.calibration.contention_beta
        solo = qm.line_transfer_true_ns(
            qm.topology.core_of_thread(24), MESIF.MODIFIED,
            qm.topology.core_of_thread(0))
        assert quiet.run(late).finish_of(24) == 1e5 + solo
        states = []
        for progs in (early, late):
            m = KNLMachine(snc4_flat_config, seed=5)
            Engine(m).run(progs)
            states.append(m.noise.rng.bit_generator.state)
        assert states[0] == states[1]

    def test_zero_visibility_flag_has_no_quantum(self, snc4_flat_config):
        """A warm flag nobody holds becomes visible the instant its
        store ends: no sample is drawn for a zero visibility, so no TSC
        quantum is added to it."""
        m = KNLMachine(snc4_flat_config, seed=5)
        assert m.flag_visibility_ns(0, cold=False, noisy=False) == 0.0
        res = Engine(m, record_trace=True).run(
            [Program(0).delay(50.0).write_flag("z", n_pollers=0, cold=False)]
        )
        store = res.trace.events[-1]
        assert store.end_ns > store.start_ns
        assert res.flag_set_ns["z"] == store.end_ns == res.finish_of(0)
