"""Virtual-time engine: ordering, blocking, contention, deadlock."""

import numpy as np
import pytest

from repro.errors import SimulationError, TopologyError
from repro.machine import MESIF, KNLMachine
from repro.sim import Engine, Program


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
