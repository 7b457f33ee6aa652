"""Failure injection: the pipeline under hostile conditions.

The methodology must stay robust when measurements are contaminated
(median-based statistics), when configurations are degenerate, and when
programs misbehave — and fail loudly, not wrongly, when it cannot.
"""

import numpy as np
import pytest

from repro.bench import Runner, characterize
from repro.bench.contention_bench import contention_sweep, fit_contention
from repro.errors import (
    ConfigurationError,
    SimulationError,
)
from repro.machine import (
    ClusterMode,
    KNLMachine,
    MachineConfig,
    MemoryKind,
    MemoryMode,
    NoiseModel,
    NoiseParams,
)
from repro.model import derive_capability_model
from repro.sim import Engine, Program


class TestContaminatedMeasurements:
    def test_model_orderings_survive_outlier_storm(self):
        """20x more outliers than normal: absolute medians drift (batch
        means absorb spikes) but the fitted model keeps every qualitative
        ordering the optimizers depend on."""
        dirty = KNLMachine(
            MachineConfig(cluster_mode=ClusterMode.QUADRANT), seed=3
        )
        dirty.noise.params = NoiseParams(sigma=0.03, outlier_p=0.12)  # type: ignore[misc]
        cap = derive_capability_model(
            characterize(dirty, iterations=60, seed=3)
        )
        assert cap.RL < cap.r_tile["S"] < cap.r_tile["M"]
        assert cap.r_tile["M"] < cap.RR < cap.RI_kind("mcdram")
        assert cap.contention.beta > 0
        assert cap.bw("triad", "mcdram") > 3 * cap.bw("triad", "ddr")

    def test_mean_would_have_been_wrong(self):
        """Demonstrates the median-over-mean choice: with outliers, the
        mean drifts several sigma while the median holds."""
        noise = NoiseModel(NoiseParams(sigma=0.03, outlier_p=0.10), seed=5)
        samples = noise.sample_values(np.full(5000, 100.0))
        assert abs(np.median(samples) - 100.0) < 5.0
        assert np.mean(samples) > np.median(samples) + 5.0


class TestDegenerateConfigurations:
    def test_tiny_part_works(self):
        cfg = MachineConfig(
            cluster_mode=ClusterMode.QUADRANT,
            n_active_tiles=4,
        )
        m = KNLMachine(cfg, seed=2)
        assert m.n_cores == 8
        cap = derive_capability_model(characterize(m, iterations=8))
        assert cap.RR > cap.RL

    def test_single_tile_per_quadrant(self):
        cfg = MachineConfig(cluster_mode=ClusterMode.SNC4, n_active_tiles=4)
        m = KNLMachine(cfg, seed=2)
        for q in range(4):
            assert len(m.topology.tiles_in_cluster(q, ClusterMode.SNC4)) == 1

    def test_single_thread_per_core_machine(self):
        cfg = MachineConfig(threads_per_core=1)
        m = KNLMachine(cfg, seed=2)
        assert m.n_threads == m.n_cores

    def test_allocator_exhaustion_is_clean(self):
        m = KNLMachine(MachineConfig(), seed=2)
        m.alloc(12 * (1 << 30), kind=MemoryKind.MCDRAM)
        with pytest.raises(ConfigurationError, match="out of memory"):
            m.alloc(8 * (1 << 30), kind=MemoryKind.MCDRAM)


class TestEngineAbuse:
    def test_massive_contention_storm(self, machine):
        """255 pollers on one flag: completes, and the last poller is
        delayed by roughly beta per predecessor."""
        progs = [Program(0).write_flag("storm", cold=False)]
        pollers = list(range(1, 256))
        progs += [Program(t).poll_flag("storm") for t in pollers]
        res = Engine(machine, noisy=False).run(progs)
        finishes = sorted(res.finish_of(t) for t in pollers)
        beta = machine.calibration.contention_beta
        assert finishes[-1] - finishes[0] == pytest.approx(
            beta * 254, rel=0.05
        )

    def test_self_deadlock(self, quiet_machine):
        with pytest.raises(SimulationError, match="deadlock"):
            Engine(quiet_machine, noisy=False).run(
                [Program(0).poll_flag("own").write_flag("own")]
            )

    def test_three_cycle_deadlock(self, quiet_machine):
        progs = [
            Program(0).poll_flag("c").write_flag("a"),
            Program(2).poll_flag("a").write_flag("b"),
            Program(4).poll_flag("b").write_flag("c"),
        ]
        with pytest.raises(SimulationError, match="deadlock"):
            Engine(quiet_machine, noisy=False).run(progs)

    def test_partial_progress_before_deadlock_detected(self, quiet_machine):
        """Non-deadlocked threads finish; the error still surfaces."""
        progs = [
            Program(0).delay(10.0),
            Program(2).poll_flag("never"),
        ]
        with pytest.raises(SimulationError):
            Engine(quiet_machine, noisy=False).run(progs)

    def test_huge_program(self, quiet_machine):
        p = Program(0)
        for _ in range(5000):
            p.delay(1.0)
        res = Engine(quiet_machine, noisy=False).run([p])
        assert res.finish_of(0) == pytest.approx(5000.0)


class TestModelEdgeCases:
    def test_capability_from_minimal_characterization(self, machine):
        """Characterize with the minimum iteration count; fits degrade
        gracefully (wider CIs), never crash."""
        cap = derive_capability_model(characterize(machine, iterations=3))
        assert cap.contention.beta > 0
        assert cap.RR > 0
