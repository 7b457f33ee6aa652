"""Array kernels behind the microbenchmark inner loops.

These pin the :mod:`repro.sim.kernels` sweeps: shapes, determinism for
a fixed seed and the validation errors.
"""

import numpy as np
import pytest

from repro.errors import BenchmarkError
from repro.machine import KNLMachine
from repro.machine.coherence import MESIF
from repro.sim.kernels import bandwidth_grid, contention_makespans


def fresh_machine(seed=7, noise=True):
    from repro.machine import MachineConfig

    return KNLMachine(MachineConfig(), seed=seed, noise=noise)


class TestContentionMakespans:
    def test_shape_and_positivity(self, machine):
        out = contention_makespans(machine, n_accessors=8, iterations=25)
        assert out.shape == (25,)
        assert (out > 0).all()

    def test_deterministic_per_seed(self):
        a = contention_makespans(fresh_machine(seed=42), 8, 25)
        b = contention_makespans(fresh_machine(seed=42), 8, 25)
        assert np.array_equal(a, b)

    def test_makespan_grows_with_contention(self):
        """Max-over-accessors of an increasing line: more accessors,
        larger makespan (medians, to be robust to outlier draws)."""
        few = contention_makespans(fresh_machine(seed=3), 2, 101)
        many = contention_makespans(fresh_machine(seed=3), 64, 101)
        assert np.median(many) > np.median(few)

    def test_rejects_zero_accessors(self, machine):
        with pytest.raises(BenchmarkError, match="at least one accessor"):
            contention_makespans(machine, 0, 5)


class TestBandwidthGrid:
    def test_shape_rows_are_sizes(self, machine):
        sizes = [64, 4096, 65536]
        grid = bandwidth_grid(
            machine, reader_core=0, sizes=sizes, state=MESIF.MODIFIED,
            owner_core=None, op="read", vectorized=False, iterations=9,
        )
        assert grid.shape == (3, 9)
        assert (grid > 0).all()

    def test_larger_transfers_amortize_latency(self):
        """Bandwidth rises with message size (alpha amortized away)."""
        m = fresh_machine(seed=11)
        grid = bandwidth_grid(
            m, 0, [64, 32768], MESIF.MODIFIED, None, "read", False, 51
        )
        assert np.median(grid[1]) > np.median(grid[0])

    def test_rejects_empty_sizes(self, machine):
        with pytest.raises(BenchmarkError, match="at least one size"):
            bandwidth_grid(
                machine, 0, [], MESIF.MODIFIED, None, "read", False, 5
            )

