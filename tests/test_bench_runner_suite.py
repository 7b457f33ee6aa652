"""Runner mechanics and the full characterization suite."""

import numpy as np
import pytest

from repro.bench import BenchResult, Runner, characterize
from repro.errors import BenchmarkError
from repro.machine import MemoryKind


class TestRunner:
    def test_collect_sample_count(self, machine):
        r = Runner(machine, iterations=17, seed=1)
        res = r.collect("x", lambda rng: 1.0)
        assert res.samples.shape == (17,)

    def test_collect_vectorized_shape_checked(self, machine):
        r = Runner(machine, iterations=5, seed=1)
        with pytest.raises(BenchmarkError):
            r.collect_vectorized("x", lambda n, rng: np.zeros(n + 1))

    def test_iterations_validated(self, machine):
        with pytest.raises(BenchmarkError):
            Runner(machine, iterations=0)

    def test_result_stats(self):
        res = BenchResult("x", {}, np.array([1.0, 2.0, 3.0]))
        assert res.median == 2.0
        assert "median=2.00" in res.describe()

    def test_override_iterations(self, machine):
        r = Runner(machine, iterations=5, seed=1)
        res = r.collect("x", lambda rng: 1.0, iterations=9)
        assert res.samples.size == 9

    def test_collect_grid_bundles_one_result_per_row(self, machine):
        r = Runner(machine, iterations=7, seed=1)
        results = r.collect_grid(
            ["a", "b", "c"],
            lambda n, rng: np.arange(3)[:, None] * np.ones((3, n)),
            [{"n": 1}, {"n": 2}, {"n": 3}],
            unit="GB/s",
        )
        assert [res.name for res in results] == ["a", "b", "c"]
        assert all(res.samples.shape == (7,) for res in results)
        assert results[2].samples.tolist() == [2.0] * 7
        assert results[1].params == {"n": 2}
        assert results[0].unit == "GB/s"

    def test_collect_grid_shape_checked(self, machine):
        r = Runner(machine, iterations=5, seed=1)
        with pytest.raises(BenchmarkError, match="expected"):
            r.collect_grid(
                ["a", "b"],
                lambda n, rng: np.zeros((3, n)),
                [{}, {}],
            )

    def test_collect_grid_names_params_mismatch(self, machine):
        r = Runner(machine, iterations=5, seed=1)
        with pytest.raises(BenchmarkError, match="param sets"):
            r.collect_grid(["a"], lambda n, rng: np.zeros((1, n)), [{}, {}])


class TestCharacterization:
    def test_has_all_blocks(self, characterization):
        c = characterization
        assert "local/L1" in c.latency
        assert "read/remote" in c.c2c_bandwidth
        assert len(c.contention) >= 2
        assert c.congestion is not None
        assert "ddr" in c.memory_latency
        assert "mcdram" in c.memory_latency
        assert "triad/mcdram" in c.stream
        assert "copy/ddr/peak" in c.stream

    def test_config_label(self, characterization):
        assert characterization.config_label == "snc4-flat"

    def test_remote_latency_median_helper(self, characterization):
        v = characterization.remote_latency_median("M")
        assert 100.0 < v < 130.0

    def test_cache_mode_has_no_mcdram_block(self, cache_machine):
        c = characterize(cache_machine, iterations=10, seed=2)
        assert "mcdram" not in c.memory_latency
        assert "triad/mcdram" not in c.stream

    def test_sweeps_optional(self, machine):
        c = characterize(machine, iterations=10, seed=2, include_sweeps=True)
        assert "scatter/mcdram" in c.stream_sweeps


class TestCiReproducible:
    def test_same_interval_under_any_hash_seed(self):
        """The bootstrap seed comes from the result's name, not from the
        per-process ``str`` hash: two interpreters with different
        ``PYTHONHASHSEED`` values print the same interval."""
        import os
        import subprocess
        import sys

        code = (
            "import numpy as np\n"
            "from repro.bench import BenchResult\n"
            "x = np.random.default_rng(3).uniform(0.0, 100.0, 50)\n"
            "print(BenchResult('stream/triad/ddr/scatter/t64/nt', {}, x)"
            ".describe())\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.path.abspath(src))
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, check=True)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert "median=" in outputs[0]
