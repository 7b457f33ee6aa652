"""Benchmark result containers and the iteration runner.

Mirrors the paper's harness conventions: per-iteration the cost of the
slowest thread is recorded ("we use the maximum value measured per
iteration"), buffers are selected randomly from a larger pool, and the
headline of an experiment is the median of the iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional

import numpy as np

from repro.bench.stats import BoxplotStats, MedianCI, boxplot_stats, median_ci
from repro.errors import BenchmarkError
from repro.machine.machine import KNLMachine
from repro.obs import counter, span
from repro.rng import SeedLike, generator, label_hash, spawn

#: Default iterations per benchmark.  The paper uses 1000; the simulated
#: pipeline converges to the same medians much earlier, so the default
#: trades a little CI width for wall-clock time.  Pass ``iterations=1000``
#: for paper-exact statistics.
DEFAULT_ITERATIONS = 200


@dataclass(frozen=True)
class BenchResult:
    """Samples and statistics of one benchmark configuration."""

    name: str
    params: Mapping[str, object]
    samples: np.ndarray  # ns per iteration (or GB/s for bandwidth results)
    unit: str = "ns"

    @property
    def median(self) -> float:
        return float(np.median(self.samples))

    @property
    def ci(self) -> MedianCI:
        # Seeded from the name, so the interval is the same in every process.
        return median_ci(self.samples, seed=label_hash(self.name))

    @property
    def boxplot(self) -> BoxplotStats:
        return boxplot_stats(self.samples)

    def describe(self) -> str:
        ci = self.ci
        return (
            f"{self.name}: median={self.median:.2f} {self.unit} "
            f"[{ci.lo:.2f}, {ci.hi:.2f}] n={self.samples.size}"
        )


class Runner:
    """Drives iteration loops against a machine."""

    def __init__(
        self,
        machine: KNLMachine,
        iterations: int = DEFAULT_ITERATIONS,
        seed: SeedLike = None,
    ) -> None:
        if iterations < 1:
            raise BenchmarkError("iterations must be >= 1")
        self.machine = machine
        self.iterations = iterations
        self.rng = spawn(generator(seed), "runner")

    def collect(
        self,
        name: str,
        sample_fn: Callable[[np.random.Generator], float],
        params: Optional[Dict[str, object]] = None,
        unit: str = "ns",
        iterations: Optional[int] = None,
    ) -> BenchResult:
        """Run ``sample_fn`` once per iteration and bundle the samples."""
        n = iterations or self.iterations
        with span("bench.collect", category="bench", bench=name, n=n):
            samples = np.fromiter(
                (sample_fn(self.rng) for _ in range(n)), dtype=float, count=n
            )
        self._account(samples)
        return BenchResult(name=name, params=dict(params or {}), samples=samples, unit=unit)

    def collect_vectorized(
        self,
        name: str,
        batch_fn: Callable[[int, np.random.Generator], np.ndarray],
        params: Optional[Dict[str, object]] = None,
        unit: str = "ns",
        iterations: Optional[int] = None,
    ) -> BenchResult:
        """Like :meth:`collect` but lets the benchmark produce the whole
        sample vector at once (the fast path for single-line latencies)."""
        n = iterations or self.iterations
        with span("bench.collect", category="bench", bench=name, n=n,
                  vectorized=True):
            samples = np.asarray(batch_fn(n, self.rng), dtype=float)
        if samples.shape != (n,):
            raise BenchmarkError(
                f"batch_fn returned shape {samples.shape}, expected ({n},)"
            )
        self._account(samples)
        return BenchResult(name=name, params=dict(params or {}), samples=samples, unit=unit)

    def collect_grid(
        self,
        names: "list[str]",
        grid_fn: Callable[[int, np.random.Generator], np.ndarray],
        params_list: "list[Dict[str, object]]",
        unit: str = "ns",
        iterations: Optional[int] = None,
    ) -> "list[BenchResult]":
        """A whole benchmark *curve* from one array kernel.

        ``grid_fn(n, rng)`` returns a ``(len(names), n)`` sample grid —
        one row per curve point — produced by a single vectorized draw
        (see :mod:`repro.sim.kernels`).  Each row is bundled into its
        own :class:`BenchResult`, exactly as if :meth:`collect_vectorized`
        had been called per point, but with one span and one RNG pass
        for the whole curve."""
        if len(names) != len(params_list):
            raise BenchmarkError(
                f"{len(names)} names but {len(params_list)} param sets"
            )
        n = iterations or self.iterations
        with span("bench.collect", category="bench", bench=names[0],
                  n=n, grid=len(names)):
            grid = np.asarray(grid_fn(n, self.rng), dtype=float)
        if grid.shape != (len(names), n):
            raise BenchmarkError(
                f"grid_fn returned shape {grid.shape}, expected "
                f"({len(names)}, {n})"
            )
        out = []
        for name, params, row in zip(names, params_list, grid):
            self._account(row)
            out.append(BenchResult(
                name=name, params=dict(params), samples=row, unit=unit
            ))
        return out

    @staticmethod
    def _account(samples: np.ndarray) -> None:
        """Sample-count / discard accounting (see docs/OBSERVABILITY.md)."""
        counter("bench.collections").inc()
        counter("bench.samples").inc(int(samples.size))
        bad = int(samples.size - np.count_nonzero(np.isfinite(samples)))
        if bad:
            counter("bench.samples.nonfinite").inc(bad)
