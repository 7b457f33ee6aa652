"""Mesh congestion benchmark (§IV-A3).

Pairs of threads in distinct tile pairs ping-pong simultaneously; the
question is whether per-pair latency grows with the number of concurrent
pairs.  On KNL it does not — the mesh has ample link capacity — and the
capability model records "no congestion".  The benchmark also reports the
maximum link overlap the schedule managed to create (using the machine's
routing), documenting *why* nothing was observed: per-pair demand is far
below per-link capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.bench.runner import BenchResult, Runner
from repro.errors import BenchmarkError
from repro.machine.coherence import MESIF
from repro.machine.machine import KNLMachine


@dataclass(frozen=True)
class CongestionReport:
    """Outcome of the congestion experiment."""

    per_pair: List[BenchResult]
    #: median latency with 1 pair vs with max pairs
    baseline_ns: float
    loaded_ns: float
    max_link_overlap: int
    #: Spare capacity on the hottest link: link BW / aggregate demand.
    link_headroom: float = float("inf")

    @property
    def slowdown(self) -> float:
        return self.loaded_ns / self.baseline_ns

    @property
    def congestion_observed(self) -> bool:
        """True if latency grew by more than the noise floor (5%)."""
        return self.slowdown > 1.05


def make_pairs(machine: KNLMachine, n_pairs: int) -> List[Tuple[int, int]]:
    """Disjoint (reader, owner) core pairs on distinct tiles."""
    topo = machine.topology
    max_pairs = topo.n_tiles // 2
    if not 1 <= n_pairs <= max_pairs:
        raise BenchmarkError(f"n_pairs must be in [1, {max_pairs}], got {n_pairs}")
    pairs = []
    for i in range(n_pairs):
        a = topo.cores_of_tile(2 * i)[0]
        b = topo.cores_of_tile(2 * i + 1)[0]
        pairs.append((a, b))
    return pairs


def pair_latency_under_load(
    runner: Runner, n_pairs: int, state: MESIF = MESIF.MODIFIED
) -> BenchResult:
    """Ping-pong latency of pair 0 while ``n_pairs`` pairs run."""
    m = runner.machine
    pairs = make_pairs(m, n_pairs)
    reader, owner = pairs[0]
    factor = m.congestion_factor(n_pairs)

    def batch(n: int, rng: np.random.Generator) -> np.ndarray:
        true = m.line_transfer_true_ns(reader, state, owner) * factor
        return m.noise.sample_values(np.full(n, true))

    return runner.collect_vectorized(
        name=f"congestion/pairs={n_pairs}",
        batch_fn=batch,
        params={"n_pairs": n_pairs, "state": state.value},
    )


def adversarial_pairs(machine: KNLMachine, column: int = 2) -> List[Tuple[int, int]]:
    """Pairs placed to maximize sharing of one mesh column's vertical
    links — the layout the paper could not construct (tile locations are
    hidden on real parts; §IV-A3: "we cannot produce layouts that stress
    specific rows or columns").

    Every source sits in ``column`` (YX routing sends its traffic down
    that column first); destinations are bottom-row tiles, so all routes
    cross the column's row-4→row-5 link.
    """
    topo = machine.topology
    sources = [t for t in topo.tiles if t.col == column and t.row <= 4]
    sinks = sorted(
        (t for t in topo.tiles if t.row > 4),
        key=lambda t: (t.row, abs(t.col - column)),
        reverse=True,
    )
    pairs = []
    for src, dst in zip(sources, sinks):
        pairs.append(
            (topo.cores_of_tile(dst.tile_id)[0], topo.cores_of_tile(src.tile_id)[0])
        )
    if not pairs:
        raise BenchmarkError(f"no active tiles in column {column}")
    return pairs


def adversarial_congestion_experiment(
    runner: Runner, state: MESIF = MESIF.MODIFIED, per_pair_gbps: float = 7.5
) -> CongestionReport:
    """Latency of one pair while the worst *constructible* layout runs.

    The honest outcome strengthens the paper's finding: even knowing
    every tile's location, YX routing caps how many pairs one link can
    be forced to carry, and the aggregate demand stays below the ~83
    GB/s link capacity — so latency still does not move.  The report's
    ``link_headroom`` quantifies the margin the paper could only infer.
    """
    from repro.machine.calibration import LINK_BW_GBS

    m = runner.machine
    pairs = adversarial_pairs(m)
    flows = []
    for a, b in pairs:
        ta, tb = m.topology.tile_of_core(a), m.topology.tile_of_core(b)
        # Demand flows from owner (b) to reader (a).
        flows.append(((tb.row, tb.col), (ta.row, ta.col)))
    usage = m.mesh.link_utilization(flows)
    overlap = max(usage.values()) if usage else 0
    reader, owner = pairs[0]
    factor = m.congestion_factor(len(pairs), link_overlap=overlap,
                                 per_pair_gbps=per_pair_gbps)
    unloaded = m.line_transfer_true_ns(reader, state, owner)

    def batch_loaded(n: int, rng: np.random.Generator) -> np.ndarray:
        return m.noise.sample_values(np.full(n, unloaded * factor))

    def batch_base(n: int, rng: np.random.Generator) -> np.ndarray:
        return m.noise.sample_values(np.full(n, unloaded))

    loaded = runner.collect_vectorized(
        name=f"congestion/adversarial/pairs={len(pairs)}",
        batch_fn=batch_loaded,
        params={"n_pairs": len(pairs), "overlap": overlap},
    )
    baseline = runner.collect_vectorized(
        name="congestion/adversarial/baseline",
        batch_fn=batch_base,
        params={"n_pairs": 1},
    )
    return CongestionReport(
        per_pair=[baseline, loaded],
        baseline_ns=baseline.median,
        loaded_ns=loaded.median,
        max_link_overlap=overlap,
        link_headroom=LINK_BW_GBS / max(1e-9, overlap * per_pair_gbps),
    )


def congestion_experiment(
    runner: Runner, pair_counts: Sequence[int] = (1, 2, 4, 8, 12, 16)
) -> CongestionReport:
    m = runner.machine
    max_pairs = m.topology.n_tiles // 2
    pair_counts = [p for p in pair_counts if p <= max_pairs] or [1]
    results = [pair_latency_under_load(runner, p) for p in pair_counts]
    flows = []
    for a, b in make_pairs(m, max(pair_counts)):
        ta, tb = m.topology.tile_of_core(a), m.topology.tile_of_core(b)
        flows.append(((ta.row, ta.col), (tb.row, tb.col)))
    usage = m.mesh.link_utilization(flows)
    return CongestionReport(
        per_pair=results,
        baseline_ns=results[0].median,
        loaded_ns=results[-1].median,
        max_link_overlap=max(usage.values()) if usage else 0,
    )
