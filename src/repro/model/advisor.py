"""Model-driven memory placement (§VII).

The paper's conclusion: cache mode trades performance for convenience,
and "when using a flat mode, we need performance models in order to
decide which data has to be allocated in which memory".  This module is
that decision procedure: describe a workload's buffers (size, traffic,
access pattern, sharing), and the fitted capability model ranks the
placements — including spilling decisions when the hot set exceeds the
16 GB of MCDRAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import ModelError
from repro.fields import Choice, Field, Integer, string, table
from repro.model.parameters import CapabilityModel
from repro.units import CACHE_LINE_BYTES, GIB


@dataclass(frozen=True)
class BufferSpec:
    """One allocation the workload will stream or chase through.

    ``traffic_bytes`` is the total bytes the workload moves through the
    buffer (reads+writes over the run) — the weight of the placement
    decision.  ``pattern`` is ``"stream"`` (bandwidth-bound, NT-friendly)
    or ``"latency"`` (dependent accesses: pointer chasing, small random
    reads).  ``n_threads`` is how many threads drive the traffic.
    """

    name: str
    size_bytes: int
    traffic_bytes: int
    pattern: str = "stream"
    op: str = "copy"
    n_threads: int = 64

    def __post_init__(self) -> None:
        for f in BUFFER_FIELDS.values():
            f.check(f.name, getattr(self, f.name))


#: :class:`BufferSpec`'s fields, with the defaults a ``/v1/advise``
#: buffer gets.  Sizes and counts are priced as float64.
BUFFER_FIELDS = table(
    Field("name", string),
    Field("size_bytes", Integer(lo=1, float64=True)),
    Field("traffic_bytes", Integer(lo=0, float64=True), 0),
    Field("pattern", Choice("stream", "latency"), "stream"),
    Field("op", string, "copy"),
    Field("n_threads", Integer(lo=1, float64=True), 64),
)


@dataclass(frozen=True)
class Placement:
    """Chosen memory kind per buffer plus the predicted cost."""

    assignments: Dict[str, str]  # buffer name -> "mcdram" | "ddr"
    predicted_ns: float
    #: Cost if everything were placed in DDR (the do-nothing baseline).
    all_ddr_ns: float

    @property
    def predicted_speedup(self) -> float:
        if self.predicted_ns <= 0:
            return 1.0
        return self.all_ddr_ns / self.predicted_ns

    def kind_of(self, name: str) -> str:
        if name not in self.assignments:
            raise ModelError(f"unknown buffer {name!r}")
        return self.assignments[name]


def buffer_cost_ns(cap: CapabilityModel, spec: BufferSpec, kind: str) -> float:
    """Predicted time for one buffer's traffic in one memory kind."""
    if spec.traffic_bytes == 0:
        return 0.0
    if spec.pattern == "latency":
        # Dependent accesses: one line per latency.
        lines = max(1, spec.traffic_bytes // CACHE_LINE_BYTES)
        return lines * cap.RI_kind(kind)
    agg = cap.bw(spec.op, kind)
    agg = min(agg, 8.0 * spec.n_threads)  # per-thread ceiling (§V-B)
    return spec.traffic_bytes / agg


def recommend_placement(
    cap: CapabilityModel,
    buffers: Sequence[BufferSpec],
    mcdram_capacity: int = 16 * GIB,
) -> Placement:
    """Greedy knapsack on traffic-weighted benefit per byte.

    Buffers are ranked by (DDR cost − MCDRAM cost) / size and packed
    into the MCDRAM capacity; ties and non-beneficial buffers stay in
    DDR.  Greedy-by-density is the natural heuristic here (buffer counts
    are small; an exact knapsack would change little and the model noise
    dominates beyond a few percent anyway).
    """
    if not buffers:
        raise ModelError("no buffers to place")
    names = [b.name for b in buffers]
    if len(set(names)) != len(names):
        raise ModelError("duplicate buffer names")
    if "mcdram" not in cap.r_memory:
        # Cache mode: nothing to decide, everything is DDR-backed.
        total = sum(buffer_cost_ns(cap, b, "ddr") for b in buffers)
        return Placement(
            assignments={b.name: "ddr" for b in buffers},
            predicted_ns=total,
            all_ddr_ns=total,
        )

    gains: List[Tuple[float, BufferSpec]] = []
    for b in buffers:
        gain = buffer_cost_ns(cap, b, "ddr") - buffer_cost_ns(cap, b, "mcdram")
        gains.append((gain, b))

    assignments: Dict[str, str] = {}
    remaining = mcdram_capacity
    for gain, b in sorted(gains, key=lambda t: -t[0] / t[1].size_bytes):
        if gain > 0 and b.size_bytes <= remaining:
            assignments[b.name] = "mcdram"
            remaining -= b.size_bytes
        else:
            assignments[b.name] = "ddr"

    predicted = sum(
        buffer_cost_ns(cap, b, assignments[b.name]) for b in buffers
    )
    all_ddr = sum(buffer_cost_ns(cap, b, "ddr") for b in buffers)
    return Placement(
        assignments=assignments, predicted_ns=predicted, all_ddr_ns=all_ddr
    )
