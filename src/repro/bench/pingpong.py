"""Ping-pong and one-directional transfer benchmarks (§III-A).

The Xeon Phi Benchmarks the paper builds on "use ping-pong and
one-directional communications (one thread allocates the data and
other(s) thread(s) accesses, with no polling)".  These patterns
complement the BenchIT pointer chase:

* **ping-pong** — two threads bounce a line: each hop is a
  modified-line transfer, so the round trip is ~2 R_R(M); and
* **one-directional** — the owner writes once, the consumer streams it
  out; the per-message cost follows the multi-line α + β·N model.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.bench.runner import BenchResult, Runner
from repro.errors import BenchmarkError
from repro.machine.coherence import MESIF


def pingpong_round_trip(
    runner: Runner, core_a: int, core_b: int, hops: int = 64
) -> BenchResult:
    """Median round-trip time of a line bouncing between two cores.

    One sample times ``hops`` alternating transfers and reports the
    round-trip (two hops).  Each hop reads a line the peer just wrote —
    an M-state remote transfer.
    """
    if core_a == core_b:
        raise BenchmarkError("ping-pong needs two distinct cores")
    if hops < 2 or hops % 2:
        raise BenchmarkError("hops must be an even count >= 2")
    m = runner.machine
    t_ab = m.line_transfer_true_ns(core_b, MESIF.MODIFIED, core_a)
    t_ba = m.line_transfer_true_ns(core_a, MESIF.MODIFIED, core_b)

    def batch(n: int, rng: np.random.Generator) -> np.ndarray:
        half = hops // 2
        fwd = m.noise.sample_mean_of(t_ab, n, half)
        rev = m.noise.sample_mean_of(t_ba, n, half)
        return fwd + rev  # one round trip

    return runner.collect_vectorized(
        name=f"pingpong/{core_a}<->{core_b}",
        batch_fn=batch,
        params={"core_a": core_a, "core_b": core_b, "hops": hops},
    )


def one_directional(
    runner: Runner,
    owner_core: int,
    consumer_core: int,
    nbytes: int,
    state: MESIF = MESIF.MODIFIED,
) -> BenchResult:
    """Owner produces a message once; the consumer copies it out
    (no polling — the paper's one-directional pattern)."""
    m = runner.machine

    def batch(n: int, rng: np.random.Generator) -> np.ndarray:
        true = m.multiline_true_ns(consumer_core, nbytes, state, owner_core)
        return m.noise.sample_values(np.full(n, true))

    return runner.collect_vectorized(
        name=f"onedir/{owner_core}->{consumer_core}/{nbytes}",
        batch_fn=batch,
        params={
            "owner": owner_core,
            "consumer": consumer_core,
            "nbytes": nbytes,
            "state": state.value,
        },
    )


def pingpong_matrix(
    runner: Runner, reference_core: int = 0, stride: int = 4
) -> Dict[int, float]:
    """Round-trip medians from a reference core to a spread of peers."""
    m = runner.machine
    out: Dict[int, float] = {}
    for peer in range(0, m.topology.n_cores, stride):
        if peer == reference_core:
            continue
        out[peer] = pingpong_round_trip(runner, reference_core, peer).median
    return out


def half_round_trip_matches_latency(
    runner: Runner, core_a: int, core_b: int, tolerance: float = 0.25
) -> bool:
    """Consistency check used by the suite's self-validation: half the
    ping-pong round trip must agree with the one-line M-state latency."""
    rt = pingpong_round_trip(runner, core_a, core_b).median
    direct = runner.machine.line_transfer_true_ns(
        core_a, MESIF.MODIFIED, core_b
    )
    return abs(rt / 2.0 - direct) / direct <= tolerance
