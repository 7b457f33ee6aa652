"""Single-thread multi-line transfer benchmarks (§IV-A4, Fig. 5).

One thread copies (or reads into registers) a message of 64 B - 256 KB
that lies in a remote cache, into a local buffer.  Axes: message size,
MESIF state, location (same tile / same quadrant / remote quadrant), and
vectorization.  Reported as bandwidth; Table I keeps the maximum median
across sizes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bench.runner import BenchResult, Runner
from repro.bench.stats import max_median
from repro.errors import BenchmarkError
from repro.machine.coherence import MESIF
from repro.machine.machine import KNLMachine

#: Message sizes of Fig. 5: 64 B to 256 KB, powers of two.
DEFAULT_SIZES = tuple(64 * 2**i for i in range(13))


def pick_partner(
    machine: KNLMachine, reader_core: int, location: str
) -> Optional[int]:
    """A core matching the requested location relative to ``reader_core``.

    Locations: ``local`` (None owner = own cache), ``tile``, ``quadrant``
    (same quadrant, different tile), ``remote`` (different quadrant).
    """
    topo = machine.topology
    if location == "local":
        return reader_core
    tile = topo.tile_of_core(reader_core)
    if location == "tile":
        others = [c for c in topo.cores_of_tile(tile.tile_id) if c != reader_core]
        return others[0]
    for core in range(topo.n_cores):
        t = topo.tile_of_core(core)
        if t.tile_id == tile.tile_id:
            continue
        if location == "quadrant" and t.quadrant == tile.quadrant:
            return core
        if location == "remote" and t.quadrant != tile.quadrant:
            return core
    raise BenchmarkError(f"no core found for location {location!r}")


def transfer_bandwidth(
    runner: Runner,
    nbytes: int,
    state: MESIF = MESIF.EXCLUSIVE,
    location: str = "remote",
    op: str = "copy",
    vectorized: bool = True,
    reader_core: int = 0,
) -> BenchResult:
    """Bandwidth of one thread pulling an ``nbytes`` message."""
    m = runner.machine
    owner = pick_partner(m, reader_core, location)
    def batch(n: int, rng: np.random.Generator) -> np.ndarray:
        true = m.multiline_true_ns(reader_core, nbytes, state, owner, op, vectorized)
        times = m.noise.sample_values(np.full(n, true))
        return nbytes / times  # GB/s == bytes/ns
    return runner.collect_vectorized(
        name=f"bw/{op}/{location}/{state.value}/{nbytes}",
        batch_fn=batch,
        params={
            "nbytes": nbytes,
            "state": state.value,
            "location": location,
            "op": op,
            "vectorized": vectorized,
        },
        unit="GB/s",
    )


def bandwidth_curve(
    runner: Runner,
    state: MESIF,
    location: str,
    sizes: Tuple[int, ...] = DEFAULT_SIZES,
    op: str = "copy",
    vectorized: bool = True,
    reader_core: int = 0,
) -> List[BenchResult]:
    """Fig. 5: bandwidth vs message size for one state/location.

    The whole curve is sampled as one ``(sizes, iterations)`` array
    kernel (:func:`repro.sim.kernels.bandwidth_grid`) instead of a
    Python loop of per-size benchmarks."""
    from repro.sim.kernels import bandwidth_grid

    m = runner.machine
    owner = pick_partner(m, reader_core, location)
    names = [
        f"bw/{op}/{location}/{state.value}/{s}" for s in sizes
    ]
    params_list = [
        {
            "nbytes": s,
            "state": state.value,
            "location": location,
            "op": op,
            "vectorized": vectorized,
        }
        for s in sizes
    ]
    return runner.collect_grid(
        names,
        lambda n, rng: bandwidth_grid(
            m, reader_core, sizes, state, owner, op, vectorized, n
        ),
        params_list,
        unit="GB/s",
    )


def peak_bandwidth(
    runner: Runner,
    state: MESIF,
    location: str,
    op: str = "copy",
    vectorized: bool = True,
    sizes: Tuple[int, ...] = DEFAULT_SIZES,
) -> float:
    """Table I's entry: maximum median across message sizes [GB/s]."""
    curve = bandwidth_curve(runner, state, location, sizes, op, vectorized)
    return max_median([r.median for r in curve])


def bandwidth_summary(runner: Runner) -> Dict[str, float]:
    """The Table-I bandwidth block."""
    out: Dict[str, float] = {}
    out["read/remote"] = peak_bandwidth(
        runner, MESIF.EXCLUSIVE, "remote", op="read"
    )
    for st in (MESIF.MODIFIED, MESIF.EXCLUSIVE):
        out[f"copy/tile/{st.value}"] = peak_bandwidth(runner, st, "tile")
    out["copy/remote"] = peak_bandwidth(runner, MESIF.MODIFIED, "remote")
    return out
