"""Array kernels for the microbenchmark sampling loops.

A simulated microbenchmark draws ``iterations`` noisy samples around
each of ``K`` true values (contention ranks, message sizes) and reduces
them (max over accessors, bytes-over-time).  That loop is embarrassingly
array-shaped: one 2-D :meth:`~repro.machine.noise.NoiseModel.sample_values`
draw over the broadcast true values replaces ``K`` Python-level 1-D
draws.

These kernels are what Treibig/Hager's bandwidth-limited loop-kernel
model looks like in code: a stream of independent elements priced by a
linear cost model, evaluated as arrays.  They are used by the fitting
pipeline (:func:`repro.bench.contention_bench.contention_sample_batch`,
:func:`repro.bench.bandwidth_bench.bandwidth_curve`).  The virtual-time
engine draws its noise the same way, one array per replay (see
:mod:`repro.sim.engine`).

Determinism: each kernel consumes the machine's seeded RNG in a fixed
order, so runs replay exactly for a given seed.  The *order* of draws
differs from the pre-vectorization scalar loops (one 2-D draw instead
of K 1-D draws), which is why the package version — part of every
characterization cache key — was bumped with this change.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import BenchmarkError
from repro.machine.coherence import MESIF
from repro.machine.machine import KNLMachine

__all__ = [
    "contention_makespans",
    "bandwidth_grid",
]


def contention_makespans(
    machine: KNLMachine, n_accessors: int, iterations: int
) -> np.ndarray:
    """``iterations`` samples of the 1:N contention benchmark, each the
    completion time of the slowest accessor.

    True per-rank costs follow the calibrated ``alpha + beta * rank``
    line; noise is one ``(N, iterations)`` grid draw; the per-iteration
    max over ranks is the paper's max-per-iteration rule.  Replaces a
    Python loop of N separate sample vectors.
    """
    if n_accessors < 1:
        raise BenchmarkError("need at least one accessor")
    cal = machine.calibration
    ranks = np.arange(1, n_accessors + 1, dtype=np.float64)
    true = cal.contention_alpha + cal.contention_beta * ranks
    draws = machine.noise.sample_values(
        np.broadcast_to(true[:, None], (true.size, iterations))
    )  # (N, iterations)
    return draws.max(axis=0)


def bandwidth_grid(
    machine: KNLMachine,
    reader_core: int,
    sizes: Sequence[int],
    state: MESIF,
    owner_core: Optional[int],
    op: str,
    vectorized: bool,
    iterations: int,
) -> np.ndarray:
    """``(len(sizes), iterations)`` bandwidth samples [GB/s] for a whole
    message-size curve in one noise draw.

    The true transfer times come from the machine's (cached) multiline
    cost model — a short Python loop over the K sizes — and the noisy
    samples are one grid draw; the conversion to bandwidth divides the
    size column into the time grid as one array operation.
    """
    sizes_arr = np.asarray(list(sizes), dtype=np.float64)
    if sizes_arr.size == 0:
        raise BenchmarkError("bandwidth_grid needs at least one size")
    true_ns = np.array(
        [
            machine.multiline_true_ns(
                reader_core, int(nbytes), state, owner_core, op, vectorized
            )
            for nbytes in sizes
        ],
        dtype=np.float64,
    )
    times = machine.noise.sample_values(
        np.broadcast_to(true_ns[:, None], (true_ns.size, iterations))
    )
    return sizes_arr[:, None] / times  # GB/s == bytes/ns

