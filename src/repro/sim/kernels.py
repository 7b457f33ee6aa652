"""Array kernels for the microbenchmark inner loops.

The simulated microbenchmarks spend their time in two shapes of loop:

* *sampling* loops — draw ``iterations`` noisy samples around each of
  ``K`` true values (contention ranks, message sizes) and reduce them
  (max over accessors, bytes-over-time).  These are embarrassingly
  array-shaped: one 2-D lognormal draw replaces ``K`` Python-level
  :meth:`~repro.machine.noise.NoiseModel.sample_many` calls;
* *wake* loops — when a flag is written, every blocked poller's
  transfer cost is drawn and then folded through the contention queue
  recurrence ``finish_i = max(solo_i, tail + beta)``.  The draws
  become one array call for all waiters; the recurrence is a cheap scan
  over floats.

These kernels are what Treibig/Hager's bandwidth-limited loop-kernel
model looks like in code: a stream of independent elements priced by a
linear cost model, evaluated as arrays.  They are used by the fitting
pipeline (:func:`repro.bench.contention_bench.contention_sample_batch`,
:func:`repro.bench.bandwidth_bench.bandwidth_curve`) and by the
virtual-time engine's flag wake path, which is the inner loop of
measured tuning (``/v1/tune`` with ``"measured": true``).

Determinism: each kernel consumes the machine's seeded RNG in a fixed
order, so runs replay exactly for a given seed.  The *order* of draws
differs from the pre-vectorization scalar loops (one 2-D draw instead
of K 1-D draws), which is why the package version — part of every
characterization cache key — was bumped with this change.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import BenchmarkError
from repro.machine.coherence import MESIF
from repro.machine.machine import KNLMachine

__all__ = [
    "contention_makespans",
    "bandwidth_grid",
    "flag_wake_finishes",
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
    draws = machine.noise.sample_grid(true, iterations)  # (N, iterations)
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
    times = machine.noise.sample_grid(true_ns, iterations)
    return sizes_arr[:, None] / times  # GB/s == bytes/ns


def flag_wake_finishes(
    machine: KNLMachine,
    starts: Sequence[float],
    base_true_ns: Sequence[float],
    extra_ns: Sequence[float],
    queue_tail: float,
    served: int,
    noisy: bool,
) -> Tuple[List[float], float, int]:
    """Completion times for a batch of pollers woken by one flag write.

    ``starts`` are the per-waiter transfer start times (max of arrival
    and flag visibility), ``base_true_ns`` the noise-free solo flag-line
    transfer costs, ``extra_ns`` the deterministic payload streaming
    add-on (zero for line-sized flags), all in wake order.  Noise is
    drawn once for the whole batch (one lognormal vector for the
    transfers, one for the per-queue-slot contention beta); the queue
    recurrence ``finish_i = max(start_i + base_i, tail + beta_i)`` is a
    scan over the resulting floats.  Returns the per-waiter finish
    times plus the updated queue tail and served count.
    """
    starts_arr = np.asarray(starts, dtype=np.float64)
    k = starts_arr.size
    if k == 0:
        return [], queue_tail, served
    base = np.asarray(base_true_ns, dtype=np.float64)
    if noisy:
        base = machine.noise.sample_values(base)
    base = base + np.asarray(extra_ns, dtype=np.float64)
    beta_true = machine.calibration.contention_beta
    betas = np.full(k, beta_true, dtype=np.float64)
    if noisy:
        betas = machine.noise.jitter_values(betas)
    solo = starts_arr + base
    finishes: List[float] = []
    tail = queue_tail
    for i in range(k):
        if served == 0 or tail <= starts_arr[i]:
            finish = float(solo[i])
        else:
            finish = max(float(solo[i]), tail + float(betas[i]))
        finishes.append(finish)
        tail = finish
        served += 1
    return finishes, tail, served
