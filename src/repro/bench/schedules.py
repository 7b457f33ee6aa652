"""Thread pinning schedules used throughout the paper.

* ``scatter`` — first one thread per tile, then per core, then
  hyperthreads ("scatter" in §IV-B3; "filling tiles"/1 thread per core in
  Fig. 9b for up to 64 threads).
* ``compact`` — fill all four hyperthreads of a core before moving to the
  next core ("filling cores", Fig. 9a).
* ``fill_tiles`` — one thread per core, filling both cores of a tile
  before the next tile ("filling tiles" in §IV-B3).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import BenchmarkError, TopologyError
from repro.machine.topology import Topology

SCHEDULES = ("scatter", "compact", "fill_tiles")


def _full_order(topology: Topology, schedule: str) -> Tuple[int, ...]:
    """Every thread id of the machine, in the order ``schedule`` pins."""
    n_cores = topology.n_cores
    tpc = topology.config.threads_per_core
    cpt = topology.config.cores_per_tile
    tiles = range(topology.n_tiles)

    if schedule == "compact":
        return tuple(
            core + h * n_cores for core in range(n_cores) for h in range(tpc)
        )
    if schedule == "scatter":
        # One thread per tile first (core 0 of each tile), then the second
        # core of each tile, then hyperthreads.
        return tuple(
            tile * cpt + core_slot + h * n_cores
            for h in range(tpc)
            for core_slot in range(cpt)
            for tile in tiles
        )
    if schedule == "fill_tiles":
        # Both cores of tile 0, then tile 1, ... then hyperthreads.
        return tuple(
            tile * cpt + core_slot + h * n_cores
            for h in range(tpc)
            for tile in tiles
            for core_slot in range(cpt)
        )
    raise BenchmarkError(f"unknown schedule {schedule!r}; one of {SCHEDULES}")


def pin_threads(topology: Topology, n_threads: int, schedule: str) -> List[int]:
    """Return the global thread ids that ``n_threads`` workers pin to.

    Thread ids follow the machine numbering (thread ``h`` of core ``c``
    is ``c + h * n_cores``).  Each schedule's full order is built once
    per topology (``topology.pin_orders``); every call returns a fresh
    list.
    """
    if n_threads < 1:
        raise BenchmarkError("need at least one thread")
    if n_threads > topology.n_threads:
        raise BenchmarkError(
            f"{n_threads} threads exceed the machine's {topology.n_threads}"
        )
    order = topology.pin_orders.get(schedule)
    if order is None:
        order = topology.pin_orders[schedule] = _full_order(topology, schedule)
    return list(order[:n_threads])


def cores_ht_of(topology: Topology, thread_ids: List[int]) -> Dict[int, int]:
    """Map core → number of pinned threads, for the bandwidth model."""
    n_cores = topology.n_cores
    n_threads = topology.n_threads
    out: Dict[int, int] = {}
    for t in thread_ids:
        if not 0 <= t < n_threads:
            raise TopologyError(f"thread {t} out of range [0,{n_threads})")
        c = t % n_cores
        out[c] = out.get(c, 0) + 1
    return out
