"""Baseline collectives: Intel-OpenMP-style and Intel-MPI-style.

The paper compares its model-tuned algorithms against Intel's OpenMP
runtime and Intel MPI (§IV-B3).  We reproduce the *cost structure* of
those implementations as engine programs:

* **OpenMP** — fork/join overhead per parallel region, a centralized
  counter barrier (serialized atomic updates on one line, then a
  contended release flag), reductions as serialized atomic accumulation.
  This linear-in-N structure is why the tuned tree wins up to 7×.
* **MPI** — binomial/dissemination shapes (good trees!), but every
  message pays the library's software overhead (matching, progress
  engine, request bookkeeping — several µs on a 1.3 GHz Knight core) and
  payloads cross a shared segment with a double copy, because ranks live
  in different address spaces.  That overhead is what the 13-24×
  speedups come from, and the paper notes it is not fundamental
  (address spaces could be mapped, [13]).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.algorithms.tree import Tree
from repro.errors import ModelError
from repro.sim.program import Program

#: Fork/join overhead of entering an OpenMP parallel region [ns].
OMP_FORK_NS = 1500.0

#: Per-message software overhead of the MPI stack on a Knight core [ns].
MPI_MSG_OVERHEAD_NS = 5000.0

#: Per-message overhead of a single-copy MPI (address spaces mapped into
#: each process per the paper's [13]): no shared-segment staging, leaner
#: protocol — the paper notes the double-copy disadvantage "is not
#: fundamental" and this variant quantifies how much of the gap it was.
MPI_SINGLECOPY_OVERHEAD_NS = 1500.0


# ---------------------------------------------------------------------------
# OpenMP-style
# ---------------------------------------------------------------------------

def omp_barrier_programs(ranks: Sequence[int], tag: str = "ompb") -> List[Program]:
    """Centralized two-phase barrier.

    Gather: each thread updates a shared counter — the line serializes
    through the threads (a chain of dependent transfers).  Release: the
    last thread writes a release flag that everyone polls (contended).
    """
    n = len(ranks)
    if n == 0:
        raise ModelError("no participants")
    progs = [Program(t) for t in ranks]
    for i, p in enumerate(progs):
        if i > 0:
            p.poll_flag(f"{tag}/ctr/{i - 1}")
        p.write_flag(f"{tag}/ctr/{i}", cold=False)
    # Everybody polls the final counter value as the release.
    for i, p in enumerate(progs):
        if i < n - 1:
            p.poll_flag(f"{tag}/ctr/{n - 1}")
    return progs


def omp_broadcast_programs(
    ranks: Sequence[int], payload_bytes: int = 64, tag: str = "ompbc"
) -> List[Program]:
    """Master writes a shared buffer; all threads read it (contended),
    bracketed by the runtime's barrier."""
    n = len(ranks)
    if n == 0:
        raise ModelError("no participants")
    progs = [Program(t) for t in ranks]
    progs[0].delay(OMP_FORK_NS)
    progs[0].local_copy(payload_bytes)
    progs[0].write_flag(f"{tag}/data", n_pollers=n - 1)
    for i, p in enumerate(progs):
        if i == 0:
            continue
        p.delay(OMP_FORK_NS)
        p.poll_flag(f"{tag}/data", payload_bytes=payload_bytes)
        p.write_flag(f"{tag}/ack/{i}", cold=False)
    for i in range(1, n):
        progs[0].poll_flag(f"{tag}/ack/{i}")
    return progs


def omp_reduce_programs(
    ranks: Sequence[int], payload_bytes: int = 64, tag: str = "ompr"
) -> List[Program]:
    """Serialized atomic accumulation into one shared line."""
    n = len(ranks)
    if n == 0:
        raise ModelError("no participants")
    progs = [Program(t) for t in ranks]
    compute_ns_per_line = 8.0
    for i, p in enumerate(progs):
        p.delay(OMP_FORK_NS)
        p.compute(payload_bytes, compute_ns_per_line)
        if i > 0:
            p.poll_flag(f"{tag}/acc/{i - 1}", payload_bytes=payload_bytes)
            p.compute(payload_bytes, compute_ns_per_line)
        p.write_flag(f"{tag}/acc/{i}", cold=False)
    return progs


# ---------------------------------------------------------------------------
# MPI-style
# ---------------------------------------------------------------------------

def mpi_barrier_programs(ranks: Sequence[int], tag: str = "mpib") -> List[Program]:
    """Dissemination barrier (the good algorithm) at MPI message cost."""
    n = len(ranks)
    if n == 0:
        raise ModelError("no participants")
    import math

    rounds = math.ceil(math.log2(n)) if n > 1 else 0
    progs = [Program(t) for t in ranks]
    for j in range(rounds):
        stride = 2**j
        for i, p in enumerate(progs):
            dst = (i + stride) % n
            if dst != i:
                p.delay(MPI_MSG_OVERHEAD_NS)  # send-side software path
                p.write_flag(f"{tag}/{j}/{i}->{dst}", cold=False)
            src = (i - stride) % n
            if src != i:
                p.poll_flag(f"{tag}/{j}/{src}->{i}")
    return progs


def mpi_broadcast_programs(
    ranks: Sequence[int], payload_bytes: int = 64, tag: str = "mpibc"
) -> List[Program]:
    """Binomial-tree broadcast with per-message overhead and the
    shared-segment double copy on the receive side."""
    n = len(ranks)
    if n == 0:
        raise ModelError("no participants")
    tree = Tree.binomial(n)
    progs = [Program(t) for t in ranks]
    parents = tree.parents()
    for node in tree.root.walk():
        p = progs[node.rank]
        parent = parents[node.rank]
        if parent is not None:
            p.poll_flag(f"{tag}/{parent}->{node.rank}", payload_bytes=payload_bytes)
            p.local_copy(payload_bytes)  # shm segment -> user buffer
        for child in node.children:
            p.delay(MPI_MSG_OVERHEAD_NS)
            p.local_copy(payload_bytes)  # user buffer -> shm segment
            p.write_flag(f"{tag}/{node.rank}->{child.rank}", cold=False)
    return progs


def mpi_singlecopy_broadcast_programs(
    ranks: Sequence[int], payload_bytes: int = 64, tag: str = "mpisc"
) -> List[Program]:
    """Binomial broadcast for a single-copy MPI ([13]-style): receivers
    pull straight from the sender's mapped buffer — one copy, no
    shared-segment staging, lighter per-message software path."""
    n = len(ranks)
    if n == 0:
        raise ModelError("no participants")
    tree = Tree.binomial(n)
    progs = [Program(t) for t in ranks]
    parents = tree.parents()
    for node in tree.root.walk():
        p = progs[node.rank]
        parent = parents[node.rank]
        if parent is not None:
            p.poll_flag(f"{tag}/{parent}->{node.rank}", payload_bytes=payload_bytes)
        for child in node.children:
            p.delay(MPI_SINGLECOPY_OVERHEAD_NS)
            p.write_flag(f"{tag}/{node.rank}->{child.rank}", cold=False)
    return progs


def mpi_singlecopy_barrier_programs(
    ranks: Sequence[int], tag: str = "mpiscb"
) -> List[Program]:
    """Dissemination barrier at single-copy MPI message cost."""
    n = len(ranks)
    if n == 0:
        raise ModelError("no participants")
    import math

    rounds = math.ceil(math.log2(n)) if n > 1 else 0
    progs = [Program(t) for t in ranks]
    for j in range(rounds):
        stride = 2**j
        for i, p in enumerate(progs):
            dst = (i + stride) % n
            if dst != i:
                p.delay(MPI_SINGLECOPY_OVERHEAD_NS)
                p.write_flag(f"{tag}/{j}/{i}->{dst}", cold=False)
            src = (i - stride) % n
            if src != i:
                p.poll_flag(f"{tag}/{j}/{src}->{i}")
    return progs


def mpi_reduce_programs(
    ranks: Sequence[int], payload_bytes: int = 64, tag: str = "mpir"
) -> List[Program]:
    """Binomial-tree reduce at MPI message cost."""
    n = len(ranks)
    if n == 0:
        raise ModelError("no participants")
    tree = Tree.binomial(n)
    progs = [Program(t) for t in ranks]
    compute_ns_per_line = 8.0
    parents = tree.parents()
    for node in tree.root.walk():
        p = progs[node.rank]
        p.compute(payload_bytes, compute_ns_per_line)
        for child in node.children:
            p.poll_flag(f"{tag}/{child.rank}->{node.rank}", payload_bytes=payload_bytes)
            p.local_copy(payload_bytes)  # shm -> user
            p.compute(payload_bytes, compute_ns_per_line)
        parent = parents[node.rank]
        if parent is not None:
            p.delay(MPI_MSG_OVERHEAD_NS)
            p.local_copy(payload_bytes)
            p.write_flag(f"{tag}/{node.rank}->{parent}", cold=False)
    return progs
