"""Multi-process stress harness for the disk tier.

``tests/test_cache.py::TestMultiprocessStress`` drives it at several
scales.  It lives beside the tests, not in the package: nothing in
``repro`` calls it.

Two checks, both run against one shared cache directory:

* :func:`stress_lost_updates` — N worker processes each put M distinct
  entries under a cap large enough that nothing evicts.  With the old
  unlocked load-modify-save index, concurrent workers clobbered each
  other's entries and the final index silently dropped keys; with the
  file-locked :class:`~repro.cache.index.CacheIndex` every one of the
  N×M entries must be present and reconciled.
* :func:`stress_churn` — N workers churn overlapping puts/gets under a
  deliberately tight byte cap.  Afterwards the invariants of the tier
  must hold: index == directory scan (no orphans, no ghosts), recorded
  sizes match the files, and the byte total is under the cap.

Worker entry points are module-level so the spawn start method can
pickle them (spawn, not fork: it exercises genuinely independent
processes and matches how the prefork fleet launches workers).
"""

from __future__ import annotations

import json
import multiprocessing
import os
from typing import Dict, List, Tuple

from repro.cache.disk import DiskTier
from repro.cache.index import INDEX_NAME


def _blob(worker: int, item: int, size: int) -> bytes:
    seed = f"w{worker:03d}-k{item:04d}:"
    body = seed * (size // len(seed) + 1)
    return body[:size].encode()


def _put_worker(directory: str, worker: int, items: int,
                cap: int, blob_size: int) -> None:
    tier = DiskTier(directory, name="stress", max_bytes=cap)
    for item in range(items):
        tier.put(f"w{worker:03d}-k{item:04d}", _blob(worker, item, blob_size))
    tier.flush()


def _churn_worker(directory: str, worker: int, items: int,
                  cap: int, blob_size: int) -> None:
    tier = DiskTier(directory, name="stress", max_bytes=cap)
    for round_ in range(3):
        for item in range(items):
            key = f"shared-k{(item + worker + round_) % items:04d}"
            if (item + worker) % 3 == 0:
                tier.get(key)
            else:
                tier.put(key, _blob(worker, item, blob_size))
    tier.flush()


def _run_workers(target, directory: str, procs: int, items: int,
                 cap: int, blob_size: int) -> None:
    ctx = multiprocessing.get_context("spawn")
    workers = [
        ctx.Process(
            target=target, args=(directory, w, items, cap, blob_size)
        )
        for w in range(procs)
    ]
    for proc in workers:
        proc.start()
    for proc in workers:
        proc.join()
    failed = [p.exitcode for p in workers if p.exitcode != 0]
    if failed:
        raise RuntimeError(f"stress workers exited with {failed}")


def _audit(directory: str, cap: int) -> List[str]:
    """Invariant violations of a quiesced cache dir (empty = healthy)."""
    problems: List[str] = []
    with open(os.path.join(directory, INDEX_NAME)) as fh:
        index: Dict[str, Dict] = json.load(fh)
    on_disk = {
        name[: -len(".json")]: os.path.getsize(
            os.path.join(directory, name)
        )
        for name in os.listdir(directory)
        if name.endswith(".json") and name != INDEX_NAME
    }
    missing = sorted(set(index) - set(on_disk))
    orphans = sorted(set(on_disk) - set(index))
    if missing:
        problems.append(f"{len(missing)} indexed entries have no file")
    if orphans:
        problems.append(f"{len(orphans)} files missing from the index")
    for key in set(index) & set(on_disk):
        if int(index[key].get("size", -1)) != on_disk[key]:
            problems.append(f"size mismatch for {key}")
    total = sum(on_disk.values())
    if total > cap:
        problems.append(f"on-disk bytes {total} exceed the cap {cap}")
    return problems


def stress_lost_updates(
    directory: str, procs: int = 4, items: int = 25, blob_size: int = 256
) -> List[str]:
    """Concurrent distinct puts, uncapped: every entry must survive."""
    cap = procs * items * blob_size * 16  # never evicts
    _run_workers(_put_worker, directory, procs, items, cap, blob_size)
    DiskTier(directory, name="stress", max_bytes=cap).evict()  # reconcile
    problems = _audit(directory, cap)
    with open(os.path.join(directory, INDEX_NAME)) as fh:
        index = json.load(fh)
    expected = procs * items
    if len(index) != expected:
        problems.append(
            f"lost updates: index has {len(index)} of {expected} entries"
        )
    return problems


def stress_churn(
    directory: str, procs: int = 4, items: int = 40, blob_size: int = 512
) -> List[str]:
    """Overlapping churn under a tight cap: no orphans, cap enforced."""
    cap = items * blob_size // 4  # fits ~25% of the keyspace
    _run_workers(_churn_worker, directory, procs, items, cap, blob_size)
    DiskTier(directory, name="stress", max_bytes=cap).evict()
    return _audit(directory, cap)
