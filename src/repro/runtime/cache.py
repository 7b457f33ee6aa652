"""Content-addressed on-disk caches for the execution engine.

Two caches with different lifetimes and formats, each a thin encoding
over one :class:`repro.cache.DiskTier` (which owns storage, the
file-locked LRU index, eviction, and the ``cache.*`` metrics — see
``docs/CACHING.md``):

* :class:`ResultCache` — finished :class:`ExperimentResult` payloads,
  stored as JSON (the same shape :mod:`repro.experiments.store` writes)
  keyed by SHA-256 of ``(experiment id, resolved kwargs, the paper's
  default MachineConfig, repro.__version__)``, with an LRU byte-size
  cap.  Safe under concurrent pool workers: index updates are
  file-locked and atime refreshes are batched (call :meth:`flush` when
  a run finishes), so a warm hit does zero index writes.
* :class:`CharacterizationCache` — pickled
  :class:`~repro.bench.suite.Characterization` bundles shared between
  worker processes.  Written only during the scheduler's warm-up phase
  so the hit/miss pattern of a run never depends on task ordering.

Each key is looked up about once per run, so neither cache keeps an
in-process memory tier: a hit reads the blob straight from disk.

Keys include the package version: bumping ``repro.__version__``
invalidates everything (the model/benchmarks may have changed).

The key/fingerprint primitives (``cache_key`` and friends) live in
:mod:`repro.cache.keys`; they are re-exported here unchanged so every
historical import path — and the golden key digests — keep working.
"""

from __future__ import annotations

import json
import os
import pickle
from typing import Any, Dict, Optional, Tuple

from repro._version import __version__
from repro.cache import DiskTier
from repro.cache.keys import (  # noqa: F401 - re-exported, see docstring
    atomic_write,
    cache_key,
    content_key,
    default_cache_dir,
    fingerprint,
)
from repro.experiments.common import ExperimentResult
from repro.obs import counter, span
from repro.runtime.task import CharacterizationNeed

#: Default LRU cap for the result cache (bytes).
DEFAULT_MAX_BYTES = 512 * 1024 * 1024


class ResultCache:
    """LRU-capped, content-addressed archive of experiment results."""

    def __init__(
        self, directory: str, max_bytes: int = DEFAULT_MAX_BYTES
    ) -> None:
        self._tier = DiskTier(
            os.path.join(directory, "results"),
            name="result.disk",
            suffix=".json",
            max_bytes=max_bytes,
        )

    @property
    def directory(self) -> str:
        return self._tier.directory

    # -- keys --------------------------------------------------------------

    def key_for(self, exp_id: str, kwargs: Dict[str, Any]) -> str:
        """Cache key for one experiment invocation.

        Includes the paper's default MachineConfig so that editing the
        simulated part invalidates archived results even without a
        version bump.
        """
        from repro.experiments.common import default_config

        return cache_key(
            exp_id=exp_id,
            kwargs=kwargs,
            default_config=default_config(),
        )

    # -- get/put -----------------------------------------------------------

    def get(self, key: str) -> Optional[ExperimentResult]:
        """The cached result for ``key``, or None.  A blob that does not
        decode to a result (bad JSON, wrong shape) is a miss."""
        with span("cache.result.get", category="cache") as sp:
            result = None
            blob = self._tier.get(key)
            if blob is not None:
                try:
                    result = ExperimentResult.from_dict(
                        json.loads(blob)["result"]
                    )
                except (ValueError, KeyError, TypeError):
                    pass
            sp.set(outcome="hit" if result is not None else "miss")
        name = "hits" if result is not None else "misses"
        counter(f"runtime.cache.result.{name}").inc()
        return result

    def put(self, key: str, result: ExperimentResult,
            meta: Optional[Dict[str, Any]] = None) -> str:
        counter("runtime.cache.result.writes").inc()
        payload = {
            "key": key,
            "meta": dict(meta or {}, version=__version__),
            # Same shape as experiments/store.py archives.
            "result": result.to_dict(),
        }
        blob = json.dumps(payload, indent=2, default=str).encode()
        return self._tier.put(key, blob)

    def keys(self) -> Tuple[str, ...]:
        return self._tier.keys()

    def flush(self) -> None:
        """Write batched atime refreshes to the index (end of a run)."""
        self._tier.flush()


class CharacterizationCache:
    """Pickle store of :class:`Characterization` bundles.

    ``read_only=True`` turns :meth:`put` into a no-op; the scheduler
    flips the cache read-only for the experiment phase so only warm-up
    tasks populate it (deterministic hit/miss regardless of ordering).

    Uncapped, so the tier keeps no index — the directory is exactly
    the set of ``<key>.pkl`` bundles, shared freely between worker
    processes (blob writes are atomic).
    """

    def __init__(self, directory: str, read_only: bool = False) -> None:
        self._tier = DiskTier(
            os.path.join(directory, "char"),
            name="char.disk",
            suffix=".pkl",
        )
        self.read_only = read_only

    @property
    def directory(self) -> str:
        return self._tier.directory

    # -- keys --------------------------------------------------------------

    @staticmethod
    def key_for_need(need: CharacterizationNeed) -> str:
        return cache_key(need=need)

    @staticmethod
    def key_for_machine(
        machine,
        iterations: int,
        seed,
        thread_counts,
        include_sweeps: bool,
    ) -> Optional[str]:
        """Key as seen from inside :func:`repro.bench.characterize`.

        Returns None (uncacheable) when the machine's seed is not a
        plain int or noise is disabled non-default — those machines
        cannot be reconstructed from the fingerprint.
        """
        machine_seed = getattr(machine, "seed", None)
        if not isinstance(machine_seed, int) or not getattr(
            machine, "noisy", True
        ):
            return None
        if seed is not None and not isinstance(seed, int):
            return None
        need = CharacterizationNeed(
            config=machine.config,
            machine_seed=machine_seed,
            iterations=iterations,
            char_seed=seed,
            thread_counts=tuple(thread_counts),
            include_sweeps=include_sweeps,
            machine_id=getattr(machine, "machine_id", None),
        )
        return CharacterizationCache.key_for_need(need)

    def has(self, key: str) -> bool:
        return os.path.exists(self._tier.path(key))

    def get(self, key: str):
        """The cached bundle for ``key``, or None.  A blob that fails to
        unpickle, or unpickles to anything but a Characterization, is a
        miss."""
        from repro.bench.suite import Characterization

        with span("cache.char.get", category="cache") as sp:
            bundle = None
            blob = self._tier.get(key)
            if blob is not None:
                # Besides UnpicklingError, the pickle docs name EOFError,
                # ImportError, AttributeError and IndexError; a reduce
                # call on bad arguments raises ValueError or TypeError.
                try:
                    bundle = pickle.loads(blob)
                except (pickle.UnpicklingError, EOFError, ImportError,
                        AttributeError, IndexError, ValueError, TypeError):
                    pass
                if not isinstance(bundle, Characterization):
                    bundle = None
            sp.set(outcome="hit" if bundle is not None else "miss")
        name = "hits" if bundle is not None else "misses"
        counter(f"runtime.cache.char.{name}").inc()
        return bundle

    def put(self, key: str, bundle) -> None:
        if self.read_only:
            return
        counter("runtime.cache.char.writes").inc()
        with span("cache.char.put", category="cache"):
            self._tier.put(key, pickle.dumps(bundle))


# -- process-global characterization cache handle --------------------------
#
# ``characterize()`` consults this when no explicit handle is passed, so
# the scheduler can make caching transparent to existing experiments.

_ACTIVE_CHAR_CACHE: Optional[CharacterizationCache] = None


def install_characterization_cache(
    cache: Optional[CharacterizationCache],
) -> None:
    global _ACTIVE_CHAR_CACHE
    _ACTIVE_CHAR_CACHE = cache


def active_characterization_cache() -> Optional[CharacterizationCache]:
    return _ACTIVE_CHAR_CACHE


class use_characterization_cache:
    """Context manager installing ``cache`` for the duration of a block."""

    def __init__(self, cache: Optional[CharacterizationCache]) -> None:
        self.cache = cache
        self._prev: Optional[CharacterizationCache] = None

    def __enter__(self) -> Optional[CharacterizationCache]:
        self._prev = active_characterization_cache()
        install_characterization_cache(self.cache)
        return self.cache

    def __exit__(self, *exc) -> None:
        install_characterization_cache(self._prev)
