"""Warm registry of fitted :class:`CapabilityModel` artifacts.

The serving asymmetry this module exploits: *fitting* a model means
running the whole microbenchmark suite against a simulated machine
(hundreds of milliseconds to seconds), while *evaluating* the fitted
model is arithmetic on a dozen scalars (microseconds).

Since the versioned artifact store landed, the registry is a **thin
serving view over** :class:`repro.store.ArtifactStore`:

* a *slot* is the content-addressed artifact key
  (:meth:`ArtifactRegistry.key_for` — machine config + fit parameters +
  package version, same :func:`repro.runtime.cache.cache_key` scheme as
  everything else);
* the store holds immutable *versions* per slot with a routing manifest
  (``latest`` / ``canary``); the registry keeps the active stable
  artifact of each slot warm in-process plus a memory tier of every
  resolved version (identity ``slot@version``);
* cold demand single-flights: store load → legacy flat-file adoption →
  full fit (which publishes the result back to the store);
* :meth:`get`/:meth:`get_machine` take the query's content key and,
  when the slot has a live canary, route it over the
  :class:`~repro.serve.router.VersionRing` — N% of virtual ring points
  to the canary version.  ``serve.store.requests{version=...}``
  counters split traffic by version label;
* :meth:`reload` re-reads the manifest and atomically swaps the active
  version per slot — in-flight batches keep their old ``Artifact``
  references (hot-swap never drops work), and the per-version memory
  tier is invalidated per-artifact, never globally.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional

from repro.cache import AsyncSingleFlight, LRUCache
from repro.errors import ConfigurationError, ReproError
from repro.machine.config import ClusterMode, MachineConfig, MemoryMode
from repro.model.parameters import CapabilityModel
from repro.obs import counter, span
from repro.runtime.cache import cache_key, default_cache_dir
from repro.serve.protocol import ProtocolError
from repro.serve.router import VersionRing
from repro.store import ArtifactStore, StoreError, VersionRecord
from repro.store.records import LEGACY_ARTIFACT_SCHEMA_VERSION

#: Schema of the *slot key* (and of the legacy flat artifact files the
#: store migrates).  Part of every artifact cache key, so it must stay
#: pinned — bumping it would orphan every published version.
ARTIFACT_SCHEMA_VERSION = LEGACY_ARTIFACT_SCHEMA_VERSION


def config_from_json(obj: Optional[Mapping[str, Any]]) -> MachineConfig:
    """Build a :class:`MachineConfig` from a request's ``config`` object.

    ``null``/missing → the paper's headline SNC4-flat part.  String
    fields name enum values case-insensitively (``"snc4"``, ``"flat"``);
    the remaining keys pass through to :class:`MachineConfig`, whose own
    validation turns nonsense into a 400 via :class:`ConfigurationError`.
    """
    if obj is None:
        obj = {}
    if not isinstance(obj, Mapping):
        raise ProtocolError("config must be a JSON object")
    kwargs: Dict[str, Any] = dict(obj)
    try:
        cluster = kwargs.pop("cluster_mode", "snc4")
        memory = kwargs.pop("memory_mode", "flat")
        if isinstance(cluster, str):
            cluster = ClusterMode(cluster.lower())
        if isinstance(memory, str):
            memory = MemoryMode(memory.lower())
        return MachineConfig(
            cluster_mode=cluster, memory_mode=memory, **kwargs
        )
    except (ValueError, TypeError) as e:
        raise ProtocolError(f"bad machine config: {e}") from e


@dataclass(frozen=True)
class Artifact:
    """One fitted model, warm in memory."""

    key: str
    config: MachineConfig
    capability: CapabilityModel
    #: "fit" (benchmarked now), "store" (loaded from the version store),
    #: "disk" (adopted legacy flat file), or "preload" (injected).
    source: str
    fit_seconds: float = 0.0
    #: Catalog preset name when fitted for a :mod:`repro.machines`
    #: preset; ``None`` for raw-config requests.
    machine: Optional[str] = None
    #: Store version id backing this artifact (``None`` for artifacts
    #: that were injected without ever touching the store).
    version: Optional[str] = None

    @property
    def identity(self) -> str:
        """``slot@version`` — what response caches key on, so two
        versions of one slot never share rendered bytes."""
        if self.version is None:
            return self.key
        return f"{self.key}@{self.version}"


@dataclass
class _SlotView:
    """One slot's cached routing state (rebuilt on :meth:`reload`)."""

    latest: Optional[str] = None
    canary: Optional[str] = None
    canary_percent: float = 0.0
    ring: Optional[VersionRing] = None

    @classmethod
    def from_state(cls, state) -> "_SlotView":
        ring = None
        if state.canary and state.canary_percent > 0:
            ring = VersionRing(state.canary_percent)
        return cls(
            latest=state.latest,
            canary=state.canary,
            canary_percent=state.canary_percent,
            ring=ring,
        )


class ArtifactRegistry:
    """Content-addressed, single-flight serving view over the store."""

    def __init__(
        self,
        iterations: int = 20,
        seed: int = 1234,
        directory: Optional[str] = None,
        persist: bool = True,
        store: Optional[ArtifactStore] = None,
    ) -> None:
        if iterations < 1:
            raise ConfigurationError("artifact fit needs >= 1 iteration")
        self.iterations = iterations
        self.seed = seed
        self.persist = persist
        self.directory = directory or os.path.join(
            default_cache_dir(), "serve", "artifacts"
        )
        self.store = store or ArtifactStore(
            directory=self.directory, persist=persist
        )
        #: Active stable artifact per slot — the warm fast path.
        self._warm: Dict[str, Artifact] = {}
        #: Memory tier of every resolved version, by ``slot@version``
        #: identity (stable *and* canary live here).  An LRU so a long
        #: canary history cannot grow the process without bound.
        self._versions = LRUCache("serve.versions", max_entries=64)
        #: Cached per-slot routing views; rebuilt by :meth:`reload`.
        self._views: Dict[str, _SlotView] = {}
        self._machines: Dict[str, Any] = {}
        #: Loads/fits in flight, keyed by slot (stable) or identity
        #: (canary): concurrent cold demand fits once.
        self._fitting = AsyncSingleFlight()
        #: key → ResolvedMachine for preset-fitted artifacts, so
        #: :meth:`machine_for` can rebuild the preset machine (with its
        #: calibration overrides) instead of a stock KNL one.
        self._specs: Dict[str, Any] = {}

    # -- keys ---------------------------------------------------------------

    def key_for(self, config: MachineConfig) -> str:
        """Content address (store slot) of the artifact for ``config``.

        Same scheme as the runtime result cache: SHA-256 over the
        fingerprinted parts + ``repro.__version__`` (a version bump
        invalidates every artifact — the model code may have changed).
        """
        return cache_key(
            scope="serve.artifact",
            schema=ARTIFACT_SCHEMA_VERSION,
            config=config,
            iterations=self.iterations,
            seed=self.seed,
        )

    def key_for_machine(self, rm) -> str:
        """Content address for a catalog preset's artifact.

        Distinct from :meth:`key_for` even when the preset's
        ``MachineConfig`` coincides with a raw-config request: the
        preset name and its full knob set are part of the key, so two
        machines never share an artifact slot.
        """
        return cache_key(
            scope="serve.artifact",
            schema=ARTIFACT_SCHEMA_VERSION,
            machine=rm.name,
            knobs=rm.knobs,
            config=rm.to_machine_config(),
            iterations=self.iterations,
            seed=self.seed,
        )

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._warm)

    def is_warm(self, key: str) -> bool:
        """True when the slot has an active artifact in this process."""
        return key in self._warm

    def labels(self) -> Dict[str, str]:
        """``{key: config_label}`` of everything warm."""
        return {k: a.capability.config_label for k, a in self._warm.items()}

    def active_version(self, key: str) -> Optional[str]:
        """Version id the slot currently serves (``None`` = cold or
        preloaded outside the store)."""
        artifact = self._warm.get(key)
        return artifact.version if artifact is not None else None

    # -- population ---------------------------------------------------------

    def preload(
        self,
        config: MachineConfig,
        capability: CapabilityModel,
        persist: bool = False,
    ) -> Artifact:
        """Inject an already-fitted model (tests, forked fleet workers,
        offline-fitted payloads).

        The model is published into the store (so it has a version
        identity and hot-swap semantics apply), but the version file
        only reaches disk with ``persist=True`` — a fleet worker
        injecting the parent's prefit must not re-write what the parent
        already persisted.
        """
        key = self.key_for(config)
        artifact = Artifact(
            key=key, config=config, capability=capability, source="preload"
        )
        return self._register(self._attach_version(artifact, persist))

    def preload_machine(
        self,
        rm,
        capability: CapabilityModel,
        persist: bool = False,
    ) -> Artifact:
        """Inject an already-fitted model under a preset's key."""
        key = self.key_for_machine(rm)
        self._specs[key] = rm
        artifact = Artifact(
            key=key,
            config=rm.to_machine_config(),
            capability=capability,
            source="preload",
            machine=rm.name,
        )
        return self._register(self._attach_version(artifact, persist))

    def _attach_version(self, artifact: Artifact, persist: bool) -> Artifact:
        """Publish an injected/fitted model and stamp its version id."""
        try:
            # The timestamp is publish metadata, outside the content id.
            record = self.store.publish(
                artifact.key,
                artifact.capability.to_dict(),
                # Serve-edge clock read; the store itself never looks.
                timestamp=time.time(),
                machine=artifact.machine,
                iterations=self.iterations,
                seed=self.seed,
                fit_seconds=artifact.fit_seconds,
                persist=persist,
            )
        except (StoreError, OSError):
            # A broken store must not break serving; the artifact just
            # stays unversioned (no hot-swap for it).
            counter("serve.store.publish_errors").inc()
            return artifact
        return replace(artifact, version=record.version_id)

    def _register(self, artifact: Artifact) -> Artifact:
        self._warm[artifact.key] = artifact
        if artifact.version is not None:
            self._versions.put(artifact.identity, artifact)
        return artifact

    # -- the serving path ---------------------------------------------------

    async def get(
        self, config: MachineConfig, content_key: Optional[str] = None
    ) -> Artifact:
        """The artifact serving ``config`` for this query — canary ring
        routing first, then warm hit, store load, legacy adoption, or a
        single-flighted fit, in that order."""
        key = self.key_for(config)
        artifact = await self._resolve(
            key,
            content_key,
            lambda: self._load_or_fit(key, config),
            config=config,
        )
        self._count_request(artifact)
        return artifact

    async def get_machine(
        self, rm, content_key: Optional[str] = None
    ) -> Artifact:
        """The fitted artifact for a catalog preset
        (:class:`~repro.machines.spec.ResolvedMachine`), with the same
        routing/single-flight discipline as :meth:`get` — cold fits run
        the full suite on the preset's own machine."""
        key = self.key_for_machine(rm)
        self._specs[key] = rm
        artifact = await self._resolve(
            key,
            content_key,
            lambda: self._load_or_fit_machine(key, rm),
            config=rm.to_machine_config(),
            machine=rm.name,
        )
        self._count_request(artifact)
        return artifact

    async def _resolve(
        self,
        key: str,
        content_key: Optional[str],
        loader,
        config: MachineConfig,
        machine: Optional[str] = None,
    ) -> Artifact:
        view = self._view(key)
        if (
            view.ring is not None
            and view.canary is not None
            and content_key is not None
            and view.ring.version_for(content_key) == "canary"
        ):
            artifact = await self._get_canary(key, view, config, machine)
            if artifact is not None:
                return artifact
            # Canary version unusable: fall through to stable rather
            # than fail the query — a bad canary must not take down the
            # slot (that is the whole point of canarying it).
        hit = self._warm.get(key)
        if hit is not None and (
            hit.version is None
            or view.latest is None
            or hit.version == view.latest
        ):
            counter("serve.artifacts.hits").inc()
            return hit
        return await self._singleflight(key, loader)

    def _view(self, key: str) -> _SlotView:
        """Cached routing view of one slot (manifest read on first
        touch; :meth:`reload` rebuilds)."""
        view = self._views.get(key)
        if view is None:
            try:
                view = _SlotView.from_state(self.store.slot_state(key))
            except StoreError:
                counter("serve.store.manifest_errors").inc()
                view = _SlotView()
            self._views[key] = view
        return view

    async def _get_canary(
        self,
        key: str,
        view: _SlotView,
        config: MachineConfig,
        machine: Optional[str],
    ) -> Optional[Artifact]:
        vid = view.canary
        assert vid is not None
        identity = f"{key}@{vid}"
        hit = self._versions.get(identity)
        if hit is not None:
            counter("serve.artifacts.hits").inc()
            return hit
        try:
            return await self._singleflight(
                identity,
                lambda: self._artifact_from_version(
                    key, vid, config, machine, source="store"
                ),
                stable=False,
            )
        except ReproError:
            counter("serve.store.canary_errors").inc()
            return None

    async def _singleflight(
        self, key: str, loader, stable: bool = True
    ) -> Artifact:
        async def runner() -> Artifact:
            artifact = await asyncio.to_thread(loader)
            if stable:
                self._register(artifact)
            elif artifact.version is not None:
                self._versions.put(artifact.identity, artifact)
            return artifact

        return await self._fitting.do(
            key,
            runner,
            on_join=counter("serve.artifacts.joined").inc,
        )

    def _count_request(self, artifact: Artifact) -> None:
        label = (
            artifact.version[:12]
            if artifact.version is not None
            else "unversioned"
        )
        counter(f'serve.store.requests{{version="{label}"}}').inc()

    def machine_for(self, artifact: Artifact):
        """A booted machine matching the artifact (for measured tuning).

        Built on demand and cached per key — construction is cheap
        next to a fit but not free, and measured ``/v1/tune`` calls
        reuse the machine's deterministic seed.  Preset artifacts
        rebuild through their spec so calibration overrides apply.
        """
        machine = self._machines.get(artifact.key)
        if machine is None:
            spec = self._specs.get(artifact.key)
            if spec is not None:
                machine = spec.build(seed=self.seed)
            else:
                from repro.machine.machine import KNLMachine

                machine = KNLMachine(artifact.config, seed=self.seed)
            self._machines[artifact.key] = machine
        return machine

    # -- hot swap ------------------------------------------------------------

    def reload(self) -> Dict[str, Any]:
        """Re-read the manifest and swap each slot's active version.

        The swap is an atomic dict assignment: requests already holding
        the old :class:`Artifact` finish on it (in-flight work is never
        dropped), new resolutions see the new one.  Stale versions are
        pruned from the per-version memory tier *per artifact* — the
        compiled-plan cache upstream is untouched, and rendered-response
        slots self-invalidate because they key on ``Artifact.identity``.
        """
        self.store.refresh()
        counter("serve.store.reloads").inc()
        summary: Dict[str, Any] = {}
        known = set(self._views) | set(self._warm)
        known.update(s.slot for s in self._iter_store_slots())
        for slot in sorted(known):
            summary[slot] = self._reload_slot(slot)
        return summary

    def _iter_store_slots(self):
        try:
            return self.store.slots()
        except StoreError:
            counter("serve.store.manifest_errors").inc()
            return []

    def _reload_slot(self, slot: str) -> Dict[str, Any]:
        try:
            state = self.store.slot_state(slot)
            view = _SlotView.from_state(state)
        except StoreError as e:
            counter("serve.store.manifest_errors").inc()
            return {"error": str(e)}
        self._views[slot] = view
        entry: Dict[str, Any] = {
            "latest": view.latest[:12] if view.latest else None,
            "canary": view.canary[:12] if view.canary else None,
            "canary_percent": view.canary_percent,
            "swapped": False,
        }
        current = self._warm.get(slot)
        if (
            view.latest is not None
            and current is not None
            and current.version != view.latest
        ):
            try:
                fresh = self._artifact_from_version(
                    slot,
                    view.latest,
                    current.config,
                    current.machine,
                    source="store",
                )
            except ReproError as e:
                counter("serve.store.load_errors").inc()
                entry["error"] = str(e)
            else:
                self._register(fresh)
                entry["swapped"] = True
                counter("serve.store.swaps").inc()
        # Per-artifact invalidation of the version memory tier: only
        # this slot's no-longer-routed versions drop; other slots (and
        # the plan cache upstream) are untouched.
        current = self._warm.get(slot)
        keep = {view.latest, view.canary}
        if current is not None:
            keep.add(current.version)
        prefix = f"{slot}@"
        for identity in [
            i
            for i in sorted(self._versions.keys())
            if i.startswith(prefix) and i[len(prefix):] not in keep
        ]:
            self._versions.invalidate(identity)
            counter("serve.store.invalidated").inc()
        return entry

    # -- disk + fit (worker thread) -----------------------------------------

    def _artifact_from_version(
        self,
        slot: str,
        version_id: str,
        config: MachineConfig,
        machine: Optional[str],
        source: str,
    ) -> Artifact:
        """Materialize one store version as a servable artifact.

        Raises :class:`StoreError` (unknown/unreadable version) or
        :class:`~repro.errors.ModelError` (payload doesn't build a
        model) — callers decide whether that means fit or fall back.
        """
        record = self.store.load(
            version_id,
            # LRU touch — serve-edge clock read, per DET rules.
            touch_at=time.time(),
        )
        capability = CapabilityModel.from_dict(record.capability)
        return Artifact(
            key=slot,
            config=config,
            capability=capability,
            source=source,
            fit_seconds=record.fit_seconds,
            machine=machine if machine is not None else record.machine,
            version=version_id,
        )

    def _load_or_fit(self, key: str, config: MachineConfig) -> Artifact:
        artifact = self._load(key, config)
        if artifact is not None:
            counter("serve.artifacts.loads").inc()
            return artifact
        return self._fit(key, config)

    def _load_or_fit_machine(self, key: str, rm) -> Artifact:
        config = rm.to_machine_config()
        artifact = self._load(key, config, machine=rm.name)
        if artifact is not None:
            counter("serve.artifacts.loads").inc()
            return artifact
        return self._fit_machine(key, rm)

    def _load(
        self,
        key: str,
        config: MachineConfig,
        machine: Optional[str] = None,
    ) -> Optional[Artifact]:
        """Cold-start load: the manifest's latest, else an adopted
        legacy flat file.  ``None`` (→ refit) on anything unusable —
        a corrupt or missing entry must degrade to a fit, not a 500."""
        view = self._view(key)
        if view.latest is not None:
            try:
                return self._artifact_from_version(
                    key, view.latest, config, machine, source="store"
                )
            except ReproError:
                counter("serve.store.load_errors").inc()
        record = self.store.adopt_legacy(key)
        if record is not None:
            try:
                capability = CapabilityModel.from_dict(record.capability)
            except ReproError:
                return None
            # Adoption made it the slot's latest; refresh the view.
            self._views.pop(key, None)
            return Artifact(
                key=key,
                config=config,
                capability=capability,
                source="disk",
                fit_seconds=record.fit_seconds,
                machine=machine if machine is not None else record.machine,
                version=record.version_id,
            )
        return None

    def _fit_machine(self, key: str, rm) -> Artifact:
        from repro.bench import characterize
        from repro.model import derive_capability_model

        counter("serve.artifacts.fits").inc()
        t0 = time.perf_counter()
        with span(
            "serve.artifact.fit", category="serve",
            key=key[:12], machine=rm.name,
        ):
            machine = rm.build(seed=self.seed)
            char = characterize(
                machine, iterations=self.iterations, seed=self.seed
            )
            capability = derive_capability_model(char)
        elapsed = time.perf_counter() - t0
        self._machines[key] = machine
        artifact = Artifact(
            key=key,
            config=rm.to_machine_config(),
            capability=capability,
            source="fit",
            fit_seconds=elapsed,
            machine=rm.name,
        )
        artifact = self._attach_version(artifact, persist=self.persist)
        self._views.pop(key, None)  # the publish moved latest
        return artifact

    def _fit(self, key: str, config: MachineConfig) -> Artifact:
        from repro.bench import characterize
        from repro.machine.machine import KNLMachine
        from repro.model import derive_capability_model

        counter("serve.artifacts.fits").inc()
        t0 = time.perf_counter()
        with span("serve.artifact.fit", category="serve", key=key[:12]):
            machine = KNLMachine(config, seed=self.seed)
            char = characterize(
                machine, iterations=self.iterations, seed=self.seed
            )
            capability = derive_capability_model(char)
        elapsed = time.perf_counter() - t0
        self._machines[key] = machine
        artifact = Artifact(
            key=key,
            config=config,
            capability=capability,
            source="fit",
            fit_seconds=elapsed,
        )
        artifact = self._attach_version(artifact, persist=self.persist)
        self._views.pop(key, None)  # the publish moved latest
        return artifact
