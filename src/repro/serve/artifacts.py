"""Warm registry of fitted :class:`CapabilityModel` artifacts.

The serving asymmetry this module exploits: *fitting* a model means
running the whole microbenchmark suite against a simulated machine
(hundreds of milliseconds to seconds), while *evaluating* the fitted
model is arithmetic on a dozen scalars (microseconds).

Since the versioned artifact store landed, the registry is a **thin
serving view over** :class:`repro.store.ArtifactStore`:

* a request names its machine by a raw ``config`` or a catalog
  ``machine`` preset; the edge resolves either into one
  :class:`MachineRef`, and everything below takes that ref;
* a *slot* is the content-addressed artifact key
  (:meth:`ArtifactRegistry.key_for` — the ref's key parts + fit
  parameters + package version, same :func:`repro.runtime.cache.cache_key`
  scheme as everything else);
* the store holds immutable *versions* per slot with a routing manifest
  (``latest`` / ``canary``); the registry keeps the active stable
  artifact of each slot warm in-process plus a memory tier of every
  resolved version (identity ``slot@version``);
* the store's ``manifest.json`` is the one copy of the routing: the
  registry's per-slot views are what it last read, and every store
  mutation is a locked read-modify-write of that file (see
  :mod:`repro.store.store`), so registries in several processes never
  drop each other's publishes;
* cold demand single-flights: store load → legacy flat-file adoption →
  full fit (which publishes the result back to the store);
  :meth:`ArtifactRegistry.preload` only registers an already-fitted
  model and writes nothing;
* :meth:`get` takes the query's content key and,
  when the slot has a live canary, route it over the
  :class:`~repro.serve.router.VersionRing` — N% of virtual ring points
  to the canary version.  ``serve.store.requests{version=...}``
  counters split traffic by version label;
* :meth:`reload` reads the manifest once and atomically swaps the active
  version per slot — in-flight batches keep their old ``Artifact``
  references (hot-swap never drops work), and the per-version memory
  tier is invalidated per-artifact, never globally.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.cache import AsyncSingleFlight, LRUCache
from repro.errors import ConfigurationError, ReproError
from repro.machine.config import ClusterMode, MachineConfig, MemoryMode
from repro.model.parameters import CapabilityModel
from repro.obs import counter, span
from repro.runtime.cache import cache_key
from repro.serve.protocol import ProtocolError, Response
from repro.serve.router import VersionRing
from repro.store import (
    ArtifactStore,
    SlotState,
    StoreError,
    VersionRecord,
    version_id_for,
)
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
class MachineRef:
    """The machine a request names, resolved once at the edge.

    A raw ``config`` becomes ``MachineRef(config)``; a catalog preset
    (:class:`~repro.machines.spec.ResolvedMachine`) becomes
    :meth:`of`, which also carries the preset's knobs.  The two slot-key
    forms differ on purpose — a preset whose ``MachineConfig`` matches a
    raw config still gets its own slot — and both are pinned by golden
    digests, because every stored version lives under one of them.
    """

    config: MachineConfig
    preset: Optional[Any] = None

    @classmethod
    def of(cls, preset) -> "MachineRef":
        return cls(preset.to_machine_config(), preset)

    @property
    def name(self) -> Optional[str]:
        """Catalog preset name; ``None`` for a raw config."""
        return self.preset.name if self.preset is not None else None

    def key_parts(self) -> Dict[str, Any]:
        """The machine's share of the slot key."""
        if self.preset is None:
            return {"config": self.config}
        return {
            "machine": self.preset.name,
            "knobs": self.preset.knobs,
            "config": self.config,
        }

    def build(self, seed: int):
        """A booted machine; a preset rebuilds through its spec so its
        calibration overrides apply."""
        if self.preset is not None:
            return self.preset.build(seed=seed)
        from repro.machine.machine import KNLMachine

        return KNLMachine(self.config, seed=seed)

    def fit(self, iterations: int, seed: int) -> Tuple[CapabilityModel, Any]:
        """Run the microbenchmark suite on :meth:`build` and derive the
        model; returns ``(capability, machine)``.  The one fit the
        server and ``repro store publish`` share."""
        from repro.bench import characterize
        from repro.model import derive_capability_model

        machine = self.build(seed)
        char = characterize(machine, iterations=iterations, seed=seed)
        return derive_capability_model(char), machine


def machines_response(status_of: Callable[[MachineRef], Mapping]) -> Response:
    """``GET /v1/machines``: every catalog preset's identity fields plus
    what ``status_of(ref)`` reports about its serving state."""
    from repro.machines import (
        DEFAULT_MACHINE,
        MACHINES_SCHEMA_VERSION,
        list_machines,
    )

    try:
        machines = list_machines()
    except ReproError as e:
        # A broken preset in the user directory: surface it, don't
        # pretend the catalog is empty.
        return Response.error(500, f"machine catalog is broken: {e}")
    entries = []
    for rm in machines:
        ref = MachineRef.of(rm)
        entries.append(
            {
                "name": rm.name,
                "description": rm.description,
                "config_label": ref.config.label(),
                "default": rm.name == DEFAULT_MACHINE,
                "cache_key": rm.cache_key,
                **status_of(ref),
            }
        )
    return Response.json(
        {"schema_version": MACHINES_SCHEMA_VERSION, "machines": entries}
    )


@dataclass(frozen=True)
class Artifact:
    """One fitted model, warm in memory."""

    key: str
    ref: MachineRef
    capability: CapabilityModel
    #: "fit" (benchmarked now), "store" (loaded from the version store),
    #: "disk" (adopted legacy flat file), or "preload" (injected).
    source: str
    fit_seconds: float = 0.0
    #: Store version id of this payload (``None`` when a fit's publish
    #: failed).  A preload carries the id a publish would give it.
    version: Optional[str] = None

    @property
    def machine(self) -> Optional[str]:
        """Catalog preset name; ``None`` for raw-config requests."""
        return self.ref.name

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
    def from_state(cls, state: SlotState) -> "_SlotView":
        live = state.canary and state.canary_percent > 0
        ring = VersionRing(state.canary_percent) if live else None
        return cls(state.latest, state.canary, state.canary_percent, ring)


def _from_record(
    key: str, ref: MachineRef, record: VersionRecord, source: str
) -> Artifact:
    """A store version record as a servable artifact (raises
    :class:`~repro.errors.ModelError` if its payload builds no model)."""
    return Artifact(
        key=key,
        ref=ref,
        capability=CapabilityModel.from_dict(record.capability),
        source=source,
        fit_seconds=record.fit_seconds,
        version=record.version_id,
    )


class ArtifactRegistry:
    """Content-addressed, single-flight serving view over the store."""

    def __init__(
        self,
        iterations: int = 20,
        seed: int = 1234,
        directory: Optional[str] = None,
        persist: bool = True,
    ) -> None:
        if iterations < 1:
            raise ConfigurationError("artifact fit needs >= 1 iteration")
        self.iterations = iterations
        self.seed = seed
        self.store = ArtifactStore(directory=directory, persist=persist)
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

    # -- keys ---------------------------------------------------------------

    def key_for(self, ref: MachineRef) -> str:
        """Content address (store slot) of the artifact for ``ref``.

        Same scheme as the runtime result cache: SHA-256 over the
        fingerprinted parts + ``repro.__version__`` (a version bump
        invalidates every artifact — the model code may have changed).
        """
        return cache_key(
            scope="serve.artifact",
            schema=ARTIFACT_SCHEMA_VERSION,
            **ref.key_parts(),
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
        unversioned)."""
        artifact = self._warm.get(key)
        return artifact.version if artifact is not None else None

    # -- population ---------------------------------------------------------

    def preload(
        self, ref: MachineRef, capability: CapabilityModel
    ) -> Artifact:
        """Register an already-fitted model as its slot's warm artifact
        (tests, forked fleet workers).  Writes nothing to the store; the
        version id is the one a publish of the payload gets.  When the
        manifest routes the slot elsewhere (a fleet worker restarted
        after v2 was published), the warm-hit check serves that."""
        key = self.key_for(ref)
        return self._register(
            Artifact(
                key=key,
                ref=ref,
                capability=capability,
                source="preload",
                version=version_id_for(key, capability.to_dict()),
            )
        )

    def _register(self, artifact: Artifact) -> Artifact:
        self._warm[artifact.key] = artifact
        if artifact.version is not None:
            self._versions.put(artifact.identity, artifact)
        return artifact

    # -- the serving path ---------------------------------------------------

    async def get(
        self, ref: MachineRef, content_key: Optional[str] = None
    ) -> Artifact:
        """The artifact serving ``ref`` for this query — canary ring
        routing first, then warm hit, store load, legacy adoption, or a
        single-flighted fit, in that order."""
        key = self.key_for(ref)
        artifact = await self._resolve(key, ref, content_key)
        self._count_request(artifact)
        return artifact

    # The benchmark's trace probes wrap this name; it goes when they stop.
    get_machine = get

    async def _resolve(
        self, key: str, ref: MachineRef, content_key: Optional[str]
    ) -> Artifact:
        view = self._view(key)
        if (
            view.ring is not None
            and view.canary is not None
            and content_key is not None
            and view.ring.version_for(content_key) == "canary"
        ):
            artifact = await self._get_canary(key, view, ref)
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
        return await self._singleflight(
            key, lambda: self._load_or_fit(key, ref)
        )

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
        self, key: str, view: _SlotView, ref: MachineRef
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
                    key, vid, ref, source="store"
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
        reuse the machine's deterministic seed.
        """
        machine = self._machines.get(artifact.key)
        if machine is None:
            machine = self._machines[artifact.key] = artifact.ref.build(
                self.seed
            )
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
        counter("serve.store.reloads").inc()
        known = set(self._views) | set(self._warm)
        try:
            states = {s.slot: s for s in self.store.slots()}
        except StoreError as e:
            counter("serve.store.manifest_errors").inc()
            return {slot: {"error": str(e)} for slot in sorted(known)}
        return {
            slot: self._reload_slot(
                slot, states.get(slot) or SlotState(slot=slot)
            )
            for slot in sorted(known | set(states))
        }

    def _reload_slot(self, slot: str, state: SlotState) -> Dict[str, Any]:
        view = _SlotView.from_state(state)
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
                    slot, view.latest, current.ref, source="store"
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
        self, slot: str, version_id: str, ref: MachineRef, source: str
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
        return _from_record(slot, ref, record, source)

    def _load_or_fit(self, key: str, ref: MachineRef) -> Artifact:
        artifact = self._load(key, ref)
        if artifact is not None:
            counter("serve.artifacts.loads").inc()
            return artifact
        return self._fit(key, ref)

    def _load(self, key: str, ref: MachineRef) -> Optional[Artifact]:
        """Cold-start load: the manifest's latest, else an adopted
        legacy flat file.  ``None`` (→ refit) on anything unusable —
        a corrupt or missing entry must degrade to a fit, not a 500."""
        view = self._view(key)
        if view.latest is not None:
            try:
                return self._artifact_from_version(
                    key, view.latest, ref, source="store"
                )
            except ReproError:
                counter("serve.store.load_errors").inc()
        record = self.store.adopt_legacy(key)
        if record is None:
            return None
        # Adoption made it the slot's latest; refresh the view.
        self._views.pop(key, None)
        try:
            return _from_record(key, ref, record, source="disk")
        except ReproError:
            return None

    def _fit(self, key: str, ref: MachineRef) -> Artifact:
        counter("serve.artifacts.fits").inc()
        t0 = time.perf_counter()
        with span(
            "serve.artifact.fit", category="serve",
            key=key[:12], machine=ref.name,
        ):
            capability, machine = ref.fit(self.iterations, self.seed)
        self._machines[key] = machine
        fit_seconds = time.perf_counter() - t0
        version = None
        try:
            # The timestamp is publish metadata, outside the content id.
            version = self.store.publish(
                key,
                capability.to_dict(),
                # Serve-edge clock read; the store itself never looks.
                timestamp=time.time(),
                machine=ref.name,
                iterations=self.iterations,
                seed=self.seed,
                fit_seconds=fit_seconds,
            ).version_id
        except (StoreError, OSError):
            # A broken store must not break serving; the artifact just
            # stays unversioned (no hot-swap for it).
            counter("serve.store.publish_errors").inc()
        self._views.pop(key, None)  # the publish moved latest
        return Artifact(
            key=key,
            ref=ref,
            capability=capability,
            source="fit",
            fit_seconds=fit_seconds,
            version=version,
        )
