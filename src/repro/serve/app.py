"""The capability-model query service.

``ServeApp`` wires the pieces together: an asyncio TCP server speaking
the :mod:`~repro.serve.protocol` framing, a
:class:`~repro.serve.batcher.MicroBatcher` coalescing concurrent
queries, and an :class:`~repro.serve.artifacts.ArtifactRegistry`
keeping fitted models warm.  Endpoints:

========================  ====================================================
``GET /healthz``          liveness — never batched, never shed
``GET /metrics``          JSON snapshot of the :mod:`repro.obs` registry
``POST /v1/predict``      point queries against the fitted model (latency per
                          MESIF state/location, bandwidth, contention,
                          multiline transfers)
``POST /v1/advise``       buffer-placement ranking via ``model.advisor``
``POST /v1/tune``         barrier/tree parameter search (model-pruned; with
                          ``"measured": true`` the empirical
                          ``algorithms.autotune`` loop runs on the simulated
                          machine)
========================  ====================================================

Request flow for the POST endpoints: parse JSON (400 on garbage),
content-address the query with the same SHA-256 scheme as
:mod:`repro.runtime.cache`, and submit it to the batcher under the
endpoint's deadline.  Admission overflow → 429 with ``Retry-After``;
deadline → 504; per-query model errors → 400; anything unexpected →
500 (and ``serve.errors`` ticks).  Every request is wrapped in a
``serve.request`` span and the batch phases in
``serve.batch.assemble`` / ``serve.batch.evaluate`` spans, so a traced
server run shows exactly how queries coalesced.

``/v1/predict`` bodies compile to
:class:`~repro.model.vector.PredictPlan` objects — cached by the same
content key the batcher dedups on — and a coalesced batch of distinct
predict requests against one artifact evaluates as **one** fused NumPy
sweep (:func:`~repro.model.vector.evaluate_plan_values`) inside a
``serve.vector.evaluate`` span.  The compiled plan is the only predict
evaluator and validator: a body that does not compile answers 400 with
the compiler's error.  Its answers are byte-identical to the scalar
reference :func:`~repro.model.vector.predict_one` (golden-tested).
docs/PERFORMANCE.md derives the win and when it saturates.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import math
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ModelError, ReproError
from repro.fields import (
    Choice,
    Field,
    Instance,
    Integer,
    ListOf,
    Nullable,
    Number,
    boolean,
    fail,
    flag,
    read,
    string,
    table,
)
from repro.model.advisor import BUFFER_FIELDS, BufferSpec, recommend_placement
from repro.model.parameters import CapabilityModel
from repro.model.vector import (
    PredictPlan,
    compile_queries,
    evaluate_plan_values,
)
from repro.cache import LRUCache
from repro.obs import counter, gauge, histogram, metrics_snapshot, span
from repro.serve.artifacts import (
    Artifact,
    ArtifactRegistry,
    MachineRef,
    config_from_json,
    machines_response,
)
from repro.serve.batcher import AdmissionError, BatcherClosed, MicroBatcher
from repro.serve.protocol import (
    ProtocolError,
    Request,
    Response,
    content_key,
    route,
    serve_connection,
)
from repro.units import GIB
from repro._version import __version__

#: Endpoint deadlines [s] of the model-query routes, the only ones that
#: queue: predict is interactive, measured tuning may legitimately run
#: benchmark episodes.
DEFAULT_DEADLINES = {
    "/v1/predict": 10.0,
    "/v1/advise": 15.0,
    "/v1/tune": 60.0,
}

#: Largest ``n`` a ``/v1/tune`` body may name, for either target.  The
#: tree tuner is O(n²); a larger ``n`` would hold the evaluate thread
#: long after the route's deadline had answered 504.
MAX_TUNE_N = 1024

#: Most benchmark iterations a measured ``/v1/tune`` barrier may run per
#: candidate arity.  n=256 at 100 iterations took 3.2 s on a 2-vCPU x86
#: host, so the cap keeps a run near 30 s, under the route's deadline.
MAX_TUNE_ITERATIONS = 1000

#: Most episodes (``iterations`` × ``len(arities)``) a measured
#: ``/v1/tune`` barrier with an explicit ``arities`` list may run.  An
#: explicit list may name arities up to n - 1, whose episodes cost more
#: than those of the default list (at most 15 arities, all below 16):
#: n=64 with arities 1..63 at 10 iterations (630 episodes) took 7.8 s
#: on a 2-vCPU x86 host.
MAX_TUNE_EPISODES = 500

#: Compiled predict plans kept warm, LRU by request content key.  A plan
#: is a few hundred bytes of index arrays; 512 covers any realistic
#: distinct-query working set while bounding a key-churning client.
_PLAN_CACHE_SIZE = 512


@dataclass
class ServeConfig:
    """Tunables of one server instance (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Longest a micro-batch waits [s], finite and >= 0: a batch that
    #: holds every model request read so far flushes on the next
    #: event-loop tick anyway; 0 never waits for company.
    window_s: float = 0.002
    max_batch: int = 64
    queue_limit: int = 256
    deadlines: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_DEADLINES)
    )
    #: Fit parameters for cold artifacts.
    iterations: int = 20
    seed: int = 1234
    persist_artifacts: bool = True
    artifact_dir: Optional[str] = None


class _PlanEntry:
    """One plan-cache slot: the compiled plan plus everything else the
    request's bytes determine.

    ``ref`` is the machine the body names, resolved at compile time so a
    cache hit skips ``json.loads`` of the (possibly large) body entirely.
    ``segments`` is the response's static JSON skeleton — every byte of
    ``json.dumps(payload, sort_keys=True)`` except the numeric values —
    pre-rendered once per distinct body, so a hit also skips building
    and sorting thousands of result dicts.
    """

    __slots__ = ("plan", "ref", "segments", "rendered")

    def __init__(self, plan: PredictPlan, ref: MachineRef) -> None:
        import json as _json

        self.plan = plan
        self.ref = ref
        # Memoized (artifact_identity, response_bytes): a capability
        # model is a pure function of its artifact *version*, so the
        # same body against the same version always renders the same
        # bytes.  Keying on identity (slot@version) means a hot swap or
        # canary split invalidates exactly this slot's stale bytes —
        # never the whole cache.  Stored as a single tuple so
        # assignment is atomic across the evaluator threads.
        self.rendered: Optional[Tuple[str, bytes]] = None
        segments = []
        for i, (m, u) in enumerate(zip(plan.metrics, plan.units)):
            segments.append(
                ('}, {"metric": ' if i else '{"metric": ')
                + f'{_json.dumps(m)}, "unit": {_json.dumps(u)}, "value": '
            )
        self.segments = segments

    def render(
        self,
        config_label: str,
        machine_name: Optional[str],
        values: "np.ndarray",
    ) -> bytes:
        """Response body bytes, byte-identical to
        ``json.dumps(payload, sort_keys=True)`` — key order, separators
        and float spelling all match.  Finite values take ``repr``
        (what ``json.dumps`` emits for them); a vector holding a
        non-finite value spells every value through ``json.dumps``
        (``NaN``, ``Infinity``), the rare slow case.
        """
        import json as _json

        spell = repr if np.isfinite(values).all() else _json.dumps
        parts = ['{"config_label": ', _json.dumps(config_label)]
        if machine_name is not None:
            parts.append(', "machine": ')
            parts.append(_json.dumps(machine_name))
        parts.append(', "results": [')
        for segment, value in zip(self.segments, values.tolist()):
            parts.append(segment)
            parts.append(spell(value))
        parts.append("}]}")
        return "".join(parts).encode()


@dataclass
class _Outcome:
    """Evaluator verdict for one unique query.

    The JSON encoding is computed lazily and cached: when 64 deduped
    requests share one outcome, the payload is serialized once, not 64
    times — the response write is the only per-request marginal cost.
    """

    status: int
    payload: Any
    _body: Optional[bytes] = None

    def response(self) -> Response:
        if self._body is None:
            import json as _json

            self._body = _json.dumps(self.payload, sort_keys=True).encode()
        return Response(
            status=self.status,
            headers={"Content-Type": "application/json"},
            body=self._body,
        )


class ServeApp:
    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        registry: Optional[ArtifactRegistry] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.registry = registry or ArtifactRegistry(
            iterations=self.config.iterations,
            seed=self.config.seed,
            directory=self.config.artifact_dir,
            persist=self.config.persist_artifacts,
        )
        self.batcher = MicroBatcher(
            self._evaluate_batch,
            window_s=self.config.window_s,
            max_batch=self.config.max_batch,
            queue_limit=self.config.queue_limit,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._started_at = time.monotonic()
        #: Open connections and requests mid-dispatch — what a graceful
        #: drain has to wait for (and then actively close: on Python
        #: 3.12.1+ ``wait_closed`` waits for connection handlers, so an
        #: idle keep-alive peer would hold shutdown open forever).
        self._conn_writers: set = set()
        self._active_requests = 0
        #: Machine refs by preset name (``None``: the default raw
        #: config) — one catalog read + validation per preset per
        #: process, not per request.
        self._refs: Dict[Optional[str], MachineRef] = {}
        #: One handler per route of :data:`~repro.serve.protocol.ROUTES`.
        #: Admin reload bypasses the batcher entirely: it must not queue
        #: behind (or be deduped with) model traffic.
        self._routes = {
            "/healthz": self._healthz,
            "/metrics": self._metrics,
            "/v1/machines": self._machines,
            "/v1/predict": self._query,
            "/v1/advise": self._query,
            "/v1/tune": self._query,
            "/v1/admin/reload": self._admin_reload,
        }
        #: Compiled predict plans by content key.  A thread-safe
        #: :class:`repro.cache.LRUCache` shared between the event loop
        #: (assemble-phase hits) and evaluator worker threads
        #: (compile-time inserts); a repeat query skips parse, compile,
        #: and response-skeleton rendering entirely.
        self._plan_cache: LRUCache = LRUCache(
            "serve.plan", max_entries=_PLAN_CACHE_SIZE
        )

    # -- lifecycle ----------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            raise ReproError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns ``(host, port)`` with the
        ephemeral port resolved."""
        self._server = await asyncio.start_server(
            functools.partial(
                serve_connection, dispatch=self._dispatch, owner=self
            ),
            self.config.host,
            self.config.port,
        )
        self._started_at = time.monotonic()
        return self.config.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self, drain_grace_s: float = 5.0) -> None:
        """Graceful drain: stop accepting, let admitted work finish.

        Order matters — close the listener first (no new connections),
        then close the batcher (flushes the open window and awaits every
        running batch, so in-flight waiters get their results), then
        wait for the connection handlers to finish *writing* those
        responses before actively closing lingering keep-alive sockets.
        A request arriving mid-drain gets a 503 + ``Retry-After`` via
        the :class:`BatcherClosed` mapping, never a dropped connection.
        """
        gauge("serve.draining").set(1)
        try:
            if self._server is not None:
                self._server.close()
            await self.batcher.close()
            deadline = time.monotonic() + drain_grace_s
            while self._active_requests and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            for writer in list(self._conn_writers):
                writer.close()
            if self._server is not None:
                await self._server.wait_closed()
                self._server = None
        finally:
            gauge("serve.draining").set(0)

    async def warm(
        self,
        config_json: Optional[Mapping] = None,
        machine: Optional[str] = None,
    ) -> Artifact:
        """Pre-fit the default (or given) machine before binding.

        ``machine`` names a catalog preset instead of a raw config —
        the two are mutually exclusive, as on the wire.
        """
        return await self.registry.get(self.ref_for(machine, config_json))

    def ref_for(self, machine: Any, config: Any) -> MachineRef:
        """The :class:`MachineRef` a body's ``machine``/``config`` fields
        name; a :class:`~repro.errors.ReproError` (400) for a bad pair or
        value."""
        if machine is not None:
            if config is not None:
                raise ProtocolError(
                    "'machine' and 'config' are mutually exclusive; name a "
                    "catalog preset or describe a raw config, not both"
                )
            string("machine", machine)
        elif config is not None:
            return MachineRef(config_from_json(config))
        ref = self._refs.get(machine)
        if ref is None:
            if machine is None:
                ref = MachineRef(config_from_json(None))
            else:
                from repro.machines import get_machine

                ref = MachineRef.of(get_machine(machine))
            self._refs[machine] = ref
        return ref

    async def _machines(self, request: Request) -> Response:
        """``GET /v1/machines``: the catalog, with warm/cold status."""

        def status_of(ref: MachineRef) -> Dict[str, Any]:
            key = self.registry.key_for(ref)
            return {
                "warm": self.registry.is_warm(key),
                "version": self.registry.active_version(key),
            }

        return machines_response(status_of)

    # -- dispatch -----------------------------------------------------------

    async def _dispatch(self, request: Request) -> Response:
        counter("serve.requests").inc()
        t0 = time.perf_counter()
        with span(
            "serve.request",
            category="serve",
            method=request.method,
            route=request.route,
        ) as sp:
            response = await route(request, self._routes)
            sp.set(status=response.status)
        histogram("serve.latency_ms", unit="ms").observe(
            (time.perf_counter() - t0) * 1e3
        )
        counter(f"serve.http.{response.status // 100}xx").inc()
        return response

    async def _metrics(self, request: Request) -> Response:
        return Response.json({"metrics": metrics_snapshot()})

    async def _admin_reload(self, request: Request) -> Response:
        """``POST /v1/admin/reload``: hot-swap to the store's manifest.

        Re-reads the version manifest and atomically swaps each slot's
        active artifact.  Runs in a worker thread (manifest + version
        reads are disk I/O) while in-flight batches keep evaluating on
        the artifacts they already hold — the swap drops no work.
        """
        try:
            summary = await asyncio.to_thread(self.registry.reload)
        except ReproError as e:
            counter("serve.errors").inc()
            return Response.error(500, f"reload failed: {e}")
        return Response.json({"status": "ok", "slots": summary})

    async def _healthz(self, request: Request) -> Response:
        return Response.json(
            {
                "status": "ok",
                "version": __version__,
                "uptime_s": round(time.monotonic() - self._started_at, 3),
                "artifacts_warm": len(self.registry),
                "queue_depth": self.batcher.depth,
            }
        )

    async def _query(self, request: Request) -> Response:
        # Reached in the same loop step that read the request: announce
        # it, so the open batch waits for it instead of flushing without.
        ticket = self.batcher.expect()
        route = request.route
        # Dedup key: the raw wire bytes' content key.  Byte-identical
        # queries — the coalescing case that matters — always collide;
        # the body is parsed once per *unique* query, in the evaluator.
        key = content_key(route, request.body)
        item = {"endpoint": route, "raw": request.body}
        deadline = self.config.deadlines.get(
            route, DEFAULT_DEADLINES.get(route, 30.0)
        )
        try:
            outcome = await asyncio.wait_for(
                self.batcher.submit(key, item, ticket), timeout=deadline
            )
        except AdmissionError as e:
            return Response.error(
                429,
                str(e),
                headers={
                    "Retry-After": f"{max(1, round(e.retry_after_s)):d}"
                },
            )
        except BatcherClosed:
            # A submit racing shutdown: the server is draining, not
            # broken.  503 + Retry-After tells the client (and the fleet
            # front end) to try again — as a plain ReproError this used
            # to masquerade as a 400 "model error".
            counter("serve.draining.rejected").inc()
            return Response.error(
                503,
                "server is draining; retry against a live instance",
                headers={"Retry-After": "1"},
            )
        except asyncio.TimeoutError:
            counter("serve.timeouts").inc()
            return Response.error(
                504, f"deadline of {deadline:g}s exceeded for {route}"
            )
        finally:
            # wait_for runs submit in a task of its own; one cancelled
            # before its first step (a zero deadline, shutdown) never
            # retired the ticket.
            self.batcher.retire(ticket)
        return outcome.response()

    # -- batch evaluation ---------------------------------------------------

    async def _evaluate_batch(
        self, batch: Dict[str, Any]
    ) -> Dict[str, _Outcome]:
        """Evaluate one coalesced batch of unique queries.

        Two phases: *assemble* resolves each distinct machine config to a
        warm artifact (async — a cold config triggers a single-flighted
        fit in a worker thread), *evaluate* runs the pure model
        arithmetic for every query in one worker thread so the event
        loop keeps answering ``/healthz`` under load.
        """
        artifacts: Dict[str, Artifact] = {}
        refs: Dict[str, MachineRef] = {}
        bodies: Dict[str, Dict[str, Any]] = {}
        errors: Dict[str, _Outcome] = {}
        plans: Dict[str, _PlanEntry] = {}
        with span("serve.batch.assemble", category="serve", size=len(batch)):
            for key, item in batch.items():
                entry = (
                    self._plan_hit(key)
                    if item["endpoint"] == "/v1/predict"
                    else None
                )
                try:
                    if entry is not None:
                        # Plan-cache hit: the request's bytes were seen
                        # before, so the compiled plan already carries
                        # the machine ref — no json.loads at all.
                        plans[key] = entry
                        ref = entry.ref
                    else:
                        body = bodies[key] = _parse_body(item["raw"])
                        ref = refs[key] = self.ref_for(
                            body.get("machine"), body.get("config")
                        )
                    # The content key rides along so the registry can
                    # route the query over a live canary's VersionRing.
                    artifacts[key] = await self.registry.get(ref, key)
                except ProtocolError as e:
                    errors[key] = _error_outcome(e.status, str(e))
                except ReproError as e:
                    errors[key] = _error_outcome(400, str(e))
                except Exception as e:  # noqa: BLE001 — fit blew up
                    counter("serve.errors").inc()
                    errors[key] = _error_outcome(
                        500, f"artifact fit failed: {e}"
                    )

        def evaluate() -> Dict[str, _Outcome]:
            out: Dict[str, _Outcome] = dict(errors)
            vector: List[Tuple[str, _PlanEntry, Artifact]] = []
            for key, item in batch.items():
                if key in out:
                    continue
                if item["endpoint"] != "/v1/predict":
                    out[key] = self._evaluate_one(
                        item["endpoint"], bodies[key], artifacts[key]
                    )
                    continue
                entry = plans.get(key)
                if entry is None:
                    try:
                        entry = self._plan_compile(
                            key, bodies[key], refs[key]
                        )
                    except ModelError as e:
                        out[key] = _error_outcome(400, str(e))
                        continue
                    except Exception as e:  # noqa: BLE001 — isolate body
                        counter("serve.errors").inc()
                        out[key] = _error_outcome(
                            500, f"internal error: {e}"
                        )
                        continue
                vector.append((key, entry, artifacts[key]))
            if vector:
                self._evaluate_vector(vector, out)
            return out

        return await asyncio.to_thread(evaluate)

    # -- compiled predict path ----------------------------------------------

    def _plan_hit(self, content_key: str) -> Optional[_PlanEntry]:
        entry = self._plan_cache.get(content_key)
        if entry is not None:
            counter("serve.vector.plan_cache.hits").inc()
        return entry

    def _plan_compile(
        self, content_key: str, body: Mapping, ref: MachineRef
    ) -> _PlanEntry:
        """Compile a predict body into a cached :class:`_PlanEntry`.

        Raises the compiler's :class:`~repro.errors.ModelError` for a
        body whose queries do not compile; nothing is cached then.
        """
        entry = self._plan_hit(content_key)
        if entry is not None:
            return entry
        counter("serve.vector.plan_cache.misses").inc()
        plan = compile_queries(body.get("queries"))
        entry = _PlanEntry(plan, ref)
        self._plan_cache.put(content_key, entry)
        return entry

    def _evaluate_vector(
        self,
        items: List[Tuple[str, _PlanEntry, Artifact]],
        out: Dict[str, _Outcome],
    ) -> None:
        """Fused evaluation of every compiled predict query in a batch.

        Plans are grouped by artifact (a mixed-machine window carries
        one group per preset) and each group dispatches as **one**
        :func:`~repro.model.vector.evaluate_plan_values` sweep, whose
        value vectors render straight into response bytes through the
        plans' pre-built JSON skeletons.  A plan the artifact's model
        cannot answer (unfitted state/kind/location) answers with the
        first such error, as :meth:`~repro.model.vector.PredictPlan.check`
        raises it.
        """
        groups: "OrderedDict[str, List[Tuple[str, _PlanEntry, Artifact]]]"
        groups = OrderedDict()
        for key, entry, artifact in items:
            # Group (and cache rendered bytes) by *identity*, not slot:
            # during a canary split or right after a hot swap one slot
            # legitimately serves two versions in the same window, and
            # their responses must never share a fused sweep or bytes.
            groups.setdefault(artifact.identity, []).append(
                (key, entry, artifact)
            )
        for group in groups.values():
            artifact = group[0][2]
            cap = artifact.capability
            ready: List[Tuple[str, _PlanEntry]] = []
            for key, entry, _art in group:
                cached = entry.rendered
                if cached is not None and cached[0] == artifact.identity:
                    counter("serve.vector.render_cache.hits").inc()
                    out[key] = _Outcome(
                        status=200, payload=None, _body=cached[1]
                    )
                    continue
                try:
                    entry.plan.check(cap)
                except ModelError as e:
                    out[key] = _error_outcome(400, str(e))
                    continue
                ready.append((key, entry))
            if not ready:
                continue
            n_queries = sum(e.plan.n_queries for _k, e in ready)
            with span(
                "serve.vector.evaluate",
                category="serve",
                plans=len(ready),
                queries=n_queries,
            ):
                values = evaluate_plan_values(
                    cap, [e.plan for _k, e in ready]
                )
            counter("serve.vector.batches").inc()
            counter("serve.vector.plans").inc(len(ready))
            counter("serve.vector.queries").inc(n_queries)
            histogram("serve.vector.fused_queries").observe(n_queries)
            for (key, entry), vals in zip(ready, values):
                body = entry.render(cap.config_label, artifact.machine, vals)
                entry.rendered = (artifact.identity, body)
                out[key] = _Outcome(status=200, payload=None, _body=body)

    def _evaluate_one(
        self, endpoint: str, body: Mapping, artifact: Artifact
    ) -> _Outcome:
        """Answer one ``/v1/advise`` or ``/v1/tune`` body."""
        try:
            if endpoint == "/v1/advise":
                payload = _handle_advise(artifact.capability, body)
            else:
                payload = _handle_tune(
                    artifact.capability,
                    body,
                    lambda: self.registry.machine_for(artifact),
                )
            if artifact.machine is not None:
                payload["machine"] = artifact.machine
            return _Outcome(status=200, payload=payload)
        except ProtocolError as e:
            return _error_outcome(e.status, str(e))
        except ReproError as e:
            return _error_outcome(400, str(e))
        except Exception as e:  # noqa: BLE001 — surface, don't crash batch
            counter("serve.errors").inc()
            return _error_outcome(500, f"internal error: {e}")


def _error_outcome(status: int, message: str) -> _Outcome:
    return _Outcome(
        status=status,
        payload={"error": {"status": status, "message": message}},
    )


def _parse_body(raw: bytes) -> Dict[str, Any]:
    """The request's JSON object; :class:`ProtocolError` (400) otherwise."""
    import json as _json

    try:
        body = _json.loads(raw) if raw else None
    except (ValueError, RecursionError) as e:  # RecursionError: deep nesting
        raise ProtocolError(f"request body is not valid JSON: {e}") from e
    if not isinstance(body, dict):
        raise ProtocolError("request body must be a JSON object")
    return body


# -- endpoint handlers (pure: capability model in, JSON out) ----------------


#: ``/v1/advise`` body fields; each buffer's are
#: :data:`~repro.model.advisor.BUFFER_FIELDS`.
ADVISE_FIELDS = table(
    Field("buffers", ListOf(Instance(dict, "a JSON object"))),
    Field("mcdram_capacity", Integer(lo=0, float64=True), 16 * GIB),
)

_TUNE_TARGET = Field("target", Choice("barrier", "tree"), "barrier")
_TUNE_N = Field("n", Integer(lo=1, hi=MAX_TUNE_N))

#: ``/v1/tune`` body fields of the model-priced Eq. (1) tree.
TUNE_TREE_FIELDS = table(
    _TUNE_TARGET,
    _TUNE_N,
    Field("max_degree", Nullable(Integer(lo=1, float64=True))),
    Field("payload_bytes", Integer(lo=0, float64=True), 64),
    Field("is_reduce", boolean, False),
)

#: ``/v1/tune`` body fields of the model-priced dissemination barrier.
TUNE_BARRIER_FIELDS = table(
    _TUNE_TARGET, _TUNE_N, Field("measured", boolean, False)
)

#: ``/v1/tune`` body fields of the measured barrier (``"measured": true``).
#: ``arities`` must also be distinct and below ``n``, and ask for at most
#: ``MAX_TUNE_EPISODES`` episodes.
TUNE_MEASURED_FIELDS = table(
    *TUNE_BARRIER_FIELDS.values(),
    Field("iterations", Integer(lo=1, hi=MAX_TUNE_ITERATIONS), 10),
    Field("margin", Number(lo=0, hi=10), 0.25),
    Field("arities", Nullable(ListOf(Integer(lo=1)))),
)


def _handle_advise(cap: CapabilityModel, body: Mapping) -> dict:
    fields = read(ADVISE_FIELDS, body)
    specs = [
        BufferSpec(**{n: b.get(n, f.default) for n, f in BUFFER_FIELDS.items()})
        for b in fields["buffers"]
    ]
    capacity = fields["mcdram_capacity"]
    placement = recommend_placement(cap, specs, mcdram_capacity=capacity)
    used = sum(
        s.size_bytes
        for s in specs
        if placement.assignments[s.name] == "mcdram"
    )
    return {
        "config_label": cap.config_label,
        "assignments": placement.assignments,
        "predicted_ns": placement.predicted_ns,
        "all_ddr_ns": placement.all_ddr_ns,
        "predicted_speedup": placement.predicted_speedup,
        "mcdram_capacity": capacity,
        "mcdram_bytes_used": used,
    }


def _handle_tune(cap: CapabilityModel, body: Mapping, machine_provider) -> dict:
    if _TUNE_TARGET.read(body) == "tree":
        from repro.algorithms.tree_opt import tune_tree

        fields = read(TUNE_TREE_FIELDS, body)
        n = fields["n"]
        tuned = tune_tree(
            cap,
            n,
            payload_bytes=fields["payload_bytes"],
            is_reduce=fields["is_reduce"],
            max_degree=fields["max_degree"],
        )
        return {
            "target": "tree",
            "mode": "model",
            "n": n,
            "root_degree": tuned.tree.root.degree,
            "depth": tuned.tree.root.depth(),
            "best_ns": tuned.model.best_ns,
            "worst_ns": tuned.model.worst_ns,
        }
    fields = read(TUNE_BARRIER_FIELDS, body)
    if fields["measured"]:
        return _tune_barrier_measured(
            cap, read(TUNE_MEASURED_FIELDS, body), machine_provider
        )
    from repro.algorithms.barrier import tune_barrier

    n = fields["n"]
    tuned = tune_barrier(cap, n)
    return {
        "target": "barrier",
        "mode": "model",
        "n": n,
        "arity": tuned.arity,
        "rounds": tuned.rounds,
        "best_ns": tuned.model.best_ns,
        "worst_ns": tuned.model.worst_ns,
    }


def _tune_barrier_measured(
    cap: CapabilityModel, fields: Mapping, machine_provider
) -> dict:
    from repro.algorithms.autotune import autotune_barrier

    n, iterations = fields["n"], fields["iterations"]
    arities = fields["arities"]
    if arities is not None:
        if max(arities) >= n:
            raise fail("arities", arities, f"must name arities below n = {n}")
        if len(set(arities)) != len(arities):
            raise fail("arities", arities, "must not repeat an arity")
        if iterations * len(arities) > MAX_TUNE_EPISODES:
            raise fail(
                "arities", arities,
                f"times 'iterations' = {iterations} must be at most "
                f"{MAX_TUNE_EPISODES} episodes",
            )
    result = autotune_barrier(
        machine_provider(),
        cap,
        threads=list(range(n)),
        arities=arities,
        margin=fields["margin"],
        iterations=iterations,
    )
    return {
        "target": "barrier",
        "mode": "measured",
        "n": n,
        "winner": result.winner.label,
        "winner_measured_ns": result.winner.measured_ns,
        "measured_fraction": result.measured_fraction,
        "candidates": [
            {
                "label": c.label,
                "model_ns": c.model_ns,
                "measured_ns": c.measured_ns,
            }
            for c in result.candidates
        ],
    }


# -- CLI: `repro serve` ------------------------------------------------------


#: ``--window-ms``, a count or size flag, and a ``--deadline``'s seconds.
_window_ms = flag(float, lambda ms: math.isfinite(ms) and ms >= 0,
                  "a finite number >= 0")
_count = flag(int, lambda n: n >= 1, "an integer >= 1")
_seconds = flag(float, lambda t: math.isfinite(t) and t > 0,
                "a finite number > 0")


def _deadline_spec(spec: str) -> Tuple[str, float]:
    """``--deadline ROUTE=SECONDS`` → ``(route, seconds)``; anything but a
    POST route with finite seconds > 0 is a usage error."""
    route, sep, text = spec.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"wants ROUTE=SECONDS, got {spec!r}"
        )
    if route not in DEFAULT_DEADLINES:
        raise argparse.ArgumentTypeError(
            f"unknown route {route!r} (one of {', '.join(DEFAULT_DEADLINES)})"
        )
    return route, _seconds(text)


def build_serve_parser():
    p = argparse.ArgumentParser(
        prog="repro-knl serve",
        description=(
            "Serve the fitted capability model over HTTP: /v1/predict, "
            "/v1/advise, /v1/tune, /healthz, /metrics."
        ),
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8080,
        help="TCP port (0 = ephemeral, printed on startup; default 8080)",
    )
    p.add_argument(
        "--workers", type=_count, default=1, metavar="N",
        help="worker processes; N > 1 runs a prefork fleet with "
             "consistent-hash routing by query content key "
             "(default 1 = single process)",
    )
    batching = p.add_argument_group("micro-batching")
    batching.add_argument(
        "--window-ms", type=_window_ms, default=2.0, metavar="MS",
        help="longest a batch waits (default 2 ms)",
    )
    batching.add_argument(
        "--batch-cap", type=_count, default=64, metavar="N",
        help="max requests riding one batch, duplicates included; a "
             "full batch flushes without waiting the window "
             "(default 64)",
    )
    admission = p.add_argument_group("admission control")
    admission.add_argument(
        "--queue-limit", type=_count, default=256, metavar="N",
        help="max admitted-but-unresolved requests before shedding "
             "with 429 (default 256)",
    )
    admission.add_argument(
        "--deadline", action="append", default=None, metavar="ROUTE=SECONDS",
        type=_deadline_spec,
        help="per-endpoint deadline override, e.g. --deadline "
             "/v1/predict=2.5 (repeatable; ROUTE is one of "
             f"{', '.join(DEFAULT_DEADLINES)}, SECONDS finite and > 0)",
    )
    artifacts = p.add_argument_group("artifacts")
    artifacts.add_argument(
        "--iterations", type=_count, default=20, metavar="N",
        help="benchmark iterations when fitting a cold artifact "
             "(default 20)",
    )
    artifacts.add_argument("--seed", type=int, default=1234)
    artifacts.add_argument(
        "--artifact-dir", default=None, metavar="DIR",
        help="artifact store (default: <cache root>/serve/artifacts)",
    )
    artifacts.add_argument(
        "--no-persist", action="store_true",
        help="don't write fitted artifacts to disk",
    )
    artifacts.add_argument(
        "--no-warm", action="store_true",
        help="skip pre-fitting the default SNC4-flat artifact at startup",
    )
    p.add_argument("--quiet", action="store_true")
    return p


def _config_from_args(args) -> ServeConfig:
    deadlines = {**DEFAULT_DEADLINES, **dict(args.deadline or ())}
    return ServeConfig(
        host=args.host,
        port=args.port,
        window_s=args.window_ms / 1e3,
        max_batch=args.batch_cap,
        queue_limit=args.queue_limit,
        deadlines=deadlines,
        iterations=args.iterations,
        seed=args.seed,
        persist_artifacts=not args.no_persist,
        artifact_dir=args.artifact_dir,
    )


async def wait_for_stop() -> None:
    """Return once SIGTERM or SIGINT arrives.

    SIGTERM — what an init system, container runtime, or the fleet
    supervisor sends — must run the same drain path as Ctrl+C.
    """
    import signal

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    await stop.wait()


def main_serve(argv=None) -> int:
    """Entry point of ``repro serve``."""
    args = build_serve_parser().parse_args(argv)

    if args.workers > 1:
        # Prefork fleet: N worker processes behind a consistent-hash
        # routing front end (docs/SERVING.md, "Scaling out").
        from repro.serve.fleet import fleet_config_from_args, run_fleet

        return asyncio.run(
            run_fleet(fleet_config_from_args(args), quiet=args.quiet)
        )

    config = _config_from_args(args)

    async def run() -> None:
        app = ServeApp(config)
        if not args.no_warm:
            if not args.quiet:
                print(
                    f"[serve] fitting default artifact "
                    f"({config.iterations} iterations)...",
                    flush=True,
                )
            await app.warm()
        host, port = await app.start()
        if not args.quiet:
            mode = (
                "batching off"
                if config.window_s == 0
                else f"window {config.window_s * 1e3:g} ms, "
                     f"cap {config.max_batch}"
            )
            print(
                f"[serve] listening on http://{host}:{port} ({mode}, "
                f"queue limit {config.queue_limit})",
                flush=True,
            )
        await wait_for_stop()
        if not args.quiet:
            print("[serve] draining...", flush=True)
        await app.stop()
        if not args.quiet:
            print("[serve] drained; bye", flush=True)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass  # second Ctrl+C mid-drain: exit without finishing drain
    return 0
