"""Prefork worker fleet: N serving processes behind one routing front end.

The paper's SNC2/SNC4 cluster modes scale the KNL memory system by
partitioning the mesh into sub-NUMA domains and keeping each core's
traffic inside its own domain.  The fleet applies the same shape to the
query service: N worker processes each run a complete
:class:`~repro.serve.app.ServeApp` (own event loop, own
:class:`~repro.serve.batcher.MicroBatcher`, own warm
:class:`~repro.serve.artifacts.ArtifactRegistry`), and the front end
routes every POST by the query's SHA-256 content key over the
:class:`~repro.serve.router.HashRing` — identical queries always land
on the same worker, so dedup and single-flight keep paying off
fleet-wide instead of being diluted across processes.

Supervision mirrors :mod:`repro.runtime.supervisor`: the front end
probes each worker's ``/healthz``, declares a worker down after
``health_misses`` consecutive failures (or the moment its process
dies), takes it off the ring — only its keys move — and restarts it
under the same exponential-backoff :class:`RetryPolicy` the experiment
scheduler uses, quarantining a worker that keeps crashing.  Graceful
shutdown propagates SIGTERM: the front end stops accepting, waits for
in-flight proxied requests, then signals the workers, each of which
drains its batcher through the ordinary ``ServeApp.stop`` path before
exiting — zero admitted requests are dropped.

Workers are forked *before* the front listener binds (no fd
inheritance) and talk to the parent once, over a pipe, to report their
ephemeral port; the parent pre-fits the default artifact exactly once
and ships the fitted model to every worker, so a 4-worker fleet costs
one fit, not four.

``/metrics`` on the front end aggregates every worker's snapshot under
``name{worker="w0"}``-style labeled keys next to the front end's own
``serve.fleet.*`` counters; ``/healthz`` reports per-worker states and
is only 200 while at least one worker is up.
"""

from __future__ import annotations

import asyncio
import functools
import json
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.obs import counter, gauge, histogram, metrics_snapshot, span
from repro.runtime.pool import _mp_context
from repro.runtime.supervisor import RetryPolicy
from repro.serve.app import (
    DEFAULT_DEADLINES,
    ServeApp,
    ServeConfig,
    wait_for_stop,
)
from repro.serve.artifacts import MachineRef, machines_response
from repro.serve.protocol import (
    Request,
    Response,
    content_key,
    route,
    serve_connection,
)
from repro.serve.router import HashRing, WorkerClient
from repro._version import __version__

#: What a round-trip to a worker raises when the worker is gone or stuck.
_TRANSPORT_ERRORS = (
    OSError, asyncio.TimeoutError, asyncio.IncompleteReadError
)

#: Worker lifecycle states (reported verbatim in ``/healthz``).
BOOTING = "booting"
UP = "up"
BACKOFF = "backoff"
QUARANTINED = "quarantined"
STOPPED = "stopped"


@dataclass
class FleetConfig:
    """Tunables of the front end and its supervision policy."""

    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 0
    #: Template for each worker's ``ServeApp`` (host/port are overridden
    #: with loopback + an ephemeral port per worker).
    worker: ServeConfig = field(default_factory=ServeConfig)
    #: Health probe cadence / timeout; ``health_misses`` consecutive
    #: failed probes declare the worker down.
    health_interval_s: float = 0.25
    health_timeout_s: float = 2.0
    health_misses: int = 3
    #: Restart policy — same semantics as experiment retries: a worker
    #: that has crashed ``max_attempts`` times without a ``stable_s``
    #: quiet period in between is quarantined.
    restart: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_attempts=5, backoff_s=0.25, backoff_factor=2.0
        )
    )
    #: A worker up this long has its crash count forgiven.
    stable_s: float = 5.0
    boot_timeout_s: float = 60.0
    #: How long `stop()` waits for in-flight proxied requests, and then
    #: for the workers themselves, before escalating to SIGKILL.
    drain_grace_s: float = 10.0
    #: Virtual ring points per worker (see :class:`HashRing`).
    replicas: int = 64
    #: Pre-fit the default artifact once in the parent and ship it to
    #: every worker, so boot costs one fit total.
    warm: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("fleet needs >= 1 worker")
        if self.health_misses < 1:
            raise ConfigurationError("health_misses must be >= 1")


# -- worker child process ----------------------------------------------------


def _worker_main(name: str, config: ServeConfig, warm_model, conn) -> None:
    """Child-process entry: one complete ServeApp on an ephemeral port.

    Runs in a forked process — metrics are reset first (fork copies the
    parent's registry, and each worker's snapshot must describe only
    its own traffic) and a fresh event loop is created by
    ``asyncio.run``; the parent's inherited loop object is never
    touched.
    """
    from repro.obs import reset_metrics

    reset_metrics()
    try:
        asyncio.run(_worker_async(name, config, warm_model, conn))
    except KeyboardInterrupt:
        pass


async def _worker_async(name: str, config: ServeConfig, warm_model, conn) -> None:
    app = ServeApp(config)
    try:
        if warm_model is not None:
            from repro.model.parameters import CapabilityModel

            app.registry.preload(
                app.ref_for(None, None),
                CapabilityModel.from_dict(warm_model),
            )
        host, port = await app.start()
    except BaseException as e:  # noqa: BLE001 — report, then die
        try:
            conn.send(("error", f"{type(e).__name__}: {e}"))
        finally:
            conn.close()
        raise
    conn.send(("ok", port))
    conn.close()

    await wait_for_stop()
    # The ordinary drain path: refuse new work, flush the batcher,
    # finish writing every admitted response, then exit 0.
    await app.stop()


@dataclass
class _Worker:
    """Parent-side handle of one worker process."""

    name: str
    process: Any
    conn: Any
    state: str = BOOTING
    port: int = 0
    client: Optional[WorkerClient] = None
    #: Consecutive crashes without a stable period (the retry attempt
    #: number fed to the RetryPolicy).
    failures: int = 0
    #: Consecutive failed health probes.
    misses: int = 0
    retry_at: float = 0.0
    up_since: float = 0.0


# -- the front end -----------------------------------------------------------


class Fleet:
    """Routing front end + supervisor of ``config.workers`` processes."""

    def __init__(self, config: Optional[FleetConfig] = None,
                 warm_model: Optional[Dict[str, Any]] = None) -> None:
        self.config = config or FleetConfig()
        #: ``CapabilityModel.to_dict()`` to preload into every worker
        #: (tests inject a pre-fitted model here; ``start`` fits one if
        #: warm is on and nothing was injected).
        self._warm_model = warm_model
        self._mp = _mp_context()
        self._ring = HashRing(replicas=self.config.replicas)
        self._workers: Dict[str, _Worker] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._health_task: Optional[asyncio.Task] = None
        self._restart_tasks: Set[asyncio.Task] = set()
        self._conn_writers: Set[asyncio.StreamWriter] = set()
        self._active_requests = 0
        self._draining = False
        self._spawned = 0
        #: One handler per route of :data:`~repro.serve.protocol.ROUTES`;
        #: model queries relay to their content key's worker.
        self._routes = {
            "/healthz": self._healthz,
            "/metrics": self._metrics,
            "/v1/machines": self._machines,
            "/v1/predict": self._forward,
            "/v1/advise": self._forward,
            "/v1/tune": self._forward,
            "/v1/admin/reload": self._admin_reload,
        }

    # -- introspection ------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            raise ReproError("fleet front end is not started")
        return self._server.sockets[0].getsockname()[1]

    def worker_states(self) -> Dict[str, str]:
        return {name: w.state for name, w in sorted(self._workers.items())}

    def up_workers(self) -> List[_Worker]:
        return [w for w in self._workers.values() if w.state == UP]

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Fit, fork, health-check, bind; returns ``(host, port)``."""
        if self.config.warm and self._warm_model is None:
            self._warm_model = await self._prefit()
        # Fork every worker before the front listener binds so no child
        # inherits the listening socket.
        for _ in range(self.config.workers):
            self._spawn()
        boots = await asyncio.gather(
            *(self._await_boot(w) for w in self._workers.values())
        )
        if not all(boots):
            failed = [
                w.name
                for w, ok in zip(self._workers.values(), boots)
                if not ok
            ]
            await self.stop()
            raise ReproError(f"worker(s) failed to boot: {failed}")
        self._server = await asyncio.start_server(
            functools.partial(
                serve_connection, dispatch=self._dispatch, owner=self
            ),
            self.config.host,
            self.config.port,
        )
        self._health_task = asyncio.create_task(self._health_loop())
        return self.config.host, self.port

    async def _prefit(self) -> Dict[str, Any]:
        """Fit the default artifact once, in the parent, exactly as a
        worker's own ``ServeApp`` would."""
        artifact = await ServeApp(self.config.worker).warm()
        return artifact.capability.to_dict()

    def _spawn(self) -> _Worker:
        name = f"w{self._spawned}"
        self._spawned += 1
        parent_conn, child_conn = self._mp.Pipe(duplex=False)
        wc = replace(self.config.worker, host="127.0.0.1", port=0)
        process = self._mp.Process(
            target=_worker_main,
            args=(name, wc, self._warm_model, child_conn),
            daemon=True,
            name=f"repro-serve-{name}",
        )
        process.start()
        child_conn.close()
        counter("serve.fleet.spawns").inc()
        worker = _Worker(name=name, process=process, conn=parent_conn)
        self._workers[name] = worker
        return worker

    async def _await_boot(self, worker: _Worker) -> bool:
        """Wait for the worker's port report + a first green healthz."""
        deadline = time.monotonic() + self.config.boot_timeout_s
        while time.monotonic() < deadline:
            if worker.conn.poll():
                try:
                    verdict, detail = worker.conn.recv()
                except (EOFError, OSError):
                    return False
                if verdict != "ok":
                    return False
                worker.port = int(detail)
                worker.client = WorkerClient("127.0.0.1", worker.port)
                if not await self._healthy(worker):
                    return False
                self._mark_up(worker)
                return True
            if not worker.process.is_alive():
                return False
            await asyncio.sleep(0.02)
        return False

    def _mark_up(self, worker: _Worker) -> None:
        worker.state = UP
        worker.misses = 0
        worker.up_since = time.monotonic()
        self._ring.add(worker.name)
        gauge("serve.fleet.workers.up").set(len(self.up_workers()))

    async def stop(self) -> None:
        """Graceful drain: stop accepting, finish in-flight proxied
        requests, SIGTERM the workers (each drains its batcher), join."""
        if self._draining:
            return
        self._draining = True
        gauge("serve.draining").set(1)
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        for task in list(self._restart_tasks):
            task.cancel()
        if self._server is not None:
            self._server.close()
        # In-flight proxied requests complete against still-live workers.
        deadline = time.monotonic() + self.config.drain_grace_s
        while self._active_requests and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        for worker in self._workers.values():
            if worker.process.is_alive():
                worker.process.terminate()  # SIGTERM → worker drain path
        for worker in self._workers.values():
            budget = max(0.1, deadline - time.monotonic())
            await asyncio.to_thread(worker.process.join, budget)
            if worker.process.is_alive():
                worker.process.kill()
                await asyncio.to_thread(worker.process.join, 1.0)
            worker.state = STOPPED
            if worker.client is not None:
                await worker.client.close()
        gauge("serve.fleet.workers.up").set(0)
        # Nudge lingering keep-alive clients closed: on 3.12.1+
        # ``wait_closed`` waits for connection handlers, and an idle
        # keep-alive peer would otherwise hold the drain open forever.
        for writer in list(self._conn_writers):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        gauge("serve.draining").set(0)

    # -- supervision --------------------------------------------------------

    async def _health_loop(self) -> None:
        cfg = self.config
        while not self._draining:
            await asyncio.sleep(cfg.health_interval_s)
            now = time.monotonic()
            for worker in list(self._workers.values()):
                if worker.state == UP:
                    if not worker.process.is_alive():
                        self._declare_down(worker, "process died")
                        continue
                    if (
                        worker.failures
                        and now - worker.up_since >= cfg.stable_s
                    ):
                        worker.failures = 0  # stability forgives crashes
                    await self._probe(worker)
                elif worker.state == BACKOFF and now >= worker.retry_at:
                    worker.state = BOOTING
                    task = asyncio.create_task(self._restart(worker))
                    self._restart_tasks.add(task)
                    task.add_done_callback(self._restart_tasks.discard)

    async def _healthy(self, worker: _Worker) -> bool:
        """One ``/healthz`` probe: answered 200 within the timeout."""
        assert worker.client is not None
        try:
            status, _, _ = await worker.client.request_bytes(
                "GET", "/healthz", timeout=self.config.health_timeout_s
            )
        except _TRANSPORT_ERRORS:
            return False
        return status == 200

    async def _probe(self, worker: _Worker) -> None:
        if await self._healthy(worker):
            worker.misses = 0
        else:
            worker.misses += 1
            if worker.misses >= self.config.health_misses:
                self._declare_down(
                    worker, f"{worker.misses} failed health probes"
                )

    def _declare_down(self, worker: _Worker, reason: str) -> None:
        """Take a worker off the ring and schedule (or refuse) a restart."""
        if worker.state not in (UP, BOOTING):
            return
        counter("serve.fleet.crashes").inc()
        self._ring.remove(worker.name)
        worker.misses = 0
        worker.failures += 1
        if worker.process.is_alive():
            worker.process.kill()  # hung, not dead: make it dead
        if worker.client is not None:
            client, worker.client = worker.client, None
            task = asyncio.get_running_loop().create_task(client.close())
            self._restart_tasks.add(task)
            task.add_done_callback(self._restart_tasks.discard)
        gauge("serve.fleet.workers.up").set(len(self.up_workers()))
        if self.config.restart.should_retry(worker.failures):
            worker.state = BACKOFF
            backoff = self.config.restart.backoff(worker.failures)
            worker.retry_at = time.monotonic() + backoff
        else:
            worker.state = QUARANTINED
            counter("serve.fleet.quarantined").inc()

    async def _restart(self, worker: _Worker) -> None:
        """Replace a declared-down worker with a fresh process."""
        old_name = worker.name
        fresh = self._spawn()
        # The fresh process inherits the dead worker's ring identity and
        # crash history; the dead handle is dropped.
        self._workers.pop(fresh.name, None)
        self._workers[old_name] = fresh
        fresh.name = old_name
        fresh.failures = worker.failures
        if await self._await_boot(fresh):
            counter("serve.fleet.restarts").inc()
        else:
            self._declare_down(fresh, "restart failed to boot")

    # -- proxying -----------------------------------------------------------

    async def _dispatch(self, request: Request) -> Response:
        counter("serve.fleet.requests").inc()
        t0 = time.perf_counter()
        with span(
            "serve.fleet.request",
            category="serve",
            method=request.method,
            route=request.route,
        ) as sp:
            response = await route(request, self._routes)
            sp.set(status=response.status)
        histogram("serve.fleet.proxy_ms", unit="ms").observe(
            (time.perf_counter() - t0) * 1e3
        )
        return response

    async def _healthz(self, request: Request) -> Response:
        states = self.worker_states()
        up = sum(1 for s in states.values() if s == UP)
        if self._draining:
            status_word, http = "draining", 503
        elif up == len(states) and up > 0:
            status_word, http = "ok", 200
        elif up > 0:
            status_word, http = "degraded", 200
        else:
            status_word, http = "unavailable", 503
        return Response.json(
            {
                "status": status_word,
                "version": __version__,
                "fleet": {"workers": states, "up": up},
            },
            status=http,
        )

    async def _ask_up(
        self, method: str, route: str, timeout: float
    ) -> Dict[str, Any]:
        """One request to every up worker at once: ``{name: (status,
        decoded JSON body or None)}``, or the transport error a worker
        raised instead."""

        async def ask(worker: _Worker) -> Tuple[str, Any]:
            assert worker.client is not None
            try:
                status, _, raw = await worker.client.request_bytes(
                    method, route, timeout=timeout
                )
            except _TRANSPORT_ERRORS as e:
                return worker.name, e
            try:
                return worker.name, (status, json.loads(raw))
            except ValueError:
                return worker.name, (status, None)

        return dict(
            await asyncio.gather(*(ask(w) for w in self.up_workers()))
        )

    async def _admin_reload(self, request: Request) -> Response:
        """``POST /v1/admin/reload`` broadcast: hot-swap fleet-wide.

        Every up worker re-reads the shared store manifest and swaps
        its active artifacts; in-flight proxied requests finish on the
        old version (each worker's reload never drops admitted work).
        ``"ok"`` only when *every* up worker reloaded; a worker that
        errored (or was down) makes the verdict ``"partial"`` so the
        operator knows the fleet is serving mixed versions.
        """
        counter("serve.fleet.reloads").inc()
        if not self.up_workers():
            return Response.error(
                503, "no worker available to reload; retry shortly",
                headers={"Retry-After": "1"},
            )
        answers = await self._ask_up("POST", "/v1/admin/reload", 30.0)
        workers_doc: Dict[str, Any] = {}
        for name, worker in sorted(self._workers.items()):
            answer = answers.get(name)
            if answer is None:
                doc = {"status": worker.state}
            elif isinstance(answer, Exception):
                doc = {
                    "status": "error",
                    "error": f"{type(answer).__name__}: {answer}",
                }
            elif answer[0] != 200:
                doc = {
                    "status": "error",
                    "error": f"worker answered {answer[0]}",
                }
            else:
                body = answer[1] if isinstance(answer[1], dict) else {}
                doc = {"status": "ok", "slots": body.get("slots", {})}
            workers_doc[name] = doc
        ok = all(doc["status"] == "ok" for doc in workers_doc.values())
        return Response.json(
            {"status": "ok" if ok else "partial", "workers": workers_doc}
        )

    async def _machines(self, request: Request) -> Response:
        """``GET /v1/machines`` aggregated across the fleet.

        The catalog itself is a property of the installation, but
        warm/version state lives in the workers: with content-keyed
        routing each preset's artifact warms on whichever worker owns
        its queries.  The front end asks every up worker and reports
        both the aggregate (``warm`` = warm anywhere) and the
        per-worker breakdown — this used to answer ``warm: null``.
        """
        answers = await self._ask_up(
            "GET", "/v1/machines", self.config.health_timeout_s
        )
        reports: Dict[str, Dict[str, Any]] = {}
        for name, answer in answers.items():
            reports[name] = {}
            if isinstance(answer, tuple) and answer[0] == 200:
                try:
                    reports[name] = {
                        m["name"]: m for m in answer[1]["machines"]
                    }
                except (TypeError, KeyError):
                    pass

        def status_of(ref: MachineRef) -> Dict[str, Any]:
            workers_doc = {}
            for wname in sorted(reports):
                entry = reports[wname].get(ref.name)
                if entry is not None:
                    workers_doc[wname] = {
                        "warm": bool(entry.get("warm")),
                        "version": entry.get("version"),
                    }
            return {
                "warm": any(w["warm"] for w in workers_doc.values()),
                "workers": workers_doc,
            }

        return machines_response(status_of)

    async def _metrics(self, request: Request) -> Response:
        """Front-end snapshot + every worker's, ``worker``-labeled."""
        merged: Dict[str, Any] = dict(metrics_snapshot())
        answers = await self._ask_up(
            "GET", "/metrics", self.config.health_timeout_s
        )
        workers_doc: Dict[str, Any] = {}
        for name, worker in sorted(self._workers.items()):
            doc: Dict[str, Any] = {
                "state": worker.state,
                "port": worker.port,
                "crashes": worker.failures,
            }
            answer = answers.get(name)
            if isinstance(answer, Exception):
                doc["metrics_error"] = "unreachable"
            elif answer is not None and answer[0] == 200:
                try:
                    snapshot = dict(answer[1]["metrics"])
                except (TypeError, KeyError, ValueError):
                    doc["metrics_error"] = "unreachable"
                else:
                    doc["metrics"] = snapshot
                    for metric, value in snapshot.items():
                        merged[f'{metric}{{worker="{name}"}}'] = value
            workers_doc[name] = doc
        return Response.json({"metrics": merged, "workers": workers_doc})

    def _pick(self, key: str, exclude: Set[str]) -> Optional[_Worker]:
        """The ring owner of ``key``, else any up worker not excluded."""
        owner = self._ring.node_for(key)
        if owner is not None and owner not in exclude:
            worker = self._workers.get(owner)
            if worker is not None and worker.state == UP:
                return worker
        for name in self._ring.nodes:
            worker = self._workers.get(name)
            if (
                worker is not None
                and worker.state == UP
                and name not in exclude
            ):
                return worker
        return None

    async def _forward(self, request: Request) -> Response:
        """Relay one POST to the content key's owner, rerouting once."""
        key = content_key(request.route, request.body)
        deadline = self.config.worker.deadlines.get(
            request.route, DEFAULT_DEADLINES.get(request.route, 30.0)
        )
        tried: Set[str] = set()
        for attempt in (0, 1):
            worker = self._pick(key, tried)
            if worker is None:
                break
            if attempt:
                counter("serve.fleet.reroutes").inc()
            tried.add(worker.name)
            assert worker.client is not None
            try:
                status, headers, body = await worker.client.request_bytes(
                    request.method,
                    request.target,
                    request.body,
                    timeout=deadline + 5.0,
                )
            except _TRANSPORT_ERRORS:
                counter("serve.fleet.proxy_errors").inc()
                # A dead process needn't wait for the health loop.
                if not worker.process.is_alive():
                    self._declare_down(worker, "died under proxy")
                continue
            relay = {
                k.title(): v
                for k, v in headers.items()
                if k in ("content-type", "retry-after")
            }
            return Response(status=status, headers=relay, body=body)
        counter("serve.fleet.unrouted").inc()
        return Response.error(
            503,
            "no worker available to serve this query; retry shortly",
            headers={"Retry-After": "1"},
        )


# -- CLI glue ----------------------------------------------------------------


def fleet_config_from_args(args) -> FleetConfig:
    """Build a :class:`FleetConfig` from the ``repro serve`` namespace."""
    from repro.serve.app import _config_from_args

    worker = _config_from_args(args)
    return FleetConfig(
        workers=args.workers,
        host=args.host,
        port=args.port,
        worker=worker,
        warm=not args.no_warm,
    )


async def run_fleet(config: FleetConfig, quiet: bool = False) -> int:
    """Run the fleet until SIGTERM/SIGINT, then drain."""
    fleet = Fleet(config)
    if not quiet and config.warm:
        print(
            f"[serve] fitting shared artifact "
            f"({config.worker.iterations} iterations)...",
            flush=True,
        )
    host, port = await fleet.start()
    if not quiet:
        print(
            f"[serve] fleet of {config.workers} workers listening on "
            f"http://{host}:{port} "
            f"(workers on {[w.port for w in fleet.up_workers()]})",
            flush=True,
        )
    await wait_for_stop()
    if not quiet:
        print("[serve] draining fleet...", flush=True)
    await fleet.stop()
    if not quiet:
        print("[serve] drained; bye", flush=True)
    return 0
