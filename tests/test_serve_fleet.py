"""The prefork worker fleet: routing, supervision, drain.

Unit tests cover the consistent-hash ring in isolation; the integration
tests boot a *real* fleet — forked worker processes with the
session-scoped fitted model preloaded (no fitting anywhere on the test
path) — and exercise crash detection, restart, affinity routing, and
graceful drain over real sockets.
"""

import asyncio
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from collections import Counter

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.obs import reset_metrics
from repro.serve.app import ServeApp, ServeConfig, build_serve_parser
from repro.serve.fleet import (
    UP,
    Fleet,
    FleetConfig,
    fleet_config_from_args,
)
from repro.serve.protocol import (
    ROUTES,
    ClientConnection,
    content_key,
    http_request,
)
from repro.serve.router import HashRing, WorkerClient
from tests.closed_loop import closed_loop

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fleet tests rely on the fork start method",
)


def run(coro):
    return asyncio.run(coro)


# -- HashRing ----------------------------------------------------------------


class TestHashRing:
    def test_rejects_nonsense_replicas(self):
        with pytest.raises(ConfigurationError):
            HashRing(replicas=0)

    def test_empty_ring_owns_nothing(self):
        assert HashRing().node_for("anything") is None

    def test_membership_and_idempotence(self):
        ring = HashRing(replicas=8)
        ring.add("w0")
        ring.add("w0")  # idempotent
        ring.add("w1")
        assert len(ring) == 2 and "w0" in ring and "w1" in ring
        assert ring.nodes == ("w0", "w1")
        ring.remove("w1")
        ring.remove("w1")  # idempotent
        assert ring.nodes == ("w0",)

    def test_ownership_is_deterministic(self):
        a, b = HashRing(), HashRing()
        for ring in (a, b):
            for name in ("w0", "w1", "w2"):
                ring.add(name)
        keys = [f"key-{i}" for i in range(256)]
        assert [a.node_for(k) for k in keys] == [b.node_for(k) for k in keys]

    def test_virtual_replicas_balance_ownership(self):
        ring = HashRing(replicas=64)
        for i in range(4):
            ring.add(f"w{i}")
        shares = Counter(ring.node_for(f"key-{i}") for i in range(4000))
        assert set(shares) == {"w0", "w1", "w2", "w3"}
        # With 64 virtual points each, no worker owns less than ~1/3 of
        # its fair share or more than ~2x of it.
        for count in shares.values():
            assert 4000 / 12 < count < 4000 / 2

    def test_removal_moves_only_the_dead_nodes_keys(self):
        ring = HashRing()
        for i in range(4):
            ring.add(f"w{i}")
        keys = [f"key-{i}" for i in range(1000)]
        before = {k: ring.node_for(k) for k in keys}
        ring.remove("w2")
        for key in keys:
            owner = ring.node_for(key)
            if before[key] != "w2":
                assert owner == before[key], (
                    f"{key} moved {before[key]} -> {owner} although its "
                    "owner never died"
                )
            else:
                assert owner != "w2"


class TestWorkerClient:
    def test_pools_connections_and_drops_broken_ones(self):
        async def go():
            writers = []

            async def handler(reader, writer):
                writers.append(writer)
                try:
                    while True:
                        await reader.readuntil(b"\r\n\r\n")
                        writer.write(
                            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                            b"Content-Type: application/json\r\n\r\n{}"
                        )
                        await writer.drain()
                except (asyncio.IncompleteReadError, ConnectionError):
                    pass

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = WorkerClient("127.0.0.1", port)
            try:
                await client.request_bytes("GET", "/healthz")
                assert len(client._idle) == 1
                await client.request_bytes("GET", "/healthz")
                assert len(client._idle) == 1  # reused, not duplicated
                # A dead server (listener gone, live connections reset)
                # breaks the pooled connection: the error surfaces and
                # the connection is dropped, not re-pooled.
                server.close()
                await server.wait_closed()
                for w in writers:
                    w.transport.abort()
                await asyncio.sleep(0.05)
                with pytest.raises(
                    (ConnectionError, asyncio.IncompleteReadError, OSError)
                ):
                    await client.request_bytes("GET", "/healthz")
                assert client._idle == []
            finally:
                await client.close()
                server.close()

        run(go())


# -- FleetConfig / CLI glue --------------------------------------------------


class TestFleetConfig:
    def test_rejects_nonsense(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(workers=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(health_misses=0)

    def test_parser_maps_workers_flag(self):
        args = build_serve_parser().parse_args(
            ["--workers", "4", "--port", "9999", "--batch-cap", "16"]
        )
        config = fleet_config_from_args(args)
        assert config.workers == 4
        assert config.port == 9999
        assert config.worker.max_batch == 16

    def test_port_property_requires_started_front_end(self):
        with pytest.raises(ReproError):
            Fleet(FleetConfig()).port


# -- the real thing ----------------------------------------------------------


def make_fleet(capability, workers=2, **fleet_kw):
    """A fleet whose workers preload the session-fitted model (no fits)."""
    fleet_kw.setdefault(
        "worker", ServeConfig(persist_artifacts=False)
    )
    return Fleet(
        FleetConfig(workers=workers, **fleet_kw),
        warm_model=capability.to_dict(),
    )


PREDICT_BODY = {"queries": [{"metric": "latency", "location": "local"}]}
#: A request that stays in flight for a long while: the empirical barrier
#: autotune runs benchmark episodes on the simulated machine (~0.8 s on
#: a 2-vCPU container).
SLOW_TUNE_BODY = {"target": "barrier", "n": 64, "measured": True,
                  "iterations": 100}


#: Every (route, wrong method) pair of the route table, plus one route
#: that does not exist: ``(route, method, expected Allow or None)``.
ROUTE_ERROR_CASES = [
    pytest.param(
        route,
        "POST" if method == "GET" else "GET",
        method,
        id=f"{'POST' if method == 'GET' else 'GET'} {route}",
    )
    for route, method in ROUTES.items()
] + [pytest.param("/v1/nope", "GET", None, id="GET /v1/nope")]


class TestRouteTable:
    @pytest.mark.parametrize("route,method,allow", ROUTE_ERROR_CASES)
    def test_server_and_fleet_answer_alike(
        self, capability, route, method, allow
    ):
        """One table, one answer: a 404 or a 405 naming the method in
        ``Allow``, with the same bytes from a server and a fleet."""

        async def ask(port):
            conn = ClientConnection("127.0.0.1", port)
            try:
                return await conn.request_bytes(
                    method, route, b"{}" if method == "POST" else b""
                )
            finally:
                await conn.close()

        async def go():
            # Fork the fleet's workers before the server binds, so no
            # worker inherits its listening socket.
            fleet = make_fleet(capability)
            await fleet.start()
            app = ServeApp(ServeConfig(persist_artifacts=False))
            await app.start()
            try:
                assert set(app._routes) == set(fleet._routes) == set(ROUTES)
                return await ask(app.port), await ask(fleet.port)
            finally:
                await app.stop()
                await fleet.stop()

        (s_status, s_headers, s_body), (f_status, f_headers, f_body) = run(
            go()
        )
        if allow is None:
            status, message = 404, f"no route {route!r}"
        else:
            status, message = 405, f"{route} only supports {allow}"
        assert s_status == f_status == status
        assert s_body == f_body == json.dumps(
            {"error": {"message": message, "status": status}},
            sort_keys=True,
        ).encode()
        assert s_headers.get("allow") == f_headers.get("allow") == allow


async def restart_count(host, port):
    """The front end's ``serve.fleet.restarts`` counter."""
    _, _, doc = await http_request(host, port, "GET", "/metrics")
    return doc["metrics"].get("serve.fleet.restarts", {}).get("value", 0)


class TestFleetServing:
    def test_boot_route_and_drain(self, capability):
        async def go():
            fleet = make_fleet(capability)
            host, port = await fleet.start()
            try:
                status, _, health = await http_request(
                    host, port, "GET", "/healthz"
                )
                assert status == 200 and health["status"] == "ok"
                assert health["fleet"]["up"] == 2

                status, _, out = await http_request(
                    host, port, "POST", "/v1/predict", PREDICT_BODY
                )
                assert status == 200
                assert out["results"][0]["value"] == pytest.approx(
                    capability.RL
                )

                # Bad queries still come back as clean 400s through the
                # proxy (response bytes relayed verbatim).
                status, _, out = await http_request(
                    host, port, "POST", "/v1/predict", {"queries": []}
                )
                assert status == 400 and "queries" in out["error"]["message"]
            finally:
                await fleet.stop()
            assert all(
                not w.process.is_alive() for w in fleet._workers.values()
            )
            # Workers exit 0: they drained, they did not crash.
            assert all(
                w.process.exitcode == 0 for w in fleet._workers.values()
            )

        run(go())

    @pytest.mark.parametrize("concurrency", [32, 64])
    def test_affinity_identical_queries_land_on_one_worker(
        self, capability, concurrency
    ):
        """The SNC4 analogy made testable: one content key, one owner —
        so fleet-wide dedup still holds under an identical burst."""

        async def go():
            fleet = make_fleet(capability)
            host, port = await fleet.start()
            try:
                burst = await closed_loop(
                    host, port, "/v1/predict", [PREDICT_BODY],
                    concurrency=concurrency,
                    requests=64,
                )
                assert burst.status_counts == {200: 64}
                _, _, doc = await http_request(host, port, "GET", "/metrics")
                evaluated = {
                    name: w["metrics"]
                    .get("serve.batch.evaluations", {})
                    .get("value", 0)
                    for name, w in doc["workers"].items()
                }
                busy = [n for n, v in evaluated.items() if v > 0]
                assert len(busy) == 1, (
                    f"identical queries spread over {busy}: {evaluated}"
                )
                # And the owner coalesced them (the PR 3 acceptance
                # bound, now holding across the fleet).
                assert evaluated[busy[0]] <= 8
            finally:
                await fleet.stop()

        run(go())

    def test_identical_queries_in_flight_share_one_relay(self, capability):
        """The front end single-flights: each request of an identical
        burst is either relayed to the owner or shares the answer of a
        relay already in flight, and some share."""
        reset_metrics()  # the front end's counters live in this process

        async def go():
            fleet = make_fleet(capability)
            host, port = await fleet.start()
            try:
                burst = await closed_loop(
                    host, port, "/v1/predict", [PREDICT_BODY],
                    concurrency=32,
                    requests=32,
                )
                assert burst.status_counts == {200: 32}
                _, _, doc = await http_request(host, port, "GET", "/metrics")
                shared = doc["metrics"]["serve.fleet.deduped"]["value"]
                relayed = sum(
                    w["metrics"].get("serve.batch.requests", {}).get("value", 0)
                    for w in doc["workers"].values()
                )
                assert shared > 0
                assert relayed + shared == 32, (relayed, shared)
            finally:
                await fleet.stop()

        run(go())

    @pytest.mark.parametrize("concurrency", [8, 64])
    def test_distinct_queries_spread_over_the_ring(
        self, capability, concurrency
    ):
        async def go():
            fleet = make_fleet(capability)
            host, port = await fleet.start()
            try:
                bodies = [
                    {"queries": [{"metric": "contention", "n": n}]}
                    for n in range(1, 33)
                ]
                burst = await closed_loop(
                    host, port, "/v1/predict", bodies,
                    concurrency=concurrency,
                    requests=64,
                )
                assert burst.status_counts == {200: 64}
                _, _, doc = await http_request(host, port, "GET", "/metrics")
                served = {
                    name: w["metrics"]
                    .get("serve.requests", {})
                    .get("value", 0)
                    for name, w in doc["workers"].items()
                }
                busy = [n for n, v in served.items() if v > 0]
                assert len(busy) == 2, f"load never spread: {served}"
            finally:
                await fleet.stop()

        run(go())

    def test_metrics_aggregate_with_worker_labels(self, capability):
        async def go():
            fleet = make_fleet(capability)
            host, port = await fleet.start()
            try:
                await http_request(
                    host, port, "POST", "/v1/predict", PREDICT_BODY
                )
                status, _, doc = await http_request(
                    host, port, "GET", "/metrics"
                )
                assert status == 200
                assert "serve.fleet.requests" in doc["metrics"]
                labeled = [
                    k for k in doc["metrics"] if '{worker="' in k
                ]
                assert labeled, "no worker-labeled series in /metrics"
                assert set(doc["workers"]) == {"w0", "w1"}
                assert all(
                    w["state"] == UP for w in doc["workers"].values()
                )
            finally:
                await fleet.stop()

        run(go())


class TestFleetSupervision:
    def test_sigkilled_worker_is_detected_and_restarted(self, capability):
        async def go():
            fleet = make_fleet(
                capability,
                health_interval_s=0.05,
                stable_s=0.5,
            )
            host, port = await fleet.start()
            try:
                restarts_before = await restart_count(host, port)
                victim = fleet._workers["w0"]
                victim_pid = victim.process.pid
                os.kill(victim_pid, signal.SIGKILL)

                deadline = time.monotonic() + 15.0  # repro: noqa[DET001] — subprocess readiness deadline
                while time.monotonic() < deadline:  # repro: noqa[DET001] — subprocess readiness deadline
                    fresh = fleet._workers["w0"]
                    if (
                        fresh.state == UP
                        and fresh.process.pid != victim_pid
                    ):
                        break
                    await asyncio.sleep(0.05)
                fresh = fleet._workers["w0"]
                assert fresh.state == UP and fresh.process.pid != victim_pid
                # The front end counted the restart and reports healthy.
                assert await restart_count(host, port) >= restarts_before + 1
                status, _, health = await http_request(
                    host, port, "GET", "/healthz"
                )
                assert status == 200 and health["status"] == "ok"

                # The ring has the replacement; queries flow again.
                burst = await closed_loop(
                    host, port, "/v1/predict", [PREDICT_BODY],
                    concurrency=8,
                    requests=32,
                )
                assert burst.status_counts == {200: 32}
            finally:
                await fleet.stop()

        run(go())

    def test_load_survives_a_mid_flight_kill(self, capability):
        """SIGKILL under load: clients may see bounded 503s but never a
        hang, and never another 5xx class."""

        async def go():
            fleet = make_fleet(capability, health_interval_s=0.05)
            host, port = await fleet.start()
            try:
                load = asyncio.create_task(
                    closed_loop(
                        host, port, "/v1/predict", [PREDICT_BODY],
                        concurrency=8,
                        requests=128,
                    )
                )
                await asyncio.sleep(0.1)
                # Kill the owner of the burst's content key — the worker
                # actually holding the load.
                key = content_key(
                    "/v1/predict", json.dumps(PREDICT_BODY).encode()
                )
                owner = fleet._ring.node_for(key)
                os.kill(fleet._workers[owner].process.pid, signal.SIGKILL)
                result = await asyncio.wait_for(load, timeout=60.0)
                hard = sum(
                    n
                    for status, n in result.status_counts.items()
                    if status >= 500 and status != 503
                )
                assert hard == 0, f"5xx storm: {result.status_counts}"
                assert result.status_counts.get(200, 0) > 0
                # Failover is fast: at most half the load sees a 503.
                unavailable = result.status_counts.get(503, 0)
                assert unavailable <= result.requests // 2, (
                    f"{unavailable}/{result.requests} answered 503"
                )
            finally:
                await fleet.stop()

        run(go())


class TestFleetDrain:
    def test_stop_completes_inflight_requests(self, capability, monkeypatch):
        """SIGTERM-drain semantics: every request accepted before the
        drain begins is answered, none dropped."""
        real = ServeApp._evaluate_batch

        async def gated(self, batch):
            # Every batch evaluates for 0.3 s, so the requests are truly
            # in flight when the drain begins (forked workers inherit it).
            await asyncio.sleep(0.3)
            return await real(self, batch)

        monkeypatch.setattr(ServeApp, "_evaluate_batch", gated)

        async def go():
            fleet = make_fleet(
                capability,
                worker=ServeConfig(
                    window_s=0.1,
                    persist_artifacts=False,
                ),
            )
            host, port = await fleet.start()
            inflight = [
                asyncio.create_task(
                    http_request(
                        host, port, "POST", "/v1/predict",
                        {"queries": [{"metric": "contention", "n": n}]},
                        timeout=30.0,
                    )
                )
                for n in range(1, 17)
            ]
            # Let every request reach the front end, then drain.  A
            # bounded poll, not a fixed sleep: a slow event loop (asyncio
            # debug mode) takes longer to connect 16 clients.  Counting
            # 2000 sleeps of 5 ms keeps the 10 s bound without a clock.
            for _ in range(2000):
                if fleet._active_requests >= 16:
                    break
                await asyncio.sleep(0.005)
            assert fleet._active_requests == 16
            assert not any(task.done() for task in inflight)
            await fleet.stop()
            responses = await asyncio.gather(*inflight)
            assert [status for status, _, _ in responses] == [200] * 16

        run(go())


def two_version_store(tmp_path, snc4_flat_config, capability):
    """A shared store holding v1 as latest, a 2-worker fleet over it,
    and a v2 payload (``r_local`` + 1) ready to publish."""
    from repro.serve.artifacts import ArtifactRegistry, MachineRef

    store_dir = str(tmp_path / "artifacts")
    parent = ArtifactRegistry(directory=store_dir, persist=True)
    slot = parent.key_for(MachineRef(snc4_flat_config))
    parent.store.publish(slot, capability.to_dict(), timestamp=0.0)
    v2_payload = capability.to_dict()
    v2_payload["r_local"] = v2_payload["r_local"] + 1.0
    fleet = make_fleet(
        capability,
        worker=ServeConfig(persist_artifacts=True, artifact_dir=store_dir),
    )
    return parent.store, slot, v2_payload, fleet


def distinct_bodies(n):
    """Distinct content keys (so they land on *both* workers) whose first
    query reads the serving model's ``r_local`` directly."""
    return [
        {"queries": [
            {"metric": "latency", "location": "local"},
            {"metric": "contention", "n": i},
        ]}
        for i in range(1, n + 1)
    ]


async def assert_serves_rl(host, port, rl):
    for body in distinct_bodies(8):
        _, _, out = await http_request(
            host, port, "POST", "/v1/predict", body
        )
        assert out["results"][0]["value"] == pytest.approx(rl)


class TestFleetReload:
    def test_reload_broadcast_swaps_every_worker(
        self, capability, snc4_flat_config, tmp_path
    ):
        """Publish v2 into the shared store directory, broadcast one
        ``POST /v1/admin/reload`` through the front end, and every
        worker serves the new model — no restarts anywhere."""
        store, slot, v2_payload, fleet = two_version_store(
            tmp_path, snc4_flat_config, capability
        )

        async def go():
            host, port = await fleet.start()
            try:
                await assert_serves_rl(host, port, capability.RL)
                store.publish(slot, v2_payload, timestamp=1.0)
                status, _, doc = await http_request(
                    host, port, "POST", "/v1/admin/reload"
                )
                assert status == 200 and doc["status"] == "ok"
                assert set(doc["workers"]) == {"w0", "w1"}
                for worker_doc in doc["workers"].values():
                    assert worker_doc["status"] == "ok"
                    assert worker_doc["slots"][slot]["swapped"] is True
                await assert_serves_rl(host, port, capability.RL + 1.0)
            finally:
                await fleet.stop()

        run(go())

    def test_reload_under_load_drops_nothing(
        self, capability, snc4_flat_config, tmp_path
    ):
        """The hot swap happens while distinct-body traffic is in
        flight: every request is answered, none with a 5xx, and the
        fleet serves v2 afterwards."""
        store, slot, v2_payload, fleet = two_version_store(
            tmp_path, snc4_flat_config, capability
        )

        async def go():
            host, port = await fleet.start()
            try:
                load = asyncio.create_task(
                    closed_loop(
                        host, port, "/v1/predict", distinct_bodies(96),
                        concurrency=16,
                        requests=768,
                    )
                )
                await asyncio.sleep(0.1)
                assert not load.done(), "the swap must land mid-load"
                store.publish(slot, v2_payload, timestamp=1.0)
                status, _, doc = await http_request(
                    host, port, "POST", "/v1/admin/reload"
                )
                assert status == 200 and doc["status"] == "ok"
                result = await asyncio.wait_for(load, timeout=60.0)
                answered = sum(result.status_counts.values())
                assert answered == result.requests
                assert result.server_errors == 0, result.status_counts
                await assert_serves_rl(host, port, capability.RL + 1.0)
            finally:
                await fleet.stop()

        run(go())

    def test_machines_endpoint_aggregates_worker_warmth(self, capability):
        """Regression for the front-end bug that answered ``warm=null``
        for every preset: the fleet now asks its workers and reports
        per-worker warmth plus the aggregate."""

        async def go():
            fleet = make_fleet(capability)
            host, port = await fleet.start()
            try:
                status, _, doc = await http_request(
                    host, port, "GET", "/v1/machines"
                )
                assert status == 200 and doc["machines"]
                for m in doc["machines"]:
                    assert isinstance(m["warm"], bool)
                    assert set(m["workers"]) == {"w0", "w1"}
                    for worker_doc in m["workers"].values():
                        assert isinstance(worker_doc["warm"], bool)
            finally:
                await fleet.stop()

        run(go())


class TestCliSignalDrain:
    def test_sigterm_drains_single_process_serve(self, tmp_path):
        """Regression for the satellite bugfix: SIGTERM used to kill
        ``repro serve`` mid-batch; now it runs the same drain path as
        Ctrl+C, and an in-flight request completes before exit."""
        env = dict(
            os.environ,
            PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"),
            REPRO_CACHE_DIR=str(tmp_path),
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--iterations", "3", "--no-persist",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            port = None
            deadline = time.monotonic() + 60  # repro: noqa[DET001] — subprocess readiness deadline
            while time.monotonic() < deadline:  # repro: noqa[DET001] — subprocess readiness deadline
                line = proc.stdout.readline()
                if "listening on" in line:
                    port = int(line.split("http://")[1].split("/")[0]
                               .split(":")[1].split(" ")[0])
                    break
            assert port, "server never reported its port"

            import http.client
            import threading

            outcome = {}

            def request():
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=30)
                try:
                    conn.request(
                        "POST", "/v1/tune",
                        body=json.dumps(SLOW_TUNE_BODY),
                        headers={"Content-Type": "application/json"},
                    )
                    outcome["status"] = conn.getresponse().status
                finally:
                    conn.close()

            t = threading.Thread(target=request)
            t.start()
            # A measured tune runs benchmark episodes for far longer
            # than 50 ms, so the request is still in flight when the
            # signal lands.
            time.sleep(0.05)
            assert "status" not in outcome, "answered before the signal"
            proc.send_signal(signal.SIGTERM)
            t.join(timeout=30)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert outcome.get("status") == 200, (out, outcome)
        assert proc.returncode == 0, out
        assert "draining" in out
