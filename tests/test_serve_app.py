"""The HTTP query service, end-to-end over loopback.

Every test boots a real ``ServeApp`` on an ephemeral port with the
session-scoped fitted model preloaded into the registry (no fitting on
the request path), so the suite exercises real sockets and framing at
in-memory speed.
"""

import asyncio
import json
import time

import pytest

from repro.obs import reset_metrics
from repro.serve.app import (
    DEFAULT_DEADLINES,
    MAX_TUNE_EPISODES,
    MAX_TUNE_ITERATIONS,
    MAX_TUNE_N,
    ServeApp,
    ServeConfig,
    build_serve_parser,
    _config_from_args,
)
from repro.serve.artifacts import ArtifactRegistry, MachineRef
from repro.serve.protocol import ClientConnection, http_request
from tests.closed_loop import PREDICT_GRID_BODY, closed_loop


def run(coro):
    return asyncio.run(coro)


def make_app(snc4_flat_config, capability, **config_kw):
    registry = ArtifactRegistry(persist=False)
    registry.preload(MachineRef(snc4_flat_config), capability)
    return ServeApp(ServeConfig(**config_kw), registry=registry)


def serve(app, client_coro_factory):
    """Boot ``app``, run the client coroutine against it, tear down."""

    async def go():
        host, port = await app.start()
        try:
            return await client_coro_factory(host, port)
        finally:
            await app.stop()

    return run(go())


@pytest.fixture()
def app(snc4_flat_config, capability):
    return make_app(snc4_flat_config, capability)


def measured_tune(**fields):
    """A measured ``/v1/tune`` barrier body at n=16, with ``fields``."""
    return {"target": "barrier", "n": 16, "measured": True, **fields}


def advise_body(buffer_fields=(), **fields):
    """A one-buffer ``/v1/advise`` body, with ``buffer_fields`` in the
    buffer and ``fields`` at the top level."""
    buffer = {"name": "a", "size_bytes": 1 << 20, "traffic_bytes": 1 << 30}
    return {"buffers": [{**buffer, **dict(buffer_fields)}], **fields}


class TestPlumbing:
    def test_healthz(self, app):
        async def client(host, port):
            return await http_request(host, port, "GET", "/healthz")

        status, _, body = serve(app, client)
        assert status == 200
        assert body["status"] == "ok"
        assert body["artifacts_warm"] == 1

    def test_metrics_endpoint_snapshots_the_registry(self, app):
        async def client(host, port):
            await http_request(host, port, "GET", "/healthz")
            return await http_request(host, port, "GET", "/metrics")

        status, _, body = serve(app, client)
        assert status == 200
        assert "serve.requests" in body["metrics"]

    def test_unknown_route_404(self, app):
        async def client(host, port):
            return await http_request(host, port, "GET", "/nope")

        status, _, body = serve(app, client)
        assert status == 404 and body["error"]["status"] == 404

    def test_wrong_method_405(self, app):
        async def client(host, port):
            first = await http_request(host, port, "POST", "/healthz", {})
            second = await http_request(host, port, "GET", "/v1/predict")
            return first, second

        (s1, _, _), (s2, _, _) = serve(app, client)
        assert s1 == 405 and s2 == 405

    def test_garbage_body_400(self, app):
        async def client(host, port):
            conn = ClientConnection(host, port)
            try:
                wire = (
                    b"POST /v1/predict HTTP/1.1\r\n"
                    b"Content-Length: 9\r\n\r\n{not json"
                )
                await conn._connect()
                conn._writer.write(wire)
                await conn._writer.drain()
                # _read_response hands back raw bytes (the fleet proxy
                # relays them verbatim); decode here.
                status, headers, raw = await conn._read_response()
                return status, headers, json.loads(raw)
            finally:
                await conn.close()

        status, _, body = serve(app, client)
        assert status == 400 and "JSON" in body["error"]["message"]

    def test_deeply_nested_body_400(self, app):
        """JSON nested past the decoder's recursion limit is a 400 for
        that body, not a dropped batch."""
        async def client(host, port):
            conn = ClientConnection(host, port)
            try:
                deep = await conn.request_bytes(
                    "POST", "/v1/predict", b"[" * 100_000
                )
                health, _, _ = await conn.request("GET", "/healthz")
                return deep, health
            finally:
                await conn.close()

        (status, _, raw), health = serve(app, client)
        assert status == 400
        assert "not valid JSON" in json.loads(raw)["error"]["message"]
        assert health == 200

    def test_malformed_target_400_and_healthz_still_answers(self, app):
        """A target ``urlsplit`` rejects gets a 400 and a close, not a
        dropped connection, and the server keeps answering."""
        async def client(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b"GET http://[::1/ HTTP/1.1\r\n\r\n")
                await writer.drain()
                reply = await reader.read()
            finally:
                writer.close()
            return reply, await http_request(host, port, "GET", "/healthz")

        reply, (status, _, body) = serve(app, client)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in reply
        assert status == 200 and body["status"] == "ok"

    def test_port_property_requires_started_server(self, app):
        with pytest.raises(Exception):
            app.port


class TestPredict:
    def test_point_queries_match_the_model(
        self, app, capability
    ):
        body = {
            "queries": [
                {"metric": "latency", "location": "local"},
                {"metric": "latency", "location": "remote", "state": "E"},
                {"metric": "latency", "location": "memory", "kind": "mcdram"},
                {"metric": "bandwidth", "op": "triad", "kind": "mcdram"},
                {"metric": "contention", "n": 64},
                {"metric": "multiline", "location": "remote", "bytes": 512},
            ]
        }

        async def client(host, port):
            return await http_request(host, port, "POST", "/v1/predict", body)

        status, _, out = serve(app, client)
        assert status == 200
        assert out["config_label"] == capability.config_label
        values = [r["value"] for r in out["results"]]
        assert values[0] == pytest.approx(capability.RL)
        assert values[1] == pytest.approx(capability.r_remote["E"])
        assert values[2] == pytest.approx(capability.RI_kind("mcdram"))
        assert values[3] == pytest.approx(capability.bw("triad", "mcdram"))
        assert values[4] == pytest.approx(capability.T_C(64))
        assert values[5] == pytest.approx(
            capability.multiline_ns("remote", 512)
        )
        units = [r["unit"] for r in out["results"]]
        assert units == ["ns", "ns", "ns", "GB/s", "ns", "ns"]

    def test_bad_queries_are_400s(self, app):
        bodies = [
            {},  # no queries
            {"queries": []},
            {"queries": ["not an object"]},
            {"queries": [{"metric": "nonsense"}]},
            {"queries": [{"metric": "latency", "location": "mars"}]},
            {"queries": [{"metric": "contention", "n": 0}]},
        ]

        async def client(host, port):
            out = []
            for body in bodies:
                status, _, _ = await http_request(
                    host, port, "POST", "/v1/predict", body
                )
                out.append(status)
            return out

        assert serve(app, client) == [400] * len(bodies)


class TestAdviseAndTune:
    def test_advise_round_trip(self, app):
        body = {
            "buffers": [
                {
                    "name": "hot",
                    "size_bytes": 1 << 30,
                    "traffic_bytes": 100 << 30,
                },
                {
                    "name": "cold",
                    "size_bytes": 1 << 30,
                    "traffic_bytes": 1 << 20,
                },
            ]
        }

        async def client(host, port):
            return await http_request(host, port, "POST", "/v1/advise", body)

        status, _, out = serve(app, client)
        assert status == 200
        assert out["assignments"]["hot"] == "mcdram"
        assert out["predicted_speedup"] >= 1.0
        assert out["mcdram_bytes_used"] <= out["mcdram_capacity"]

    def test_tune_barrier_and_tree(self, app):
        async def client(host, port):
            barrier = await http_request(
                host, port, "POST", "/v1/tune", {"target": "barrier", "n": 64}
            )
            tree = await http_request(
                host, port, "POST", "/v1/tune",
                {"target": "tree", "n": 64, "payload_bytes": 256},
            )
            return barrier, tree

        (bs, _, barrier), (ts, _, tree) = serve(app, client)
        assert bs == 200 and barrier["mode"] == "model"
        assert barrier["arity"] >= 2 and barrier["best_ns"] > 0
        assert ts == 200 and tree["root_degree"] >= 1
        assert tree["best_ns"] <= tree["worst_ns"]

    def test_tune_rejects_unknown_target(self, app):
        async def client(host, port):
            return await http_request(
                host, port, "POST", "/v1/tune", {"target": "warp", "n": 4}
            )

        status, _, _ = serve(app, client)
        assert status == 400

    @pytest.mark.parametrize(
        "field, fields",
        [
            ("max_degree", {"max_degree": -1}),
            ("max_degree", {"max_degree": 0}),
            ("max_degree", {"max_degree": "x"}),
            ("payload_bytes", {"payload_bytes": "x"}),
            ("payload_bytes", {"payload_bytes": -64}),
            ("payload_bytes", {"payload_bytes": 64.5}),
            ("payload_bytes", {"payload_bytes": 1 << 1100}),
            ("is_reduce", {"is_reduce": "false"}),
            ("n", {"n": 100_000}),
            ("n", {"target": "barrier", "n": MAX_TUNE_N + 1}),
        ],
    )
    def test_malformed_tune_body_is_a_400_naming_the_field(
        self, app, field, fields
    ):
        body = {"target": "tree", "n": 16, **fields}

        async def client(host, port):
            return await http_request(host, port, "POST", "/v1/tune", body)

        status, _, out = serve(app, client)
        assert status == 400, out
        assert f"'{field}'" in out["error"]["message"]

    @pytest.mark.parametrize(
        "route, field, body",
        [
            ("/v1/tune", "measured", measured_tune(measured="false")),
            ("/v1/tune", "margin", measured_tune(margin="x")),
            ("/v1/tune", "iterations", measured_tune(iterations="x")),
            ("/v1/tune", "iterations", measured_tune(iterations=-1)),
            ("/v1/tune", "iterations", measured_tune(iterations=0)),
            ("/v1/tune", "iterations", measured_tune(iterations=2.7)),
            ("/v1/tune", "iterations",
             measured_tune(iterations=MAX_TUNE_ITERATIONS + 1)),
            ("/v1/tune", "arities", measured_tune(arities="x")),
            ("/v1/tune", "arities", measured_tune(arities=[])),
            ("/v1/tune", "arities", measured_tune(arities=[0])),
            ("/v1/tune", "arities", measured_tune(arities=[-2])),
            ("/v1/tune", "arities", measured_tune(arities=[16])),
            ("/v1/tune", "arities", measured_tune(arities=[True])),
            ("/v1/tune", "arities", measured_tune(arities=[2, 3, 2])),
            ("/v1/tune", "arities", measured_tune(
                iterations=MAX_TUNE_EPISODES // 2 + 1, arities=[2, 3])),
            ("/v1/advise", "size_bytes",
             advise_body({"size_bytes": float("inf")})),
            ("/v1/advise", "traffic_bytes",
             advise_body({"traffic_bytes": 10 ** 400})),
            ("/v1/advise", "mcdram_capacity",
             advise_body(mcdram_capacity=float("inf"))),
            ("/v1/advise", "mcdram_capacity",
             advise_body(mcdram_capacity=-1)),
        ],
    )
    def test_malformed_measured_tune_or_advise_is_a_400_naming_the_field(
        self, app, route, field, body
    ):
        # Python writes float("inf") as Infinity; send the standard JSON
        # number that overflows a float64 instead.
        raw = json.dumps(body).replace("Infinity", "1e400").encode()

        async def client(host, port):
            return await http_request(host, port, "POST", route, raw)

        status, _, out = serve(app, client)
        assert status == 400, out
        assert f"'{field}'" in out["error"]["message"]

    @pytest.mark.parametrize("physical", [32, 34, 60, 10 ** 12])
    def test_raw_config_off_the_floorplan_is_a_400(self, app, physical):
        """The topology lays out all 38 floorplan slots: any other
        ``n_physical_tiles`` would build a part whose active tile count
        is not the config's (or, at 10**12, fail mid-build)."""
        body = {"config": {"n_physical_tiles": physical},
                "queries": [{"metric": "latency", "location": "local"}]}

        async def client(host, port):
            return await http_request(host, port, "POST", "/v1/predict", body)

        status, _, out = serve(app, client)
        assert status == 400, out
        assert "'config.n_physical_tiles'" in out["error"]["message"]

    def test_tune_field_bounds_are_inclusive(self, app):
        bodies = [
            {"target": "barrier", "n": MAX_TUNE_N},
            {"target": "tree", "n": 16, "max_degree": None,
             "payload_bytes": 0, "is_reduce": True},
            {"target": "tree", "n": 16, "max_degree": 1},
            {"target": "barrier", "n": 4, "measured": True,
             "iterations": 1, "margin": 10, "arities": [1, 3]},
            {"target": "barrier", "n": 4, "measured": True,
             "iterations": MAX_TUNE_EPISODES // 2, "arities": [1, 3]},
        ]

        async def client(host, port):
            conn = ClientConnection(host, port)
            try:
                return [
                    await conn.request("POST", "/v1/tune", b) for b in bodies
                ]
            finally:
                await conn.close()

        answers = serve(app, client)
        assert [status for status, _, _ in answers] == [200] * 5
        assert answers[2][2]["depth"] == 15  # degree 1: a chain
        assert answers[3][2]["mode"] == "measured"

    def test_long_arity_list_is_refused_before_it_runs(self, app):
        """Every arity of n=64 at 10 iterations is 630 episodes, about
        8 s of simulation; the episode bound answers 400 at once."""
        body = {"target": "barrier", "n": 64, "measured": True,
                "iterations": 10, "margin": 10,
                "arities": list(range(1, 64))}

        async def client(host, port):
            t0 = time.perf_counter()  # repro: noqa[DET001] — latency bound, not a result
            status, _, out = await http_request(
                host, port, "POST", "/v1/tune", body)
            return status, out, time.perf_counter() - t0  # repro: noqa[DET001] — latency bound, not a result

        status, out, elapsed = serve(app, client)
        assert status == 400, out
        assert "'arities'" in out["error"]["message"]
        assert elapsed < 1.0


class TestBatchingAcceptance:
    def test_64_identical_concurrent_queries_evaluate_at_most_8_times(
        self, snc4_flat_config, capability
    ):
        """The ISSUE acceptance bound, measured through /metrics."""
        reset_metrics()
        app = make_app(snc4_flat_config, capability)
        body = {"queries": [{"metric": "latency", "location": "local"}]}

        async def client(host, port):
            async def one():
                conn = ClientConnection(host, port)
                try:
                    return await conn.request("POST", "/v1/predict", body)
                finally:
                    await conn.close()

            responses = await asyncio.gather(*(one() for _ in range(64)))
            _, _, m = await http_request(host, port, "GET", "/metrics")
            return responses, m["metrics"]

        responses, metrics = serve(app, client)
        assert all(status == 200 for status, _, _ in responses)
        evaluations = metrics["serve.batch.evaluations"]["value"]
        assert evaluations <= 8, (
            f"64 identical queries took {evaluations} evaluations"
        )
        deduped = metrics["serve.batch.deduped"]["value"]
        assert deduped >= 64 - evaluations

    def test_distinct_queries_all_answered_correctly(
        self, snc4_flat_config, capability
    ):
        app = make_app(snc4_flat_config, capability)

        async def client(host, port):
            async def one(n):
                return await http_request(
                    host, port, "POST", "/v1/predict",
                    {"queries": [{"metric": "contention", "n": n}]},
                )

            return await asyncio.gather(*(one(n) for n in range(1, 17)))

        responses = serve(app, client)
        for n, (status, _, body) in enumerate(responses, start=1):
            assert status == 200
            assert body["results"][0]["value"] == pytest.approx(
                capability.T_C(n)
            )

    def test_self_fitted_server_answers_a_64_way_grid_burst(self):
        """A server that fits its own default artifact answers 64
        concurrent POSTs of the query grid, every one with a 200."""
        app = ServeApp(
            ServeConfig(iterations=3, seed=1234, persist_artifacts=False)
        )

        async def go():
            await app.warm()
            host, port = await app.start()
            try:
                return await closed_loop(
                    host, port, "/v1/predict", [PREDICT_GRID_BODY],
                    concurrency=64, requests=64,
                )
            finally:
                await app.stop()

        burst = run(go())
        assert burst.status_counts == {200: 64}
        assert burst.no_answer == 0


class TestEarlyFlush:
    """A batch that holds every model request the server has read
    flushes at once; the window is only the upper bound."""

    def test_lone_request_does_not_wait_out_the_window(
        self, snc4_flat_config, capability
    ):
        app = make_app(snc4_flat_config, capability, window_s=0.2)
        body = {"queries": [{"metric": "contention", "n": 3}]}

        async def client(host, port):
            conn = ClientConnection(host, port)
            try:
                await conn.request("GET", "/healthz")  # connected
                t0 = time.perf_counter()  # repro: noqa[DET001] — latency bound, not a result
                status, _, _ = await conn.request("POST", "/v1/predict", body)
                return status, time.perf_counter() - t0  # repro: noqa[DET001] — latency bound, not a result
            finally:
                await conn.close()

        status, elapsed = serve(app, client)
        assert status == 200
        assert elapsed < 0.1, f"a lone request took {elapsed * 1e3:.0f} ms"

    def test_non_model_routes_never_hold_a_batch(
        self, snc4_flat_config, capability
    ):
        """``/healthz``, ``/metrics`` and ``/v1/machines`` requests read
        alongside a predict are not waited for."""
        app = make_app(snc4_flat_config, capability, window_s=5.0)
        body = {"queries": [{"metric": "contention", "n": 5}]}

        async def client(host, port):
            async def timed_predict():
                t0 = time.perf_counter()  # repro: noqa[DET001] — latency bound, not a result
                status, _, _ = await http_request(
                    host, port, "POST", "/v1/predict", body
                )
                return status, time.perf_counter() - t0  # repro: noqa[DET001] — latency bound, not a result

            side = [
                http_request(host, port, "GET", path)
                for path in ("/healthz", "/metrics", "/v1/machines") * 4
            ]
            results = await asyncio.gather(timed_predict(), *side)
            return results[0], [status for status, _, _ in results[1:]]

        (status, elapsed), side_statuses = serve(app, client)
        assert status == 200 and side_statuses == [200] * 12
        assert elapsed < 1.0, f"the predict waited {elapsed:.2f}s"

    def test_request_that_never_reaches_submit_holds_nothing(
        self, snc4_flat_config, capability
    ):
        """A zero deadline cancels the submit before it runs; its
        announcement is withdrawn, so the next request is not held."""
        app = make_app(
            snc4_flat_config,
            capability,
            window_s=5.0,
            deadlines={**DEFAULT_DEADLINES, "/v1/predict": 0.0},
        )

        async def client(host, port):
            expired, _, _ = await http_request(
                host, port, "POST", "/v1/predict",
                {"queries": [{"metric": "contention", "n": 2}]},
            )
            t0 = time.perf_counter()  # repro: noqa[DET001] — latency bound, not a result
            status, _, _ = await http_request(
                host, port, "POST", "/v1/tune", {"target": "barrier", "n": 8}
            )
            return expired, status, time.perf_counter() - t0  # repro: noqa[DET001] — latency bound, not a result

        expired, status, elapsed = serve(app, client)
        assert (expired, status) == (504, 200)
        assert elapsed < 1.0, f"the tune waited {elapsed:.2f}s"


class TestAdmissionAcceptance:
    def test_overload_sheds_with_429_and_healthz_stays_up(
        self, snc4_flat_config, capability
    ):
        """queue_limit 4, 128 in-flight: shed requests get 429 with a
        Retry-After header — never a hang or a 500 — and /healthz keeps
        answering 200 throughout."""
        app = make_app(
            snc4_flat_config,
            capability,
            queue_limit=4,
            window_s=0.05,  # widen the window so the backlog is real
        )

        async def client(host, port):
            async def one(i):
                return await http_request(
                    host, port, "POST", "/v1/predict",
                    {"queries": [{"metric": "contention", "n": i + 1}]},
                    timeout=30.0,
                )

            # A request announced as read but never submitted keeps each
            # batch open for the whole window, as a slow sender would.
            held = app.batcher.expect()
            burst = asyncio.gather(*(one(i) for i in range(128)))
            health_status, _, _ = await http_request(
                host, port, "GET", "/healthz"
            )
            responses = await burst
            app.batcher.retire(held)
            return responses, health_status

        responses, health_status = serve(app, client)
        statuses = sorted({status for status, _, _ in responses})
        counts = {
            s: sum(1 for st, _, _ in responses if st == s) for s in statuses
        }
        assert health_status == 200
        assert set(counts) <= {200, 429}, f"unexpected statuses: {counts}"
        assert counts.get(429, 0) > 0, "overload never shed"
        for status, headers, body in responses:
            if status == 429:
                assert int(headers["retry-after"]) >= 1
                assert "admission queue full" in body["error"]["message"]


class TestDeadlines:
    def test_deadline_exceeded_is_a_504(self, snc4_flat_config, capability):
        app = make_app(
            snc4_flat_config,
            capability,
            deadlines={"/v1/predict": 0.0},
            window_s=0.05,
        )

        async def client(host, port):
            return await http_request(
                host, port, "POST", "/v1/predict",
                {"queries": [{"metric": "contention", "n": 2}]},
            )

        status, _, body = serve(app, client)
        assert status == 504
        assert "deadline" in body["error"]["message"]


class TestServeCli:
    def test_parser_defaults(self):
        args = build_serve_parser().parse_args([])
        config = _config_from_args(args)
        assert config.port == 8080
        assert config.window_s == pytest.approx(0.002)
        assert config.max_batch == 64
        assert config.deadlines == DEFAULT_DEADLINES

    def test_deadline_overrides(self):
        args = build_serve_parser().parse_args(
            ["--deadline", "/v1/predict=2.5", "--deadline", "/v1/tune=90"]
        )
        config = _config_from_args(args)
        assert config.deadlines["/v1/predict"] == pytest.approx(2.5)
        assert config.deadlines["/v1/tune"] == pytest.approx(90.0)
        assert config.deadlines["/v1/advise"] == DEFAULT_DEADLINES["/v1/advise"]

    @pytest.mark.parametrize(
        "spec",
        [
            "/v1/predict=abc",
            "foo",
            "/v1/predict=-1",
            "/v1/predict=0",
            "/v1/predict=inf",
            "/v1/predict=nan",
            "/v1/nope=3",
            "/healthz=3",
        ],
    )
    def test_bad_deadline_is_a_usage_error(self, spec, capsys):
        with pytest.raises(SystemExit) as exc:
            build_serve_parser().parse_args(["--deadline", spec])
        assert exc.value.code == 2
        assert "--deadline" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, argv",
        [
            ("serve", ["--window-ms", "-1"]),
            ("serve", ["--window-ms", "nan"]),
            ("serve", ["--window-ms", "inf"]),
            ("serve", ["--batch-cap", "0"]),
            ("serve", ["--queue-limit", "0"]),
            ("serve", ["--iterations", "0"]),
            ("serve", ["--workers", "0"]),
            ("serve", ["--workers", "-3"]),
            # Removed flags stay removed.
            ("serve", ["--no-batching"]),
        ],
        ids=lambda v: v if isinstance(v, str) else "=".join(v),
    )
    def test_bad_number_or_removed_flag_is_a_usage_error(
        self, command, argv, capsys
    ):
        """Rejected while parsing (exit 2), before any server boots."""
        with pytest.raises(SystemExit) as exc:
            build_serve_parser().parse_args(argv)
        assert exc.value.code == 2
        assert argv[0] in capsys.readouterr().err


class TestShutdown:
    """Drain semantics: the shutdown race answers 503, never a 500,
    and ``stop()`` completes every request it already accepted."""

    def test_request_racing_shutdown_gets_503_with_retry_hint(
        self, snc4_flat_config, capability
    ):
        """Regression for the shutdown race: a request landing after
        the batcher closed used to surface BatcherClosed as a 500; it
        must be a clean 503 + Retry-After so load balancers retry
        elsewhere."""
        app = make_app(snc4_flat_config, capability)

        async def client(host, port):
            # Close only the batcher — the listener is still accepting,
            # exactly the race window during a real drain.
            await app.batcher.close()
            return await http_request(
                host, port, "POST", "/v1/predict",
                {"queries": [{"metric": "latency", "location": "local"}]},
            )

        status, headers, body = serve(app, client)
        assert status == 503
        assert "retry-after" in headers
        assert "draining" in body["error"]["message"]

    def test_draining_rejections_are_counted(
        self, snc4_flat_config, capability
    ):
        reset_metrics()
        app = make_app(snc4_flat_config, capability)

        async def client(host, port):
            await app.batcher.close()
            await http_request(
                host, port, "POST", "/v1/predict",
                {"queries": [{"metric": "latency", "location": "local"}]},
            )
            return await http_request(host, port, "GET", "/metrics")

        _, _, body = serve(app, client)
        rejected = body["metrics"]["serve.draining.rejected"]["value"]
        assert rejected == 1

    def test_stop_completes_inflight_requests(
        self, snc4_flat_config, capability
    ):
        """SIGTERM-drain contract at the app layer: requests already
        admitted when stop() begins are answered, none dropped."""
        app = make_app(snc4_flat_config, capability, window_s=0.2)

        async def go():
            host, port = await app.start()
            # An announced request that never arrives holds the batch
            # open: nothing flushes before the window or the drain.
            app.batcher.expect()
            inflight = [
                asyncio.create_task(
                    http_request(
                        host, port, "POST", "/v1/predict",
                        {"queries": [{"metric": "contention", "n": n}]},
                        timeout=30.0,
                    )
                )
                for n in range(1, 9)
            ]
            # All eight are sitting in the 200 ms batching window when
            # the drain begins: wait (a bounded number of short sleeps)
            # until the batcher has admitted every one.
            for _ in range(400):
                if app.batcher.depth == len(inflight):
                    break
                await asyncio.sleep(0.005)
            assert app.batcher.depth == len(inflight)
            assert not any(task.done() for task in inflight)
            await app.stop()
            return await asyncio.gather(*inflight)

        responses = run(go())
        assert [status for status, _, _ in responses] == [200] * 8
