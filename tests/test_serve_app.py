"""The HTTP query service, end-to-end over loopback.

Every test boots a real ``ServeApp`` on an ephemeral port with the
session-scoped fitted model preloaded into the registry (no fitting on
the request path), so the suite exercises real sockets and framing at
in-memory speed.
"""

import asyncio
import json

import pytest

from repro.obs import reset_metrics
from repro.serve.app import (
    DEFAULT_DEADLINES,
    ServeApp,
    ServeConfig,
    build_serve_parser,
    _config_from_args,
)
from repro.serve.artifacts import ArtifactRegistry, MachineRef
from repro.serve.protocol import ClientConnection, http_request


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

            burst = asyncio.gather(*(one(i) for i in range(128)))
            health_status, _, _ = await http_request(
                host, port, "GET", "/healthz"
            )
            responses = await burst
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
            ("loadgen", ["--bench"]),
            ("loadgen", ["--bench-fleet"]),
            ("loadgen", ["--self-host", "--workers", "2"]),
        ],
        ids=lambda v: v if isinstance(v, str) else "=".join(v),
    )
    def test_bad_number_or_removed_flag_is_a_usage_error(
        self, command, argv, capsys
    ):
        """Rejected while parsing (exit 2), before any server boots."""
        from repro.serve.loadgen import build_loadgen_parser

        parser = {
            "serve": build_serve_parser,
            "loadgen": build_loadgen_parser,
        }[command]()
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
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
            # the drain begins.
            await asyncio.sleep(0.05)
            await app.stop()
            return await asyncio.gather(*inflight)

        responses = run(go())
        assert [status for status, _, _ in responses] == [200] * 8
