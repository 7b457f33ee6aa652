"""Closed-loop load generator."""

import asyncio
import json
import math
import socket

import pytest

from repro.errors import ReproError
from repro.serve.app import ServeApp, ServeConfig
from repro.serve.artifacts import ArtifactRegistry
from repro.serve.loadgen import (
    DEFAULT_ADVISE_BODY,
    DEFAULT_PREDICT_BODY,
    LoadgenResult,
    _percentile,
    build_loadgen_parser,
    default_body,
    run_loadgen,
    write_bench,
)


def run(coro):
    return asyncio.run(coro)


class TestPercentile:
    def test_interpolates(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert _percentile(data, 0.0) == 1.0
        assert _percentile(data, 1.0) == 4.0
        assert _percentile(data, 0.5) == pytest.approx(2.5)

    def test_degenerate_inputs(self):
        assert math.isnan(_percentile([], 0.5))
        assert _percentile([7.0], 0.95) == 7.0


class TestDefaults:
    def test_default_bodies_cover_all_endpoints(self):
        assert default_body("/v1/predict") is DEFAULT_PREDICT_BODY
        assert default_body("/v1/advise") is DEFAULT_ADVISE_BODY
        assert default_body("/v1/tune")["target"] == "barrier"
        with pytest.raises(ReproError):
            default_body("/v1/nope")

    def test_predict_body_is_a_query_grid(self):
        metrics = {q["metric"] for q in DEFAULT_PREDICT_BODY["queries"]}
        assert metrics == {"latency", "bandwidth", "contention"}


class TestSummarize:
    def test_percentiles_and_status_classes(self):
        result = LoadgenResult(
            endpoint="/v1/predict",
            concurrency=4,
            requests=6,
            duration_s=2.0,
            latencies_ms=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            status_counts={200: 4, 429: 1, 500: 1},
        )
        assert result.ok == 4 and result.shed == 1
        assert result.server_errors == 1
        stats = result.summarize()
        assert stats["throughput_rps"] == pytest.approx(3.0)
        assert stats["p50_ms"] == pytest.approx(3.5)
        assert stats["max_ms"] == 6.0
        json.dumps(stats)  # --out writes it as-is

    def test_validation(self):
        async def go():
            await run_loadgen("h", 0, concurrency=0, requests=1)

        with pytest.raises(ReproError):
            run(go())

    def test_per_label_breakout(self):
        result = LoadgenResult(
            endpoint="/v1/predict",
            concurrency=2,
            requests=5,
            duration_s=1.0,
            latencies_ms=[1.0, 2.0, 3.0, 4.0, 5.0],
            status_counts={200: 4, 400: 1},
            label_latencies_ms={
                "knl-7210": [1.0, 3.0, 5.0],
                "numa-2s": [2.0, 4.0],
            },
            label_ok={"knl-7210": 3, "numa-2s": 1},
        )
        stats = result.summarize()
        per = stats["per_label"]
        assert sorted(per) == ["knl-7210", "numa-2s"]
        assert per["knl-7210"]["requests"] == 3
        assert per["knl-7210"]["ok"] == 3
        assert per["knl-7210"]["p50_ms"] == pytest.approx(3.0)
        assert per["numa-2s"]["ok"] == 1
        assert per["numa-2s"]["mean_ms"] == pytest.approx(3.0)
        json.dumps(stats)

    def test_no_labels_no_per_label_key(self):
        result = LoadgenResult(
            endpoint="/v1/predict", concurrency=1, requests=1,
            duration_s=1.0, latencies_ms=[1.0], status_counts={200: 1},
        )
        assert "per_label" not in result.summarize()

    def test_label_body_mismatch_rejected(self):
        async def go():
            await run_loadgen(
                "h", 0,
                bodies=[{"a": 1}, {"a": 2}],
                body_labels=["only-one"],
            )

        with pytest.raises(ReproError, match="1:1"):
            run(go())


class TestAgainstLiveServer:
    def test_closed_loop_run_counts_every_request(
        self, snc4_flat_config, capability
    ):
        registry = ArtifactRegistry(persist=False)
        registry.preload(snc4_flat_config, capability)
        app = ServeApp(ServeConfig(), registry=registry)

        async def go():
            host, port = await app.start()
            try:
                return await run_loadgen(
                    host, port,
                    endpoint="/v1/predict",
                    concurrency=8,
                    requests=48,
                )
            finally:
                await app.stop()

        result = run(go())
        assert result.ok == 48 and result.server_errors == 0
        assert len(result.latencies_ms) == 48
        stats = result.summarize()
        assert stats["p50_ms"] <= stats["p95_ms"] <= stats["max_ms"]
        assert stats["throughput_rps"] > 0

    def test_machines_mix_breaks_out_per_preset(
        self, snc4_flat_config, capability
    ):
        """The --machines A,B workload: request i cycles through the
        presets and the summary carries per-preset p50/p95."""
        from repro.machines import get_machine

        names = ["knl-7210", "knl-7250"]
        registry = ArtifactRegistry(persist=False)
        registry.preload(snc4_flat_config, capability)
        for name in names:
            registry.preload_machine(get_machine(name), capability)
        app = ServeApp(ServeConfig(), registry=registry)
        bodies = [
            {**DEFAULT_PREDICT_BODY, "machine": name} for name in names
        ]

        async def go():
            host, port = await app.start()
            try:
                return await run_loadgen(
                    host, port,
                    endpoint="/v1/predict",
                    bodies=bodies,
                    body_labels=names,
                    concurrency=4,
                    requests=16,
                )
            finally:
                await app.stop()

        result = run(go())
        assert result.ok == 16 and result.server_errors == 0
        stats = result.summarize()
        per = stats["per_label"]
        assert sorted(per) == sorted(names)
        for name in names:
            assert per[name]["requests"] == 8
            assert per[name]["ok"] == 8
            assert per[name]["p50_ms"] <= per[name]["p95_ms"]

    def test_advise_endpoint_under_load(self, snc4_flat_config, capability):
        registry = ArtifactRegistry(persist=False)
        registry.preload(snc4_flat_config, capability)
        app = ServeApp(ServeConfig(), registry=registry)

        async def go():
            host, port = await app.start()
            try:
                return await run_loadgen(
                    host, port,
                    endpoint="/v1/advise",
                    concurrency=4,
                    requests=12,
                )
            finally:
                await app.stop()

        result = run(go())
        assert result.ok == 12 and result.server_errors == 0


@pytest.fixture
def dead_port():
    """A local port with no listener: bound, never listening, so every
    connect is refused and no other process can take it meanwhile."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        yield sock.getsockname()[1]


class TestTransportFailures:
    def test_refused_requests_count_as_no_answer(self, dead_port):
        result = run(
            run_loadgen("127.0.0.1", dead_port, concurrency=2, requests=5)
        )
        assert result.no_answer == 5
        assert result.status_counts == {} and result.latencies_ms == []
        stats = result.summarize()
        assert stats["no_answer"] == 5 and stats["ok"] == 0
        assert stats["throughput_rps"] == 0

    def test_cli_exits_1_when_requests_get_no_answer(
        self, dead_port, tmp_path, capsys
    ):
        from repro.serve.loadgen import main_loadgen

        out = tmp_path / "loadgen.json"
        code = main_loadgen([
            "--port", str(dead_port), "--concurrency", "2",
            "--requests", "3", "--quiet", "--out", str(out),
        ])
        assert code == 1
        assert json.loads(out.read_text())["no_answer"] == 3

    def test_late_reply_is_not_read_as_the_next_answer(self):
        """The first request times out; its reply (201) arrives later.
        The loadgen must drop that connection, so the second request's
        answer is the server's 200 to it, not the stale 201."""
        from repro.serve.protocol import Response, read_request, write_response

        async def go():
            seen = 0

            async def handle(reader, writer):
                nonlocal seen
                try:
                    while await read_request(reader) is not None:
                        seen += 1
                        if seen == 1:
                            await asyncio.sleep(0.3)
                            await write_response(writer, Response(status=201))
                        else:
                            await write_response(writer, Response(status=200))
                except ConnectionError:
                    pass
                finally:
                    writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await run_loadgen(
                    "127.0.0.1", port, concurrency=1, requests=2,
                    timeout=0.1,
                )
            finally:
                server.close()
                await server.wait_closed()

        result = run(go())
        assert result.no_answer == 1
        assert result.status_counts == {200: 1}


class TestBenchArtifacts:
    def test_write_bench_round_trips(self, tmp_path):
        doc = {"levels": [{"concurrency": 1}]}
        path = tmp_path / "bench.json"
        write_bench(str(path), doc)
        assert json.loads(path.read_text()) == doc


class TestLoadgenCli:
    def test_parser_defaults(self):
        args = build_loadgen_parser().parse_args(["--self-host"])
        assert args.endpoint == "/v1/predict"
        assert args.concurrency == 8 and args.requests == 256
        assert args.self_host

    def test_unknown_endpoint_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_loadgen_parser().parse_args(["--endpoint", "/v1/bogus"])

    def test_target_is_required(self, capsys):
        from repro.serve.loadgen import main_loadgen

        with pytest.raises(SystemExit) as exc:
            main_loadgen([])
        assert exc.value.code == 2
        assert "--self-host" in capsys.readouterr().err


class TestMachineFlags:
    def test_machine_and_machines_are_mutually_exclusive(self, capsys):
        from repro.serve.loadgen import main_loadgen

        with pytest.raises(SystemExit) as exc:
            main_loadgen([
                "--self-host", "--machine", "numa-2s",
                "--machines", "numa-2s,hybrid-hbm",
            ])
        assert exc.value.code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_mixed_workload_cycles_machines(
        self, snc4_flat_config, capability
    ):
        """A bodies= workload alternating two presets: every request
        lands on the artifact named in its body."""
        from repro.machines import list_machines
        from repro.serve.loadgen import default_body

        registry = ArtifactRegistry(persist=False)
        registry.preload(snc4_flat_config, capability)
        for rm in list_machines():
            registry.preload_machine(rm, capability)
        app = ServeApp(ServeConfig(), registry=registry)
        base = default_body("/v1/predict")
        bodies = [
            {**base, "machine": n} for n in ("numa-2s", "hybrid-hbm")
        ]

        async def go():
            host, port = await app.start()
            try:
                return await run_loadgen(
                    host, port,
                    endpoint="/v1/predict",
                    concurrency=4,
                    requests=16,
                    bodies=bodies,
                )
            finally:
                await app.stop()

        result = run(go())
        assert result.ok == 16 and result.server_errors == 0
