"""The closed-loop load driver of the serve tests (tests/closed_loop.py)."""

import asyncio
import math
import socket

import pytest

from repro.machines import get_machine
from repro.obs.metrics import _percentile
from repro.serve.app import ServeApp, ServeConfig
from repro.serve.artifacts import ArtifactRegistry, MachineRef
from tests.closed_loop import PREDICT_GRID_BODY, closed_loop

ADVISE_BODY = {
    "buffers": [
        {"name": "grid", "size_bytes": 8 << 30, "traffic_bytes": 400 << 30},
        {"name": "halo", "size_bytes": 2 << 30, "traffic_bytes": 100 << 30},
        {
            "name": "index",
            "size_bytes": 12 << 30,
            "traffic_bytes": 50 << 30,
            "pattern": "latency",
        },
    ]
}


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
    def test_predict_body_is_a_query_grid(self):
        metrics = {q["metric"] for q in PREDICT_GRID_BODY["queries"]}
        assert metrics == {"latency", "bandwidth", "contention"}


def burst_against(registry, endpoint, bodies, concurrency, requests):
    """Boot a server on ``registry`` and run one closed-loop burst."""
    app = ServeApp(ServeConfig(), registry=registry)

    async def go():
        host, port = await app.start()
        try:
            return await closed_loop(
                host, port, endpoint, bodies,
                concurrency=concurrency, requests=requests,
            )
        finally:
            await app.stop()

    return run(go())


def preset_registry(config, capability, names):
    registry = ArtifactRegistry(persist=False)
    registry.preload(MachineRef(config), capability)
    for name in names:
        registry.preload(MachineRef.of(get_machine(name)), capability)
    return registry


class TestAgainstLiveServer:
    def test_closed_loop_run_counts_every_request(
        self, snc4_flat_config, capability
    ):
        registry = preset_registry(snc4_flat_config, capability, [])
        result = burst_against(
            registry, "/v1/predict", [PREDICT_GRID_BODY],
            concurrency=8, requests=48,
        )
        assert result.status_counts == {200: 48}
        assert result.server_errors == 0 and result.no_answer == 0

    def test_knl_preset_mix_all_answered(self, snc4_flat_config, capability):
        """Request i cycles through two KNL presets; every one is
        answered 200."""
        names = ["knl-7210", "knl-7250"]
        registry = preset_registry(snc4_flat_config, capability, names)
        bodies = [{**PREDICT_GRID_BODY, "machine": name} for name in names]
        result = burst_against(
            registry, "/v1/predict", bodies, concurrency=4, requests=16
        )
        assert result.status_counts == {200: 16}
        assert result.server_errors == 0

    def test_mixed_workload_cycles_machines(
        self, snc4_flat_config, capability
    ):
        """A workload alternating two non-KNL presets: every request
        lands on the artifact named in its body."""
        names = ["numa-2s", "hybrid-hbm"]
        registry = preset_registry(snc4_flat_config, capability, names)
        bodies = [{**PREDICT_GRID_BODY, "machine": name} for name in names]
        result = burst_against(
            registry, "/v1/predict", bodies, concurrency=4, requests=16
        )
        assert result.status_counts == {200: 16}
        assert result.server_errors == 0

    def test_advise_endpoint_under_load(self, snc4_flat_config, capability):
        registry = preset_registry(snc4_flat_config, capability, [])
        result = burst_against(
            registry, "/v1/advise", [ADVISE_BODY], concurrency=4, requests=12
        )
        assert result.status_counts == {200: 12}
        assert result.server_errors == 0


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
            closed_loop(
                "127.0.0.1", dead_port, "/v1/predict", [PREDICT_GRID_BODY],
                concurrency=2, requests=5,
            )
        )
        assert result.no_answer == 5
        assert result.status_counts == {}

    def test_late_reply_is_not_read_as_the_next_answer(self):
        """The first request times out; its reply (201) arrives later.
        The driver must drop that connection, so the second request's
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
                return await closed_loop(
                    "127.0.0.1", port, "/v1/predict", [PREDICT_GRID_BODY],
                    concurrency=1, requests=2, timeout=0.1,
                )
            finally:
                server.close()
                await server.wait_closed()

        result = run(go())
        assert result.no_answer == 1
        assert result.status_counts == {200: 1}
