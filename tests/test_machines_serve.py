"""Machine selection over the wire: /v1/machines and ``"machine":``.

Real sockets, like the rest of the serve suite; cold fits are avoided
by preloading the session-scoped capability model under the presets'
keys, so these tests exercise routing and identity, not benchmarking.
"""

import asyncio

import pytest

from repro.bench import characterize
from repro.machines import DEFAULT_MACHINE, get_machine, list_machines
from repro.model import derive_capability_model
from repro.serve.app import ServeApp, ServeConfig
from repro.serve.artifacts import ArtifactRegistry
from repro.serve.protocol import http_request


def run(coro):
    return asyncio.run(coro)


@pytest.fixture()
def registry(snc4_flat_config, capability):
    reg = ArtifactRegistry(persist=False)
    reg.preload(snc4_flat_config, capability)
    for rm in list_machines():
        reg.preload_machine(rm, capability)
    return reg


@pytest.fixture()
def app(registry):
    return ServeApp(ServeConfig(), registry=registry)


def serve(app, client_coro_factory):
    async def go():
        host, port = await app.start()
        try:
            return await client_coro_factory(host, port)
        finally:
            await app.stop()

    return run(go())


class TestMachinesEndpoint:
    def test_lists_catalog_with_warm_state(self, app):
        async def client(host, port):
            return await http_request(host, port, "GET", "/v1/machines")

        status, _, body = serve(app, client)
        assert status == 200
        names = [m["name"] for m in body["machines"]]
        assert len(names) >= 4 and names == sorted(names)
        by_name = {m["name"]: m for m in body["machines"]}
        assert by_name[DEFAULT_MACHINE]["default"] is True
        assert all(m["warm"] for m in body["machines"])  # preloaded
        keys = {m["cache_key"] for m in body["machines"]}
        assert len(keys) == len(names)

    def test_post_is_405(self, app):
        async def client(host, port):
            return await http_request(
                host, port, "POST", "/v1/machines", {}
            )

        status, _, _ = serve(app, client)
        assert status == 405


class TestMachineSelection:
    def test_predict_carries_machine_name(self, registry, app):
        # numa-2s answers from its own fitted model, not the KNL one the
        # fixture preloaded under every preset.
        rm = get_machine("numa-2s")
        own = derive_capability_model(
            characterize(rm.build(seed=1234), iterations=3, seed=1234)
        )
        registry.preload_machine(rm, own)
        bandwidth = {"metric": "bandwidth", "op": "copy", "kind": "mcdram"}

        async def client(host, port):
            selected = await http_request(
                host, port, "POST", "/v1/predict",
                {
                    "machine": "numa-2s",
                    "queries": [{"metric": "latency",
                                 "location": "local"}, bandwidth],
                },
            )
            default = await http_request(
                host, port, "POST", "/v1/predict", {"queries": [bandwidth]}
            )
            return selected, default

        (status, _, body), (d_status, _, d_body) = serve(app, client)
        assert status == 200 and d_status == 200
        assert body["machine"] == "numa-2s"
        assert body["results"][0]["unit"] == "ns"
        assert body["results"][1]["value"] != d_body["results"][0]["value"]

    def test_default_request_has_no_machine_field(self, app):
        async def client(host, port):
            return await http_request(
                host, port, "POST", "/v1/predict",
                {"queries": [{"metric": "latency", "location": "local"}]},
            )

        status, _, body = serve(app, client)
        assert status == 200 and "machine" not in body

    def test_machine_and_config_conflict_400(self, app):
        async def client(host, port):
            return await http_request(
                host, port, "POST", "/v1/predict",
                {
                    "machine": "numa-2s",
                    "config": {"cluster_mode": "a2a"},
                    "queries": [{"metric": "latency",
                                 "location": "local"}],
                },
            )

        status, _, body = serve(app, client)
        assert status == 400
        assert "mutually exclusive" in body["error"]["message"]

    def test_unknown_machine_400_lists_catalog(self, app):
        async def client(host, port):
            return await http_request(
                host, port, "POST", "/v1/predict",
                {
                    "machine": "cray-1",
                    "queries": [{"metric": "latency",
                                 "location": "local"}],
                },
            )

        status, _, body = serve(app, client)
        assert status == 400
        assert "knl-7210" in body["error"]["message"]

    def test_non_string_machine_400(self, app):
        async def client(host, port):
            return await http_request(
                host, port, "POST", "/v1/predict",
                {
                    "machine": 7,
                    "queries": [{"metric": "latency",
                                 "location": "local"}],
                },
            )

        status, _, _ = serve(app, client)
        assert status == 400

    def test_advise_and_tune_accept_machine(self, app):
        async def client(host, port):
            advise = await http_request(
                host, port, "POST", "/v1/advise",
                {
                    "machine": "hybrid-hbm",
                    "buffers": [{"name": "grid", "size_bytes": 1 << 30,
                                 "traffic_bytes": 10 << 30}],
                },
            )
            tune = await http_request(
                host, port, "POST", "/v1/tune",
                {"machine": "hybrid-hbm", "target": "barrier", "n": 16},
            )
            return advise, tune

        (a_status, _, a_body), (t_status, _, t_body) = serve(app, client)
        assert a_status == 200 and a_body["machine"] == "hybrid-hbm"
        assert t_status == 200 and t_body["machine"] == "hybrid-hbm"


class TestRegistryMachineIdentity:
    def test_preset_and_raw_config_never_share_keys(
        self, registry, snc4_flat_config
    ):
        for rm in list_machines():
            assert registry.key_for_machine(rm) != registry.key_for(
                rm.to_machine_config()
            )
        # Nor do any two presets share one.
        keys = {registry.key_for_machine(rm) for rm in list_machines()}
        assert len(keys) == len(list_machines())

    def test_single_flight_per_machine(self, capability):
        """N concurrent cold requests for one preset → one fit."""
        reg = ArtifactRegistry(persist=False, iterations=1)
        rm = get_machine("knl-7250")
        fits = 0
        real = reg._fit_machine

        def counting(key, spec):
            nonlocal fits
            fits += 1
            return real(key, spec)

        reg._fit_machine = counting

        async def go():
            return await asyncio.gather(
                *(reg.get_machine(rm) for _ in range(8))
            )

        artifacts = run(go())
        assert fits == 1
        assert len({a.key for a in artifacts}) == 1
        assert artifacts[0].machine == "knl-7250"

    def test_machine_for_rebuilds_preset_overrides(self, registry):
        rm = get_machine("numa-2s")

        async def go():
            return await registry.get_machine(rm)

        artifact = run(go())
        machine = registry.machine_for(artifact)
        assert machine.machine_id == "numa-2s"
        assert machine.calibration.l1_ns == 1.5  # preset override applied

    def test_disk_roundtrip_keeps_machine_name(
        self, tmp_path, capability
    ):
        rm = get_machine("knl-7250")
        writer = ArtifactRegistry(directory=str(tmp_path), persist=True)
        writer.preload_machine(rm, capability, persist=True)
        reader = ArtifactRegistry(directory=str(tmp_path), persist=True)

        async def go():
            return await reader.get_machine(rm)

        artifact = run(go())
        assert artifact.source == "store"
        assert artifact.machine == "knl-7250"


class TestFleetMachines:
    def test_front_end_answers_locally(self, capability, snc4_flat_config):
        from repro.serve.fleet import Fleet, FleetConfig

        async def go():
            fleet = Fleet(
                FleetConfig(
                    workers=1,
                    worker=ServeConfig(persist_artifacts=False),
                ),
                warm_model=capability.to_dict(),
            )
            host, port = await fleet.start()
            try:
                return await http_request(
                    host, port, "GET", "/v1/machines"
                )
            finally:
                await fleet.stop()

        status, _, body = run(go())
        assert status == 200
        names = [m["name"] for m in body["machines"]]
        assert len(names) >= 4 and "numa-2s" in names
        # Warmth aggregates across workers (a bool plus the per-worker
        # breakdown — the old front end answered null here).
        for m in body["machines"]:
            assert isinstance(m["warm"], bool)
            assert set(m["workers"]) == {"w0"}
            # Only the raw default config was preloaded; every preset
            # is cold on the lone worker.
            assert m["warm"] is False
            assert m["workers"]["w0"]["version"] is None
