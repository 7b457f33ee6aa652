"""Store ↔ serve integration: hot swap, canary routing, byte identity.

These tests boot a real ``ServeApp`` over a *persistent* store in a
temp directory, publish new versions behind its back (as the CLI or
another process would), and drive ``POST /v1/admin/reload`` — the
single-process half of the hot-swap story; the fleet-level half lives
in ``tests/test_serve_fleet.py::TestFleetReload``.
"""

import asyncio
import json

import pytest

from repro.obs import reset_metrics
from repro.serve.app import ServeApp, ServeConfig
from repro.serve.artifacts import ArtifactRegistry
from repro.serve.protocol import ClientConnection, content_key, http_request
from repro.serve.router import VersionRing


def run(coro):
    return asyncio.run(coro)


PREDICT_BODY = {"queries": [{"metric": "latency", "location": "local"}]}


def distinct_bodies(n):
    """Distinct content keys whose first query pins down the serving
    version (latency/local reads the model's ``r_local`` directly)."""
    return [
        {
            "queries": [
                {"metric": "latency", "location": "local"},
                {"metric": "contention", "n": 8 + i},
            ]
        }
        for i in range(n)
    ]


def variant_payload(capability, delta):
    """A genuinely different model: ``r_local`` shifted by ``delta``."""
    doc = capability.to_dict()
    doc["r_local"] = doc["r_local"] + delta
    return doc


@pytest.fixture()
def registry(tmp_path, snc4_flat_config, capability):
    registry = ArtifactRegistry(directory=str(tmp_path), persist=True)
    registry.preload(snc4_flat_config, capability, persist=True)
    return registry


def serve(registry, client_coro_factory):
    app = ServeApp(ServeConfig(), registry=registry)

    async def go():
        host, port = await app.start()
        try:
            return await client_coro_factory(host, port)
        finally:
            await app.stop()

    return run(go())


async def predict_value(host, port, body=PREDICT_BODY):
    status, _, doc = await http_request(
        host, port, "POST", "/v1/predict", body
    )
    assert status == 200, doc
    return doc["results"][0]["value"]


class TestHotSwap:
    def test_reload_swaps_to_the_new_latest(
        self, registry, snc4_flat_config, capability
    ):
        """Publish v2 behind the running server's back; the reload
        endpoint swaps it in without a restart."""
        slot = registry.key_for(snc4_flat_config)
        v2_payload = variant_payload(capability, 1.0)

        async def client(host, port):
            before = await predict_value(host, port)
            registry.store.publish(slot, v2_payload, timestamp=1.0)
            status, _, doc = await http_request(
                host, port, "POST", "/v1/admin/reload"
            )
            assert status == 200 and doc["status"] == "ok"
            assert doc["slots"][slot]["swapped"] is True
            after = await predict_value(host, port)
            return before, after

        before, after = serve(registry, client)
        assert before == pytest.approx(capability.RL)
        assert after == pytest.approx(capability.RL + 1.0)
        assert registry.active_version(slot) is not None

    def test_rollback_restores_byte_identical_responses(
        self, registry, snc4_flat_config, capability
    ):
        """The acceptance bound: after publish → reload → rollback →
        reload, ``/v1/predict`` responses are byte-identical to the
        pre-publish baseline."""
        slot = registry.key_for(snc4_flat_config)
        raw = json.dumps(PREDICT_BODY).encode()

        async def client(host, port):
            conn = ClientConnection(host, port)
            try:
                _s, _h, baseline = await conn.request_bytes(
                    "POST", "/v1/predict", raw
                )
                registry.store.publish(
                    slot, variant_payload(capability, 1.0), timestamp=1.0
                )
                await http_request(host, port, "POST", "/v1/admin/reload")
                _s, _h, swapped = await conn.request_bytes(
                    "POST", "/v1/predict", raw
                )
                registry.store.rollback(slot)
                await http_request(host, port, "POST", "/v1/admin/reload")
                _s, _h, restored = await conn.request_bytes(
                    "POST", "/v1/predict", raw
                )
                return baseline, swapped, restored
            finally:
                await conn.close()

        baseline, swapped, restored = serve(registry, client)
        assert swapped != baseline  # v2 really served in between
        assert restored == baseline

    def test_republishing_identical_payload_swaps_nothing(
        self, registry, snc4_flat_config, capability
    ):
        """Identical payload → same version id → reload reports the
        slot untouched and responses stay byte-identical."""
        slot = registry.key_for(snc4_flat_config)
        raw = json.dumps(PREDICT_BODY).encode()

        async def client(host, port):
            conn = ClientConnection(host, port)
            try:
                _s, _h, baseline = await conn.request_bytes(
                    "POST", "/v1/predict", raw
                )
                registry.store.publish(
                    slot, capability.to_dict(), timestamp=99.0
                )
                status, _, doc = await http_request(
                    host, port, "POST", "/v1/admin/reload"
                )
                assert status == 200
                assert doc["slots"][slot]["swapped"] is False
                _s, _h, after = await conn.request_bytes(
                    "POST", "/v1/predict", raw
                )
                return baseline, after
            finally:
                await conn.close()

        baseline, after = serve(registry, client)
        assert after == baseline

    def test_reload_is_post_only(self, registry):
        async def client(host, port):
            status, _, _ = await http_request(
                host, port, "GET", "/v1/admin/reload"
            )
            return status

        assert serve(registry, client) == 405


class TestCanaryRouting:
    def test_per_body_routing_matches_the_version_ring_exactly(
        self, registry, snc4_flat_config, capability
    ):
        """Every body lands on the version :class:`VersionRing` says it
        should — not a statistical split, an exact per-key match."""
        slot = registry.key_for(snc4_flat_config)
        registry.store.publish(
            slot,
            variant_payload(capability, 1.0),
            timestamp=1.0,
            canary_percent=25.0,
        )
        registry.reload()
        bodies = distinct_bodies(32)
        ring = VersionRing(25.0)
        keys = [content_key("/v1/predict", json.dumps(b).encode())
                for b in bodies]
        expected = [ring.version_for(k) == "canary" for k in keys]
        # A 25% ring over 32 keys that routed nothing either way would
        # make this test vacuous; the split is deterministic, so assert
        # both versions actually appear.
        assert any(expected) and not all(expected)

        async def client(host, port):
            observed = []
            for body in bodies:
                value = await predict_value(host, port, body)
                observed.append(value == pytest.approx(capability.RL + 1.0))
            return observed

        observed = serve(registry, client)
        assert observed == expected

    def test_unloadable_canary_falls_back_to_stable(
        self, tmp_path, snc4_flat_config, capability
    ):
        """A canary that cannot load serves stable, never a 500 — a bad
        canary must not take down the slot."""
        seeder = ArtifactRegistry(directory=str(tmp_path), persist=True)
        seeder.preload(snc4_flat_config, capability, persist=True)
        slot = seeder.key_for(snc4_flat_config)
        rec = seeder.store.publish(
            slot,
            variant_payload(capability, 1.0),
            timestamp=1.0,
            canary_percent=50.0,
        )
        # Corrupt the canary's version file, then serve from a *fresh*
        # registry whose memory tier has never seen it.
        path = seeder.store.version_path(rec.version_id)
        with open(path, "w") as fh:
            fh.write("{torn write")
        registry = ArtifactRegistry(directory=str(tmp_path), persist=True)
        registry.preload(snc4_flat_config, capability, persist=False)

        async def client(host, port):
            return [
                await predict_value(host, port, body)
                for body in distinct_bodies(16)
            ]

        values = serve(registry, client)
        assert values == [pytest.approx(capability.RL)] * 16

    def test_request_counters_split_by_version_label(
        self, registry, snc4_flat_config, capability
    ):
        # Version ids repeat across tests (same payload, same slot), so
        # the process-global counters would otherwise accumulate.
        reset_metrics()
        slot = registry.key_for(snc4_flat_config)
        rec = registry.store.publish(
            slot,
            variant_payload(capability, 1.0),
            timestamp=1.0,
            canary_percent=25.0,
        )
        registry.reload()
        stable_vid = registry.active_version(slot)
        bodies = distinct_bodies(32)

        async def client(host, port):
            for body in bodies:
                await predict_value(host, port, body)
            _, _, doc = await http_request(host, port, "GET", "/metrics")
            return doc["metrics"]

        metrics = serve(registry, client)
        per_version = {
            name: m["value"]
            for name, m in metrics.items()
            if name.startswith("serve.store.requests{")
        }
        canary_label = f'serve.store.requests{{version="{rec.version_id[:12]}"}}'
        stable_label = f'serve.store.requests{{version="{stable_vid[:12]}"}}'
        assert per_version.get(canary_label, 0) > 0
        assert per_version.get(stable_label, 0) > 0
        assert (
            per_version[canary_label] + per_version[stable_label]
            == len(bodies)
        )


class TestColdStart:
    def test_a_cold_registry_serves_the_published_latest(
        self, tmp_path, snc4_flat_config, capability
    ):
        """A fresh process with an empty warm set resolves the slot from
        the store — no fit on the request path."""
        seeder = ArtifactRegistry(directory=str(tmp_path), persist=True)
        seeder.preload(snc4_flat_config, capability, persist=True)
        cold = ArtifactRegistry(directory=str(tmp_path), persist=True)
        artifact = run(cold.get(snc4_flat_config))
        assert artifact.source == "store"
        assert artifact.capability.RL == pytest.approx(capability.RL)
        assert artifact.version == seeder.active_version(
            seeder.key_for(snc4_flat_config)
        )
