"""The compiled-plan predict path of the query service.

The compiled plan is the server's only predict evaluator and validator.
The tests drive a real ``ServeApp`` over loopback and compare every
served ``/v1/predict`` body byte for byte with the scalar oracle
(:func:`repro.model.vector.predict_one` per query after
``compile_queries``' list-level validation, built the way
``perfbench/oracle.py`` builds it).  Edge cases: a single-element
batch, an all-duplicates batch, mixed machine presets coalesced into
one window, error bodies (structural errors win over model-dependent
ones), a count beyond float64 beside a valid batchmate, and a
deadline-cancelled waiter sharing a vector evaluation.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.errors import ModelError
from repro.machines import get_machine
from repro.model.vector import compile_queries, predict_one
from repro.obs import reset_metrics
from repro.serve.app import ServeApp, ServeConfig, _PlanEntry
from repro.serve.artifacts import (
    ArtifactRegistry,
    MachineRef,
    config_from_json,
)
from repro.serve.protocol import ClientConnection, http_request


def run(coro):
    return asyncio.run(coro)


def make_registry(snc4_flat_config, capability, machines=()):
    registry = ArtifactRegistry(persist=False)
    registry.preload(MachineRef(snc4_flat_config), capability)
    for name in machines:
        registry.preload(MachineRef.of(get_machine(name)), capability)
    return registry


def make_app(snc4_flat_config, capability, machines=(), **config_kw):
    return ServeApp(
        ServeConfig(**config_kw),
        registry=make_registry(snc4_flat_config, capability, machines),
    )


def serve(app, client_coro_factory):
    async def go():
        host, port = await app.start()
        try:
            return await client_coro_factory(host, port)
        finally:
            await app.stop()

    return run(go())


def oracle_response(capability, body):
    """``(status, bytes)`` the scalar oracle expects for a predict body:
    list-level validation by ``compile_queries`` (structural errors
    first), then ``predict_one`` per query."""
    queries = body.get("queries")
    try:
        compile_queries(queries)
        results = [predict_one(capability, q) for q in queries]
    except ModelError as e:
        payload = {"error": {"status": 400, "message": str(e)}}
        return 400, json.dumps(payload, sort_keys=True).encode()
    payload = {"config_label": capability.config_label, "results": results}
    if body.get("machine") is not None:
        payload["machine"] = body["machine"]
    return 200, json.dumps(payload, sort_keys=True).encode()


def served_and_oracle(
    snc4_flat_config, capability, client_factory, bodies, machines=()
):
    """Served ``(status, headers, bytes)`` per body from one app, and the
    oracle's ``(status, bytes)`` for the same bodies."""
    app = make_app(snc4_flat_config, capability, machines=machines)
    served = serve(app, client_factory)
    return served, [oracle_response(capability, b) for b in bodies]


async def raw_post(host, port, body):
    conn = ClientConnection(host, port)
    try:
        return await conn.request_bytes(
            "POST", "/v1/predict", json.dumps(body).encode()
        )
    finally:
        await conn.close()


class TestByteIdentityOverHttp:
    def test_single_element_batch(self, snc4_flat_config, capability):
        """A lone request — batch of one, plan-cache cold then warm —
        answers with the oracle's exact bytes."""
        body = {"queries": [
            {"metric": "latency", "location": "tile", "state": "M"},
            {"metric": "contention", "n": 5},
            {"metric": "multiline", "location": "remote", "bytes": 8192},
        ]}

        async def client(host, port):
            cold = await raw_post(host, port, body)
            warm = await raw_post(host, port, body)
            return cold, warm

        vec, scal = served_and_oracle(
            snc4_flat_config, capability, client, [body, body]
        )
        for (vs, _h, vb), (ss, sb) in zip(vec, scal):
            assert vs == ss == 200
            assert vb == sb
        assert vec[0][2] == vec[1][2]  # warm render equals cold render

    def test_error_bodies_match_scalar(self, snc4_flat_config, capability):
        mixed = {"queries": [
            {"metric": "latency", "location": "tile", "state": "Z"},
            {"metric": "bogus"},
        ]}
        bodies = [
            {"queries": [{"metric": "latency", "location": "mars"}]},
            {"queries": [{"metric": "contention", "n": 0}]},
            {"queries": [
                {"metric": "latency", "location": "tile", "state": "Z"}
            ]},
            {"queries": []},
            mixed,
        ]

        async def client(host, port):
            return [await raw_post(host, port, b) for b in bodies]

        vec, scal = served_and_oracle(
            snc4_flat_config, capability, client, bodies
        )
        for (vs, _h, vb), (ss, sb) in zip(vec, scal):
            assert vs == ss == 400
            assert vb == sb
        # A model-dependent error (state "Z") before a structural one
        # (metric "bogus"): the structural error wins.
        message = json.loads(vec[-1][2])["error"]["message"]
        assert "got 'bogus'" in message


class TestBatchShapes:
    def test_all_duplicates_batch_evaluates_once(
        self, snc4_flat_config, capability
    ):
        """64 byte-identical concurrent requests: dedup collapses the
        batch to one plan, one fused evaluation."""
        reset_metrics()
        app = make_app(snc4_flat_config, capability)
        body = {"queries": [{"metric": "contention", "n": 9}]}

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
        first = responses[0][2]
        assert all(body == first for _, _, body in responses)
        plans = metrics["serve.vector.plans"]["value"]
        evaluations = metrics["serve.batch.evaluations"]["value"]
        assert plans <= evaluations <= 8
        assert metrics.get("serve.errors", {}).get("value", 0) == 0

    def test_mixed_machine_presets_in_one_window(
        self, snc4_flat_config, capability
    ):
        """Requests naming different presets coalesce into one batch
        but group per artifact; each answer carries its own machine
        name and matches the oracle's bytes."""
        machines = ("knl-7210", "knl-7250")
        bodies = [
            {"machine": name, "queries": [
                {"metric": "latency", "location": "local"},
                {"metric": "contention", "n": n},
            ]}
            for name in machines
            for n in (2, 3, 4)
        ]

        async def client(host, port):
            return await asyncio.gather(
                *(raw_post(host, port, b) for b in bodies)
            )

        reset_metrics()
        vec, scal = served_and_oracle(
            snc4_flat_config, capability, client, bodies, machines=machines
        )
        for body, (vs, _h, vb), (ss, sb) in zip(bodies, vec, scal):
            assert vs == ss == 200
            assert vb == sb
            assert json.loads(vb)["machine"] == body["machine"]

    def test_unfitted_plan_falls_back_without_poisoning_the_batch(
        self, snc4_flat_config, capability
    ):
        """One unanswerable plan in a batch 400s with the oracle's
        message; its batchmates still answer 200."""
        good = {"queries": [{"metric": "latency", "location": "local"}]}
        bad = {"queries": [
            {"metric": "latency", "location": "tile", "state": "Z"}
        ]}

        async def client(host, port):
            return await asyncio.gather(
                raw_post(host, port, good), raw_post(host, port, bad)
            )

        vec, scal = served_and_oracle(
            snc4_flat_config, capability, client, [good, bad]
        )
        assert [s for s, _, _ in vec] == [200, 400]
        for (vs, _h, vb), (ss, sb) in zip(vec, scal):
            assert vs == ss and vb == sb

    def test_count_beyond_float64_answers_400_beside_a_200(
        self, snc4_flat_config, capability
    ):
        """A count of 401 digits in one body of a coalesced batch: that
        body answers 400, its batchmate 200, and the server keeps
        answering ``/healthz``."""
        good = {"queries": [{"metric": "contention", "n": 4}]}
        huge = {"queries": [{"metric": "contention", "n": 10 ** 400}]}
        app = make_app(snc4_flat_config, capability, window_s=0.05)

        async def client(host, port):
            served = await asyncio.gather(
                raw_post(host, port, good), raw_post(host, port, huge)
            )
            health, _, _ = await http_request(host, port, "GET", "/healthz")
            return served, health

        served, health = serve(app, client)
        assert [s for s, _, _ in served] == [200, 400]
        for (status, _h, body), want in zip(
            served, [oracle_response(capability, b) for b in (good, huge)]
        ):
            assert (status, body) == want
        assert "must fit a float64" in json.loads(served[1][2])["error"][
            "message"
        ]
        assert health == 200

    def test_unexpected_compile_failure_is_a_500_for_that_body_only(
        self, snc4_flat_config, capability, monkeypatch
    ):
        """An exception other than ModelError while compiling one body
        answers 500 for that body alone and ticks ``serve.errors``."""
        import repro.serve.app as app_mod

        real = app_mod.compile_queries

        def flaky(queries):
            if queries == [{"metric": "contention", "n": 13}]:
                raise RuntimeError("compiler bug")
            return real(queries)

        monkeypatch.setattr(app_mod, "compile_queries", flaky)
        reset_metrics()
        good = {"queries": [{"metric": "contention", "n": 4}]}
        bad = {"queries": [{"metric": "contention", "n": 13}]}
        app = make_app(snc4_flat_config, capability, window_s=0.05)

        async def client(host, port):
            served = await asyncio.gather(
                raw_post(host, port, good), raw_post(host, port, bad)
            )
            _, _, m = await http_request(host, port, "GET", "/metrics")
            return served, m["metrics"]

        served, metrics = serve(app, client)
        assert [s for s, _, _ in served] == [200, 500]
        assert served[0][2] == oracle_response(capability, good)[1]
        assert "compiler bug" in json.loads(served[1][2])["error"]["message"]
        assert metrics["serve.errors"]["value"] == 1


class TestCancelledWaiter:
    def test_deadline_cancelled_waiter_during_shared_evaluation(
        self, snc4_flat_config, capability
    ):
        """Two deduped waiters share one vector evaluation; one is
        cancelled (the deadline path) mid-flight.  The survivor still
        gets the full 200 — cancellation never kills shared work."""
        app = make_app(snc4_flat_config, capability, window_s=0.02)
        body = {"queries": [{"metric": "contention", "n": 11}]}
        item = {
            "endpoint": "/v1/predict",
            "raw": json.dumps(body).encode(),
        }

        async def go():
            await app.start()
            try:
                doomed = asyncio.create_task(
                    app.batcher.submit("shared", dict(item))
                )
                survivor = asyncio.create_task(
                    app.batcher.submit("shared", dict(item))
                )
                await asyncio.sleep(0.005)  # inside the window
                doomed.cancel()
                outcome = await survivor
                with pytest.raises(asyncio.CancelledError):
                    await doomed
                return outcome
            finally:
                await app.stop()

        outcome = run(go())
        assert outcome.status == 200
        results = json.loads(outcome.response().body)["results"]
        assert results[0]["metric"] == "contention"


class TestPlanCache:
    def test_lru_stays_bounded(self, snc4_flat_config, capability):
        from repro.serve.app import _PLAN_CACHE_SIZE

        app = make_app(snc4_flat_config, capability)
        for i in range(_PLAN_CACHE_SIZE + 40):
            entry = app._plan_compile(
                f"ck-{i}",
                {"queries": [{"metric": "contention", "n": i + 1}]},
                app.ref_for(None, None),
            )
            assert entry is not None
        assert len(app._plan_cache) == _PLAN_CACHE_SIZE
        # Most recent keys survive, oldest evicted.
        assert app._plan_hit(f"ck-{_PLAN_CACHE_SIZE + 39}") is not None
        assert app._plan_hit("ck-0") is None

    def test_invalid_queries_are_not_cached(
        self, snc4_flat_config, capability
    ):
        app = make_app(snc4_flat_config, capability)
        with pytest.raises(ModelError, match="non-empty 'queries' list"):
            app._plan_compile(
                "bad", {"queries": "nope"}, app.ref_for(None, None)
            )
        assert app._plan_hit("bad") is None

    def test_render_cache_reused_across_batches(
        self, snc4_flat_config, capability
    ):
        reset_metrics()
        app = make_app(snc4_flat_config, capability)
        body = {"queries": [{"metric": "latency", "location": "local"}]}

        async def client(host, port):
            for _ in range(3):
                await raw_post(host, port, body)
            _, _, m = await http_request(host, port, "GET", "/metrics")
            return m["metrics"]

        metrics = serve(app, client)
        assert metrics["serve.vector.render_cache.hits"]["value"] >= 1
        assert metrics["serve.vector.plan_cache.hits"]["value"] >= 1
        assert metrics["serve.vector.plan_cache.misses"]["value"] == 1


class TestRenderTemplate:
    def test_render_matches_sorted_json_dumps(self, capability):
        """The pre-rendered skeleton reproduces
        ``json.dumps(payload, sort_keys=True)`` byte for byte."""
        queries = [
            {"metric": "latency", "location": "local"},
            {"metric": "bandwidth", "op": "copy", "kind": "mcdram"},
            {"metric": "contention", "n": 33},
        ]
        plan = compile_queries(queries)
        entry = _PlanEntry(plan, MachineRef.of(get_machine("knl-7210")))
        from repro.model.vector import evaluate_plan_values

        (values,) = evaluate_plan_values(capability, [plan])
        rendered = entry.render(
            capability.config_label, "knl-7210", values
        )
        payload = {
            "config_label": capability.config_label,
            "machine": "knl-7210",
            "results": plan.results(values),
        }
        assert rendered == json.dumps(payload, sort_keys=True).encode()

    def test_render_without_machine_field(self, capability):
        plan = compile_queries([{"metric": "contention", "n": 2}])
        entry = _PlanEntry(
            plan, MachineRef(config_from_json({"memory_mode": "flat"}))
        )
        from repro.model.vector import evaluate_plan_values

        (values,) = evaluate_plan_values(capability, [plan])
        rendered = entry.render(capability.config_label, None, values)
        payload = {
            "config_label": capability.config_label,
            "results": plan.results(values),
        }
        assert rendered == json.dumps(payload, sort_keys=True).encode()

    def test_non_finite_values_spell_like_json_dumps(self, capability):
        """NaN and infinities render as ``json.dumps`` spells them, and
        the finite values beside them keep their repr."""
        plan = compile_queries(
            [{"metric": "contention", "n": n} for n in (2, 3, 4, 5)]
        )
        entry = _PlanEntry(plan, MachineRef(config_from_json(None)))
        values = np.array([float("nan"), float("inf"), -float("inf"), 0.1])
        rendered = entry.render(capability.config_label, None, values)
        payload = {
            "config_label": capability.config_label,
            "results": plan.results(values),
        }
        assert rendered == json.dumps(payload, sort_keys=True).encode()
        assert b"NaN" in rendered and b"-Infinity" in rendered
