"""repro.serve — the batched capability-model query service.

The paper's payoff (§VII) is a *query*: describe a workload, get back
placements, collective schedules, and predicted costs.  Fitting the
model is expensive (a full microbenchmark campaign); answering with it
is arithmetic.  This package serves that asymmetry at scale:

* :mod:`~repro.serve.artifacts` — fitted models, content-addressed via
  the same SHA-256 scheme as :mod:`repro.runtime.cache`, warm
  in-process, persisted to disk, cold fits single-flighted;
* :mod:`~repro.serve.batcher` — micro-batching dispatcher: concurrent
  queries coalesce within a 2 ms window, identical queries share one
  evaluation, a bounded admission count sheds overload with 429;
* :mod:`~repro.serve.app` — the asyncio HTTP server: ``/v1/predict``,
  ``/v1/advise``, ``/v1/tune``, ``/healthz``, ``/metrics``;
* :mod:`~repro.serve.protocol` — stdlib-only HTTP/1.1 framing + client;
* :mod:`~repro.serve.fleet` / :mod:`~repro.serve.router` — the prefork
  worker fleet (``repro serve --workers N``): a consistent-hash routing
  front end over N serving processes, with health-checked
  backoff/quarantine restarts and SIGTERM drain.

Quickstart (in-process; ``repro serve --port 8080`` from a shell)::

    import asyncio
    from repro.serve import ServeApp, ServeConfig, http_request

    async def demo():
        app = ServeApp(ServeConfig(iterations=3))
        await app.start()
        status, _, body = await http_request(
            "127.0.0.1", app.port, "GET", "/healthz")
        await app.stop()
        return status, body["status"]

    assert asyncio.run(demo()) == (200, "ok")

See ``docs/SERVING.md`` for endpoint schemas, batching semantics, and
admission control.
"""

from __future__ import annotations

from repro.serve.app import DEFAULT_DEADLINES, ServeApp, ServeConfig
from repro.serve.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    Artifact,
    ArtifactRegistry,
    MachineRef,
    config_from_json,
)
from repro.serve.batcher import AdmissionError, BatcherClosed, MicroBatcher
from repro.serve.fleet import Fleet, FleetConfig, run_fleet
from repro.serve.protocol import (
    ClientConnection,
    ProtocolError,
    Request,
    Response,
    http_request,
    read_request,
    write_response,
)
from repro.serve.router import HashRing, WorkerClient

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "AdmissionError",
    "Artifact",
    "ArtifactRegistry",
    "BatcherClosed",
    "ClientConnection",
    "DEFAULT_DEADLINES",
    "Fleet",
    "FleetConfig",
    "HashRing",
    "MachineRef",
    "MicroBatcher",
    "ProtocolError",
    "Request",
    "Response",
    "ServeApp",
    "ServeConfig",
    "WorkerClient",
    "config_from_json",
    "http_request",
    "read_request",
    "run_fleet",
]
