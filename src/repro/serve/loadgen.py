"""Closed-loop load generator for the query service.

``concurrency`` workers each keep exactly one request in flight over a
persistent connection (closed-loop: a worker issues its next request
only after the previous answer lands), so offered load tracks service
capacity instead of overrunning it.  Per-request latency and status
codes are recorded; :func:`summarize` reduces them to
p50/p95/p99/throughput.

:func:`bench_matrix` is the benchmark behind ``BENCH_serve.json``: it
boots two self-hosted servers sharing one pre-fitted artifact registry
— micro-batching on vs off — and drives the same burst matrix
(1/8/64-way concurrency) at both, demonstrating what coalescing +
dedup buy at high concurrency.  :func:`bench_fleet_matrix`
(``BENCH_fleet.json``) adds the prefork fleet: the same bursts against
``--workers N`` consistent-hash-routed processes vs the single-process
servers, under both identical-query and distinct-query workloads.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.obs.metrics import _percentile
from repro.serve.protocol import ClientConnection

#: Default burst body: a grid of point queries (latency per MESIF state
#: and location + bandwidth per op/kind) — the §VII "ask the model"
#: query shape, heavy enough that evaluation is worth coalescing.
DEFAULT_PREDICT_BODY = {
    "queries": [
        {"metric": "latency", "location": "local"},
        *[
            {"metric": "latency", "location": loc, "state": st}
            for loc in ("tile", "remote")
            for st in ("M", "E", "S")
        ],
        *[
            {"metric": "latency", "location": "memory", "kind": kind}
            for kind in ("ddr", "mcdram")
        ],
        *[
            {"metric": "bandwidth", "op": op, "kind": kind}
            for op in ("copy", "triad", "read")
            for kind in ("ddr", "mcdram")
        ],
        *[{"metric": "contention", "n": n} for n in (2, 16, 64, 256)],
    ]
}

DEFAULT_ADVISE_BODY = {
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

DEFAULT_TUNE_BODY = {"target": "barrier", "n": 256}


def default_body(endpoint: str) -> Dict[str, Any]:
    if endpoint == "/v1/predict":
        return DEFAULT_PREDICT_BODY
    if endpoint == "/v1/advise":
        return DEFAULT_ADVISE_BODY
    if endpoint == "/v1/tune":
        return DEFAULT_TUNE_BODY
    raise ReproError(f"no default body for endpoint {endpoint!r}")


@dataclass
class LoadgenResult:
    """One closed-loop run."""

    endpoint: str
    concurrency: int
    requests: int
    duration_s: float
    latencies_ms: List[float] = field(default_factory=list)
    status_counts: Dict[int, int] = field(default_factory=dict)
    #: Per-label latency samples when the workload is labeled (e.g. a
    #: ``--machines A,B`` mix labels each request with its preset), so a
    #: per-preset regression is visible instead of drowning in the
    #: aggregate.
    label_latencies_ms: Dict[str, List[float]] = field(default_factory=dict)
    label_ok: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> int:
        return self.status_counts.get(200, 0)

    @property
    def shed(self) -> int:
        return self.status_counts.get(429, 0)

    @property
    def server_errors(self) -> int:
        return sum(
            n for status, n in self.status_counts.items() if status >= 500
        )

    def summarize(self) -> Dict[str, Any]:
        stats: Dict[str, Any] = {
            "endpoint": self.endpoint,
            "concurrency": self.concurrency,
            "requests": self.requests,
            "ok": self.ok,
            "shed": self.shed,
            "server_errors": self.server_errors,
            "status_counts": {
                str(k): v for k, v in sorted(self.status_counts.items())
            },
            "duration_s": round(self.duration_s, 4),
            "throughput_rps": (
                round(self.requests / self.duration_s, 1)
                if self.duration_s > 0
                else math.inf
            ),
        }
        if self.latencies_ms:
            ordered = sorted(self.latencies_ms)
            stats.update(
                p50_ms=round(_percentile(ordered, 0.50), 3),
                p95_ms=round(_percentile(ordered, 0.95), 3),
                p99_ms=round(_percentile(ordered, 0.99), 3),
                mean_ms=round(sum(ordered) / len(ordered), 3),
                max_ms=round(ordered[-1], 3),
            )
        if self.label_latencies_ms:
            per_label: Dict[str, Any] = {}
            for label, samples in sorted(self.label_latencies_ms.items()):
                ordered = sorted(samples)
                per_label[label] = {
                    "requests": len(samples),
                    "ok": self.label_ok.get(label, 0),
                    "p50_ms": round(_percentile(ordered, 0.50), 3),
                    "p95_ms": round(_percentile(ordered, 0.95), 3),
                    "mean_ms": round(sum(ordered) / len(ordered), 3),
                }
            stats["per_label"] = per_label
        return stats


async def run_loadgen(
    host: str,
    port: int,
    endpoint: str = "/v1/predict",
    body: Optional[Dict[str, Any]] = None,
    concurrency: int = 8,
    requests: int = 256,
    timeout: float = 60.0,
    bodies: Optional[Sequence[Any]] = None,
    body_labels: Optional[Sequence[str]] = None,
) -> LoadgenResult:
    """Drive ``requests`` total requests with ``concurrency`` workers.

    ``bodies`` (mutually exclusive with ``body``) cycles request *i*
    through ``bodies[i % len(bodies)]`` — a distinct-query workload, so
    benchmarks can separate "dedup pays" from "batching pays".  Bodies
    are pre-encoded once; the hot loop sends raw bytes.

    ``body_labels`` (same length as ``bodies``) tags each request with
    its body's label — a ``--machines A,B`` mix labels by preset — and
    the summary then breaks out per-label p50/p95 next to the
    aggregate.
    """
    if concurrency < 1 or requests < 1:
        raise ReproError("loadgen needs concurrency >= 1 and requests >= 1")
    if bodies is not None and body is not None:
        raise ReproError("pass body or bodies, not both")
    if body_labels is not None and (
        bodies is None or len(body_labels) != len(bodies)
    ):
        raise ReproError("body_labels must pair 1:1 with bodies")
    if bodies is not None:
        encoded = [json.dumps(b).encode() for b in bodies]
    else:
        payload = body if body is not None else default_body(endpoint)
        encoded = [json.dumps(payload).encode()]
    remaining = list(range(requests))
    result = LoadgenResult(
        endpoint=endpoint,
        concurrency=concurrency,
        requests=requests,
        duration_s=0.0,
    )
    lock = asyncio.Lock()

    async def worker() -> None:
        conn = ClientConnection(host, port)
        try:
            while True:
                async with lock:
                    if not remaining:
                        return
                    index = remaining.pop()
                t0 = time.perf_counter()
                status, _headers, _body = await conn.request(
                    "POST",
                    endpoint,
                    encoded[index % len(encoded)],
                    timeout=timeout,
                )
                elapsed_ms = (time.perf_counter() - t0) * 1e3
                async with lock:
                    result.latencies_ms.append(elapsed_ms)
                    result.status_counts[status] = (
                        result.status_counts.get(status, 0) + 1
                    )
                    if body_labels is not None:
                        label = body_labels[index % len(body_labels)]
                        result.label_latencies_ms.setdefault(
                            label, []
                        ).append(elapsed_ms)
                        if status == 200:
                            result.label_ok[label] = (
                                result.label_ok.get(label, 0) + 1
                            )
        finally:
            await conn.close()

    t0 = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(min(concurrency, requests))))
    result.duration_s = time.perf_counter() - t0
    return result


# -- the A/B benchmark behind BENCH_serve.json ------------------------------


async def bench_matrix(
    concurrencies: Sequence[int] = (1, 8, 64),
    requests_per_level: int = 192,
    endpoint: str = "/v1/predict",
    iterations: int = 10,
    seed: int = 1234,
) -> Dict[str, Any]:
    """Batching-on vs batching-off latency/throughput matrix.

    Both servers share one pre-fitted artifact registry, so the
    comparison isolates the dispatcher: identical model, identical
    protocol, only the coalescing differs.
    """
    from repro.serve.app import ServeApp, ServeConfig
    from repro.serve.artifacts import ArtifactRegistry

    registry = ArtifactRegistry(
        iterations=iterations, seed=seed, persist=False
    )
    doc: Dict[str, Any] = {
        "benchmark": "repro.serve micro-batching A/B",
        "endpoint": endpoint,
        "requests_per_level": requests_per_level,
        "artifact_fit_iterations": iterations,
        "levels": [],
    }
    apps = {
        "batched": ServeApp(ServeConfig(), registry=registry),
        "unbatched": ServeApp(ServeConfig.unbatched(), registry=registry),
    }
    try:
        for app in apps.values():
            await app.warm()
            await app.start()
        for concurrency in concurrencies:
            level: Dict[str, Any] = {"concurrency": concurrency}
            for mode, app in apps.items():
                run = await run_loadgen(
                    app.config.host,
                    app.port,
                    endpoint=endpoint,
                    concurrency=concurrency,
                    requests=requests_per_level,
                )
                level[mode] = run.summarize()
            doc["levels"].append(level)
    finally:
        for app in apps.values():
            await app.stop()
    return doc


# -- the fleet A/B benchmark behind BENCH_fleet.json -------------------------

#: The fleet benchmark's burst body: the §VII grid *densified* — the
#: full contention curve (n = 1..256, one point per thread count) plus
#: the multi-line transfer curve at cache-line granularity (64 B steps
#: up to 32 KiB, both fitted locations).  The fleet exists for the
#: popular-expensive-query regime — evaluation must cost enough that
#: coalescing it beats a proxy hop — and this is that query: ~1300
#: points, several ms to evaluate per request unbatched.  The default
#: grid (~20 points, sub-ms) stays the single-server bench body; a
#: fleet "win" measured on it would be noise.
DENSE_PREDICT_BODY = {
    "queries": [
        *DEFAULT_PREDICT_BODY["queries"][:-4],  # drop the sparse curve
        *[{"metric": "contention", "n": n} for n in range(1, 257)],
        *[
            {"metric": "multiline", "location": loc, "bytes": 64 * i}
            for loc in ("tile", "remote")
            for i in range(1, 513)
        ],
    ]
}


def _distinct_bodies(n: int) -> List[Dict[str, Any]]:
    """``n`` structurally-identical but byte-distinct predict bodies.

    Each variant appends one extra latency query, so every body hashes
    to a different content key (no dedup, keys spread over the ring)
    while the evaluation cost stays comparable to the identical
    workload's :data:`DENSE_PREDICT_BODY`.
    """
    return [
        {
            "queries": DENSE_PREDICT_BODY["queries"]
            + [{"metric": "contention", "n": 256 + i + 1}]
        }
        for i in range(n)
    ]


async def bench_fleet_matrix(
    workers: int = 2,
    concurrencies: Sequence[int] = (8, 64),
    requests_per_level: int = 192,
    endpoint: str = "/v1/predict",
    iterations: int = 10,
    seed: int = 1234,
) -> Dict[str, Any]:
    """Fleet vs single-process serving under two workloads.

    Three servers answer the same burst matrix from one pre-fitted
    model: the prefork **fleet** (``workers`` batched processes behind
    the consistent-hash front end), a **single_batched** process (PR 3's
    server), and a **single_unbatched** naive per-request process — the
    single-worker baseline of the acceptance criterion.  Two workloads
    per concurrency level: ``identical`` (every request is the same
    query — affinity routing keeps fleet-wide dedup intact) and
    ``distinct`` (32 byte-distinct queries — keys spread across the
    ring, isolating raw sharding from dedup).  Both use the dense
    :data:`DENSE_PREDICT_BODY` grid, the expensive-popular-query regime
    the fleet is built for.
    """
    from repro.serve.app import ServeApp, ServeConfig
    from repro.serve.artifacts import ArtifactRegistry, config_from_json
    from repro.serve.fleet import Fleet, FleetConfig

    registry = ArtifactRegistry(
        iterations=iterations, seed=seed, persist=False
    )
    artifact = await registry.get(config_from_json(None))
    warm_model = artifact.capability.to_dict()

    worker_config = ServeConfig(
        iterations=iterations, seed=seed, persist_artifacts=False
    )
    fleet = Fleet(
        FleetConfig(workers=workers, worker=worker_config),
        warm_model=warm_model,
    )
    singles = {
        "single_batched": ServeApp(
            ServeConfig(iterations=iterations, seed=seed),
            registry=registry,
        ),
        "single_unbatched": ServeApp(
            ServeConfig.unbatched(iterations=iterations, seed=seed),
            registry=registry,
        ),
    }
    doc: Dict[str, Any] = {
        "benchmark": "repro.serve fleet A/B",
        "endpoint": endpoint,
        "workers": workers,
        "requests_per_level": requests_per_level,
        "artifact_fit_iterations": iterations,
        "levels": [],
    }
    workloads = {
        "identical": {"body": DENSE_PREDICT_BODY, "bodies": None},
        "distinct": {"body": None, "bodies": _distinct_bodies(32)},
    }
    try:
        fleet_host, fleet_port = await fleet.start()
        for app in singles.values():
            await app.start()
        targets = {
            "fleet": (fleet_host, fleet_port),
            **{
                mode: (app.config.host, app.port)
                for mode, app in singles.items()
            },
        }
        for concurrency in concurrencies:
            for workload, kw in workloads.items():
                level: Dict[str, Any] = {
                    "concurrency": concurrency,
                    "workload": workload,
                }
                for mode, (host, port) in targets.items():
                    run = await run_loadgen(
                        host,
                        port,
                        endpoint=endpoint,
                        concurrency=concurrency,
                        requests=requests_per_level,
                        **kw,
                    )
                    level[mode] = run.summarize()
                doc["levels"].append(level)
    finally:
        await fleet.stop()
        for app in singles.values():
            await app.stop()
    return doc


def write_bench(path: str, doc: Dict[str, Any]) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- CLI: `repro loadgen` ----------------------------------------------------


def build_loadgen_parser():
    import argparse

    p = argparse.ArgumentParser(
        prog="repro-knl loadgen",
        description=(
            "Closed-loop load generator for the repro.serve query "
            "service: N workers, one request in flight each."
        ),
    )
    target = p.add_argument_group("target")
    target.add_argument("--host", default="127.0.0.1")
    target.add_argument(
        "--port", type=int, default=None,
        help="port of a running `repro serve` (omit with --self-host)",
    )
    target.add_argument(
        "--self-host", action="store_true",
        help="boot a server in-process on an ephemeral port first",
    )
    load = p.add_argument_group("load")
    load.add_argument(
        "--endpoint", default="/v1/predict",
        choices=("/v1/predict", "/v1/advise", "/v1/tune"),
    )
    load.add_argument("--concurrency", type=int, default=8, metavar="N")
    load.add_argument("--requests", type=int, default=256, metavar="N")
    load.add_argument(
        "--body", default=None, metavar="FILE",
        help="JSON file with the request body (default: a built-in "
             "per-endpoint query)",
    )
    load.add_argument(
        "--machine", default=None, metavar="NAME",
        help="target one catalog preset: every request carries "
             "'\"machine\": NAME' (see `repro machines list`)",
    )
    load.add_argument(
        "--machines", default=None, metavar="A,B,...",
        help="mixed multi-machine workload: request i cycles through "
             "the named presets (catalog traffic, not just the default "
             "KNL; mutually exclusive with --machine)",
    )
    p.add_argument(
        "--bench", action="store_true",
        help="run the full batching-on/off A/B matrix at 1/8/64-way "
             "concurrency (implies --self-host) — the BENCH_serve.json "
             "generator",
    )
    p.add_argument(
        "--bench-fleet", action="store_true",
        help="run the fleet-vs-single-process A/B matrix (implies "
             "--self-host) — the BENCH_fleet.json generator",
    )
    p.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="fleet size for --bench-fleet (default 2)",
    )
    p.add_argument(
        "--iterations", type=int, default=10, metavar="N",
        help="artifact fit iterations for self-hosted servers "
             "(default 10)",
    )
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the JSON results to this file",
    )
    p.add_argument("--quiet", action="store_true")
    return p


def main_loadgen(argv=None) -> int:
    """Entry point of ``repro loadgen``."""
    parser = build_loadgen_parser()
    args = parser.parse_args(argv)
    if (
        not args.bench
        and not args.bench_fleet
        and not args.self_host
        and args.port is None
    ):
        parser.error("need --port (a running server) or --self-host")

    body = None
    if args.body:
        with open(args.body) as fh:
            body = json.load(fh)

    if args.machine and args.machines:
        parser.error("--machine and --machines are mutually exclusive")
    benching = args.bench or args.bench_fleet
    if (args.machine or args.machines) and benching:
        parser.error(
            "--machine/--machines drive a live or self-hosted server, "
            "not the --bench matrices"
        )
    bodies = None
    body_labels: Optional[List[str]] = None
    machine_names: List[str] = []
    if args.machine:
        machine_names = [args.machine]
        base = body if body is not None else default_body(args.endpoint)
        body = {**base, "machine": args.machine}
    elif args.machines:
        machine_names = [
            n.strip() for n in args.machines.split(",") if n.strip()
        ]
        if not machine_names:
            parser.error("--machines needs at least one preset name")
        base = body if body is not None else default_body(args.endpoint)
        bodies = [{**base, "machine": n} for n in machine_names]
        body_labels = list(machine_names)
        body = None

    async def run() -> Dict[str, Any]:
        if args.bench_fleet:
            return await bench_fleet_matrix(
                workers=args.workers,
                endpoint=args.endpoint,
                requests_per_level=args.requests,
                iterations=args.iterations,
                seed=args.seed,
            )
        if args.bench:
            return await bench_matrix(
                endpoint=args.endpoint,
                requests_per_level=args.requests,
                iterations=args.iterations,
                seed=args.seed,
            )
        if args.self_host:
            from repro.serve.app import ServeApp, ServeConfig

            app = ServeApp(
                ServeConfig(iterations=args.iterations, seed=args.seed)
            )
            if machine_names:
                # Pre-fit the targeted presets so the measured burst
                # exercises serving, not cold-fit latency.
                for name in machine_names:
                    await app.warm(machine=name)
            else:
                await app.warm()
            await app.start()
            try:
                result = await run_loadgen(
                    app.config.host,
                    app.port,
                    endpoint=args.endpoint,
                    body=body,
                    bodies=bodies,
                    body_labels=body_labels,
                    concurrency=args.concurrency,
                    requests=args.requests,
                )
            finally:
                await app.stop()
        else:
            result = await run_loadgen(
                args.host,
                args.port,
                endpoint=args.endpoint,
                body=body,
                bodies=bodies,
                body_labels=body_labels,
                concurrency=args.concurrency,
                requests=args.requests,
            )
        return result.summarize()

    doc = asyncio.run(run())
    text = json.dumps(doc, indent=2, sort_keys=True)
    if not args.quiet:
        print(text)
    if args.out:
        write_bench(args.out, doc)

    if args.bench_fleet:
        failed = any(
            level[mode]["server_errors"]
            for level in doc["levels"]
            for mode in ("fleet", "single_batched", "single_unbatched")
        )
    elif args.bench:
        failed = any(
            level[mode]["server_errors"]
            for level in doc["levels"]
            for mode in ("batched", "unbatched")
        )
    else:
        failed = doc["server_errors"] > 0
    return 1 if failed else 0
