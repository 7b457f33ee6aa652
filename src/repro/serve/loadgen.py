"""Closed-loop load generator for the query service.

``concurrency`` workers each keep exactly one request in flight over a
persistent connection (closed-loop: a worker issues its next request
only after the previous answer lands), so offered load tracks service
capacity instead of overrunning it.  Per-request latency and status
codes are recorded; :func:`summarize` reduces them to
p50/p95/p99/throughput.  A request that gets no answer at all — the
connection is refused, reset or times out — counts as ``no_answer``
and the run goes on.
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


#: What a request raises instead of answering: a refused, reset or
#: half-closed connection, or a reply that misses the deadline.
_TRANSPORT_ERRORS = (OSError, EOFError, asyncio.TimeoutError)


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
    #: Requests that got no HTTP answer: refused, reset or timed out.
    no_answer: int = 0
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
            "no_answer": self.no_answer,
            "status_counts": {
                str(k): v for k, v in sorted(self.status_counts.items())
            },
            "duration_s": round(self.duration_s, 4),
            # Answered requests only: a refused connect is not service.
            "throughput_rps": (
                round((self.requests - self.no_answer) / self.duration_s, 1)
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
    through ``bodies[i % len(bodies)]`` — a distinct-query workload
    that dedup cannot collapse.  Bodies are pre-encoded once; the hot
    loop sends raw bytes.

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
                try:
                    status, _headers, _body = await conn.request(
                        "POST",
                        endpoint,
                        encoded[index % len(encoded)],
                        timeout=timeout,
                    )
                except _TRANSPORT_ERRORS:
                    # Drop the connection: a late reply to this request
                    # must not be read as the next request's answer.
                    await conn.close()
                    result.no_answer += 1
                    continue
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
        "--iterations", type=int, default=10, metavar="N",
        help="artifact fit iterations for a self-hosted server "
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
    if not args.self_host and args.port is None:
        parser.error("need --port (a running server) or --self-host")

    body = None
    if args.body:
        with open(args.body) as fh:
            body = json.load(fh)

    if args.machine and args.machines:
        parser.error("--machine and --machines are mutually exclusive")
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
    return 1 if doc["no_answer"] + doc["server_errors"] > 0 else 0
