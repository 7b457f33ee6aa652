"""A closed-loop HTTP load driver for the serve and fleet tests.

``concurrency`` clients each keep exactly one request in flight over a
persistent connection: a client sends its next request only after the
previous answer lands.  Answers are counted per status; a request that
gets no answer at all (the connection is refused, reset or times out)
counts as ``no_answer`` and the run goes on.  It lives beside the
tests, not in the package: the repository's benchmark is
``perfbench/``.
"""

from __future__ import annotations

import asyncio
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.serve.protocol import ClientConnection

#: A grid of point queries (latency per MESIF state and location +
#: bandwidth per op/kind) — the §VII "ask the model" query shape, heavy
#: enough that evaluation is worth coalescing.
PREDICT_GRID_BODY = {
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

#: What a request raises instead of answering: a refused, reset or
#: half-closed connection, or a reply that misses the deadline.
_TRANSPORT_ERRORS = (OSError, EOFError, asyncio.TimeoutError)


@dataclass
class Burst:
    """What one closed-loop run got back."""

    requests: int
    status_counts: Counter = field(default_factory=Counter)
    #: Requests that got no HTTP answer: refused, reset or timed out.
    no_answer: int = 0

    @property
    def server_errors(self) -> int:
        return sum(n for s, n in self.status_counts.items() if s >= 500)


async def closed_loop(
    host: str,
    port: int,
    endpoint: str,
    bodies: Sequence[Any],
    *,
    concurrency: int,
    requests: int,
    timeout: float = 60.0,
) -> Burst:
    """POST ``requests`` requests to ``endpoint`` from ``concurrency``
    clients; request *i* carries ``bodies[i % len(bodies)]``."""
    encoded = [json.dumps(body).encode() for body in bodies]
    pending = iter(range(requests))  # shared: each index is sent once
    burst = Burst(requests=requests)

    async def client() -> None:
        conn = ClientConnection(host, port)
        try:
            for index in pending:
                try:
                    status, _headers, _body = await conn.request(
                        "POST", endpoint, encoded[index % len(encoded)],
                        timeout=timeout,
                    )
                except _TRANSPORT_ERRORS:
                    # Drop the connection: a late reply to this request
                    # must not be read as the next request's answer.
                    await conn.close()
                    burst.no_answer += 1
                    continue
                burst.status_counts[status] += 1
        finally:
            await conn.close()

    clients = min(concurrency, requests)
    await asyncio.gather(*(client() for _ in range(clients)))
    return burst
