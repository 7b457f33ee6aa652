"""Consistent-hash routing for the serve fleet — stdlib only.

The fleet partitions the query keyspace across worker processes the
way SNC4 partitions the KNL mesh across sub-NUMA domains: every query
already carries a SHA-256 content key (the batcher's dedup address),
and the :class:`HashRing` maps that key to a stable owner.  Two
properties matter:

* **Affinity.**  Identical queries always land on the same worker, so
  the worker's micro-batching dedup and single-flight machinery keep
  paying off fleet-wide — random or round-robin routing would scatter
  duplicates across workers and evaluate each copy once per worker.
* **Minimal disruption.**  When a worker crashes (or comes back), only
  the keys it owned move; everyone else's warm path is untouched.
  That is the classic consistent-hashing argument, realized here with
  ``replicas`` virtual points per worker so ownership stays balanced
  even at small fleet sizes.

:class:`WorkerClient` is the proxy side of one worker: a small pool of
persistent keep-alive connections, so concurrent proxied requests do
not serialize behind a single socket and do not pay a TCP handshake
per request.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.serve.protocol import ClientConnection


class HashRing:
    """Consistent-hash ring: content key → worker name.

    Nodes are placed at ``replicas`` pseudo-random points on a 64-bit
    ring (SHA-256 of ``"name#i"``); a key is owned by the first node
    point at or after the key's own hash point, wrapping at the top.
    """

    def __init__(self, replicas: int = 64) -> None:
        if replicas < 1:
            raise ConfigurationError("ring needs >= 1 replica per node")
        self.replicas = replicas
        #: Sorted ring points with their owners, kept as parallel lists
        #: so lookup is one bisect over ints.
        self._points: List[int] = []
        self._owners: List[str] = []
        self._nodes: set = set()

    @staticmethod
    def _point(data: str) -> int:
        digest = hashlib.sha256(data.encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    @property
    def nodes(self) -> Tuple[str, ...]:
        return tuple(sorted(self._nodes))

    def add(self, node: str) -> None:
        """Place ``node`` on the ring (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for i in range(self.replicas):
            point = self._point(f"{node}#{i}")
            at = bisect.bisect_left(self._points, point)
            self._points.insert(at, point)
            self._owners.insert(at, node)

    def remove(self, node: str) -> None:
        """Take ``node`` off the ring (idempotent); its keys flow to
        the next points on the ring, nobody else's keys move."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        keep = [
            (p, o)
            for p, o in zip(self._points, self._owners)
            if o != node
        ]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    def node_for(self, key: str) -> Optional[str]:
        """The owner of ``key`` (any string — hashed again internally so
        hex digests and raw labels spread equally well); ``None`` on an
        empty ring."""
        if not self._points:
            return None
        at = bisect.bisect_right(self._points, self._point(key))
        return self._owners[at % len(self._points)]


class VersionRing:
    """Canary split on the consistent-hash ring: content key → version
    role (``"canary"`` or ``"stable"``).

    The same construction as :class:`HashRing`, but the two "nodes" are
    artifact versions: ``points`` virtual points are placed at the
    SHA-256 positions of ``"version#i"`` and the lowest
    ``round(points * percent / 100)`` indices belong to the canary.
    Because the point *positions* are fixed and only the labeling moves,
    raising the percent strictly grows the canary's keyspace — a key
    that was on canary at 10% is still on canary at 25% — so ramping a
    canary never flaps traffic back and forth.  Every process builds
    the identical ring from the percent alone, which is how fleet
    workers agree on the split without coordination.
    """

    #: Virtual points: enough that the realized keyspace share tracks
    #: the requested percent within a few points either way.
    DEFAULT_POINTS = 128

    def __init__(self, percent: float, points: int = DEFAULT_POINTS) -> None:
        if not (0 <= percent <= 100):
            raise ConfigurationError(
                f"canary percent must be within [0, 100], got {percent!r}"
            )
        if points < 1:
            raise ConfigurationError("version ring needs >= 1 point")
        self.percent = float(percent)
        self.points = points
        canary_count = round(points * self.percent / 100.0)
        placed = sorted(
            (HashRing._point(f"version#{i}"), i < canary_count)
            for i in range(points)
        )
        self._points: List[int] = [p for p, _ in placed]
        self._canary: List[bool] = [c for _, c in placed]

    def version_for(self, key: str) -> str:
        """``"canary"`` or ``"stable"`` for a query content key — the
        same bisect semantics as :meth:`HashRing.node_for`."""
        at = bisect.bisect_right(self._points, HashRing._point(key))
        return "canary" if self._canary[at % len(self._points)] else "stable"


class WorkerClient:
    """Pooled keep-alive connections from the front end to one worker.

    ``acquire``/``release`` semantics are hidden behind
    :meth:`request_bytes`: a connection is checked out for exactly one
    round-trip, so any number of proxied requests can be in flight to
    the same worker concurrently.  A connection that errored is closed
    and dropped instead of returned; the pool never caches brokenness.
    """

    def __init__(self, host: str, port: int, max_idle: int = 8) -> None:
        self.host = host
        self.port = port
        self.max_idle = max_idle
        self._idle: List[ClientConnection] = []

    async def request_bytes(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        timeout: float = 30.0,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One proxied round-trip; returns ``(status, headers, raw body)``."""
        conn = (
            self._idle.pop()
            if self._idle
            else ClientConnection(self.host, self.port)
        )
        try:
            result = await conn.request_bytes(
                method, path, body, timeout=timeout
            )
        except BaseException:
            await conn.close()
            raise
        if len(self._idle) < self.max_idle:
            self._idle.append(conn)
        else:
            await conn.close()
        return result

    async def close(self) -> None:
        idle, self._idle = self._idle, []
        for conn in idle:
            await conn.close()
