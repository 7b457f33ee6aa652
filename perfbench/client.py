"""A closed-loop HTTP/1.1 client over keep-alive connections.

Written against the socket API rather than the program's own client in
``repro.serve.protocol``, so a change to the program's protocol layer
cannot change how the load is generated or timed.  Each connection is
driven by one thread that sends its next request only after the
previous answer has fully arrived (a closed loop: the service's users
wait for each answer).
"""

from __future__ import annotations

import hashlib
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple


class Connection:
    """One persistent keep-alive connection."""

    def __init__(self, host: str, port: int, timeout_s: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._sock: Optional[socket.socket] = None
        self._buf = b""

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock, self._buf = sock, b""
        return sock

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
        self._sock, self._buf = None, b""

    def _recv(self, sock: socket.socket) -> None:
        chunk = sock.recv(1 << 17)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buf += chunk

    def request(self, method: str, path: str,
                body: bytes = b"") -> Tuple[int, bytes]:
        """One round trip; returns ``(status, response body)``."""
        sock = self._sock or self._connect()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        sock.sendall(head + body)
        while b"\r\n\r\n" not in self._buf:
            self._recv(sock)
        raw_head, _, self._buf = self._buf.partition(b"\r\n\r\n")
        lines = raw_head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        while len(self._buf) < length:
            self._recv(sock)
        payload, self._buf = self._buf[:length], self._buf[length:]
        if headers.get("connection") == "close":
            self.close()
        return status, payload


@dataclass
class Sample:
    """One request as the client saw it."""

    index: int
    status: int
    latency_s: float
    #: When the answer arrived, in seconds since the loop started.
    done_s: float
    #: SHA-256 of the response body (predict answers are checked by
    #: digest, so large bodies are not kept).
    digest: bytes
    #: The body itself, kept only when the caller asked for it.
    body: Optional[bytes] = None
    error: str = ""


@dataclass
class LoopResult:
    samples: List[Sample] = field(default_factory=list)
    #: ``time.perf_counter()`` when the loop started.
    start: float = 0.0
    wall_s: float = 0.0


def closed_loop(
    host: str,
    port: int,
    requests: Sequence[Tuple[str, bytes]],
    connections: int = 2,
    seconds: Optional[float] = None,
    keep_body=lambda route: route != "/v1/predict",
) -> LoopResult:
    """Send ``requests`` over ``connections`` closed loops.

    Connection ``c`` sends requests ``c, c + connections, ...`` in
    order.  With ``seconds`` each loop stops sending once that much time
    has passed (or its share of ``requests`` is used up); without it,
    every request is sent.
    """
    per_conn: List[List[Sample]] = [[] for _ in range(connections)]
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds

    def loop(c: int) -> None:
        conn = Connection(host, port)
        out = per_conn[c]
        try:
            for i in range(c, len(requests), connections):
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                route, body = requests[i]
                t0 = time.perf_counter()
                try:
                    status, payload = conn.request("POST", route, body)
                except (OSError, ValueError, IndexError) as e:
                    conn.close()
                    t1 = time.perf_counter()
                    out.append(Sample(i, -1, t1 - t0, t1 - start, b"",
                                      error=f"{type(e).__name__}: {e}"))
                    continue
                t1 = time.perf_counter()
                out.append(Sample(
                    i, status, t1 - t0, t1 - start,
                    hashlib.sha256(payload).digest(),
                    payload if keep_body(route) else None,
                ))
        finally:
            conn.close()

    threads = [threading.Thread(target=loop, args=(c,), daemon=True)
               for c in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    result = LoopResult(start=start, wall_s=time.perf_counter() - start)
    for samples in per_conn:
        result.samples.extend(samples)
    result.samples.sort(key=lambda s: s.index)
    return result
