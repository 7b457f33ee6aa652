"""Minimal HTTP/1.1 framing for :mod:`repro.serve` — stdlib only.

The serving layer deliberately avoids third-party web frameworks: the
container that runs the reproduction has numpy/scipy and nothing else,
and the service speaks a small, fixed protocol (JSON in, JSON out,
``Content-Length`` framing, optional keep-alive).  This module owns the
wire format on both sides:

* :func:`read_request` / :class:`Request` — parse one request from an
  :class:`asyncio.StreamReader`, with header/body size caps;
* :class:`Response` / :func:`write_response` — serialize a response
  (``Response.json`` builds the common JSON case);
* :func:`serve_connection` — the keep-alive request loop every front end
  (one server, the fleet proxy) runs per connection,
  :data:`ROUTES`/:func:`route` — the route table both dispatch through,
  and :func:`content_key` — the request identity both route and dedup on;
* :class:`ClientConnection` / :func:`http_request` — the client used by
  the load generator and the tests.

Anything malformed raises :class:`ProtocolError` carrying the HTTP
status the server should answer with; the app layer never has to guess.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, Mapping, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.errors import ReproError

#: Upper bound on the request line + headers (bytes).
MAX_HEADER_BYTES = 64 * 1024
#: Upper bound on a request body (bytes).
MAX_BODY_BYTES = 8 * 1024 * 1024

REASONS = {
    200: "OK",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ProtocolError(ReproError):
    """A request the server cannot or will not process.

    ``status`` is the HTTP answer (400 for malformed JSON, 413 for an
    oversized body, ...).
    """

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    target: str
    route: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive") != "close"

    def json(self) -> Any:
        """Decode the body as JSON (400 on anything else)."""
        if not self.body:
            raise ProtocolError("request body must be JSON, got empty body")
        try:
            return json.loads(self.body)
        except ValueError as e:
            raise ProtocolError(f"request body is not valid JSON: {e}") from e


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Read one request; ``None`` on clean EOF (peer closed keep-alive)."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as e:
        if not e.partial:
            return None
        raise ProtocolError("truncated request head", status=400) from e
    except asyncio.LimitOverrunError as e:
        raise ProtocolError("request head too large", status=431) from e
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError("request head too large", status=431)

    try:
        lines = head.decode("latin-1").split("\r\n")
        method, target, _version = lines[0].split(" ", 2)
    except (UnicodeDecodeError, ValueError) as e:
        raise ProtocolError("malformed request line", status=400) from e

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line {line!r}", status=400)
        headers[name.strip().lower()] = value.strip()

    split = urlsplit(target)
    query = dict(parse_qsl(split.query))

    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            n = int(length)
        except ValueError as e:
            raise ProtocolError("bad Content-Length", status=400) from e
        if n < 0:
            raise ProtocolError("bad Content-Length", status=400)
        if n > MAX_BODY_BYTES:
            raise ProtocolError("request body too large", status=413)
        try:
            body = await reader.readexactly(n)
        except asyncio.IncompleteReadError as e:
            raise ProtocolError("truncated request body", status=400) from e
    elif headers.get("transfer-encoding"):
        raise ProtocolError(
            "chunked requests are not supported; send Content-Length",
            status=400,
        )

    return Request(
        method=method.upper(),
        target=target,
        route=split.path or "/",
        query=query,
        headers=headers,
        body=body,
    )


@dataclass
class Response:
    """One HTTP response; :meth:`encode` renders the wire form."""

    status: int = 200
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @classmethod
    def json(
        cls,
        payload: Any,
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> "Response":
        body = json.dumps(payload, sort_keys=True).encode()
        hdrs = {"Content-Type": "application/json"}
        if headers:
            hdrs.update(headers)
        return cls(status=status, headers=hdrs, body=body)

    @classmethod
    def error(
        cls,
        status: int,
        message: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> "Response":
        return cls.json(
            {"error": {"status": status, "message": message}},
            status=status,
            headers=headers,
        )

    def encode(self, keep_alive: bool = True) -> bytes:
        reason = REASONS.get(self.status, "Unknown")
        head = [f"HTTP/1.1 {self.status} {reason}"]
        headers = dict(self.headers)
        headers.setdefault("Content-Type", "application/json")
        headers["Content-Length"] = str(len(self.body))
        headers["Connection"] = "keep-alive" if keep_alive else "close"
        for name, value in headers.items():
            head.append(f"{name}: {value}")
        return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + self.body


async def write_response(
    writer: asyncio.StreamWriter, response: Response, keep_alive: bool = True
) -> None:
    writer.write(response.encode(keep_alive=keep_alive))
    await writer.drain()


#: Every route a front end (one server or the fleet) answers, with the one
#: method it accepts.
ROUTES = {
    "/healthz": "GET",
    "/metrics": "GET",
    "/v1/machines": "GET",
    "/v1/predict": "POST",
    "/v1/advise": "POST",
    "/v1/tune": "POST",
    "/v1/admin/reload": "POST",
}

Handler = Callable[[Request], Awaitable[Response]]


async def route(request: Request, handlers: Mapping[str, Handler]) -> Response:
    """Answer ``request`` with its route's handler, or the 404/405 the
    :data:`ROUTES` table implies (a 405 names the method in ``Allow``)."""
    method = ROUTES.get(request.route)
    if method is None:
        return Response.error(404, f"no route {request.route!r}")
    if request.method != method:
        return Response.error(
            405,
            f"{request.route} only supports {method}",
            headers={"Allow": method},
        )
    return await handlers[request.route](request)


def content_key(route: str, body: bytes) -> str:
    """SHA-256 of the raw endpoint + body bytes: the request's identity.

    The single server dedups and caches plans on it, and the fleet front
    end routes on it, so byte-identical queries always meet on one
    worker.  Hashing the wire form (not a canonicalized parse) keeps the
    hot path at microseconds per request; a client that reorders its
    JSON keys merely forgoes the dedup.
    """
    return hashlib.sha256(route.encode() + b"\0" + body).hexdigest()


async def serve_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    dispatch: Callable[[Request], Awaitable[Response]],
    owner: Any,
) -> None:
    """Answer requests on one connection until the peer is done.

    ``dispatch`` maps a parsed request to its response.  ``owner`` is the
    front end being drained: its ``_conn_writers`` set and
    ``_active_requests`` count are what a graceful stop waits for (and
    then actively closes — on Python 3.12.1+ ``wait_closed`` waits for
    connection handlers, so an idle keep-alive peer would otherwise hold
    shutdown open forever).
    """
    owner._conn_writers.add(writer)
    try:
        while True:
            try:
                request = await read_request(reader)
            except ProtocolError as e:
                await write_response(
                    writer, Response.error(e.status, str(e)), keep_alive=False
                )
                break
            if request is None:
                break
            owner._active_requests += 1
            try:
                response = await dispatch(request)
            finally:
                owner._active_requests -= 1
            await write_response(
                writer, response, keep_alive=request.keep_alive
            )
            if not request.keep_alive:
                break
    except (ConnectionError, asyncio.IncompleteReadError):
        pass  # peer went away mid-exchange; nothing to answer
    except asyncio.CancelledError:
        # Server shutdown cancels in-flight connection tasks; end quietly
        # instead of tripping the stream protocol's exception-retrieval
        # callback.
        pass
    finally:
        owner._conn_writers.discard(writer)
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, ConnectionError, asyncio.CancelledError):
            pass


# -- client ------------------------------------------------------------------


class ClientConnection:
    """A persistent keep-alive connection to one server.

    The load generator keeps one of these per in-flight worker so a
    closed-loop run measures the service, not TCP handshakes.  A server
    that answered ``Connection: close`` (or dropped the socket) is
    reconnected transparently on the next request.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (OSError, ConnectionError):
                pass
        self._reader = self._writer = None

    async def request(
        self,
        method: str,
        path: str,
        payload: Any = None,
        timeout: float = 30.0,
    ) -> Tuple[int, Dict[str, str], Any]:
        """One round-trip; returns ``(status, headers, decoded body)``.

        ``payload`` may be any JSON-serializable object, or raw
        ``bytes`` sent verbatim (pre-encoded bodies — the load
        generator's hot path and the fleet proxy both use this to skip
        re-serialization).
        """
        if payload is None:
            body = b""
        elif isinstance(payload, (bytes, bytearray)):
            body = bytes(payload)
        else:
            body = json.dumps(payload).encode()
        status, headers, raw = await self.request_bytes(
            method, path, body, timeout=timeout
        )
        decoded: Any = None
        if raw:
            if "json" in headers.get("content-type", ""):
                decoded = json.loads(raw)
            else:
                decoded = raw.decode("utf-8", "replace")
        return status, headers, decoded

    async def request_bytes(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        timeout: float = 30.0,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One round-trip without decoding: ``(status, headers, raw body)``.

        The fleet front end proxies with this — the worker's response
        bytes are relayed verbatim, never parsed and re-serialized.
        """
        head = [f"{method.upper()} {path} HTTP/1.1"]
        head.append(f"Host: {self.host}:{self.port}")
        if body:
            head.append("Content-Type: application/json")
        head.append(f"Content-Length: {len(body)}")
        wire = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body

        for attempt in (0, 1):
            if self._writer is None:
                await self._connect()
            assert self._writer is not None and self._reader is not None
            try:
                self._writer.write(wire)
                await self._writer.drain()
                return await asyncio.wait_for(
                    self._read_response(), timeout=timeout
                )
            except (
                ConnectionError,
                asyncio.IncompleteReadError,
                BrokenPipeError,
            ):
                # A keep-alive peer may have closed between requests;
                # retry exactly once on a fresh connection.
                await self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    async def _read_response(self) -> Tuple[int, Dict[str, str], bytes]:
        assert self._reader is not None
        head = await self._reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if line:
                name, _sep, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length", "0"))
        if length:
            body = await self._reader.readexactly(length)
        if headers.get("connection") == "close":
            await self.close()
        return status, headers, body


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Any = None,
    timeout: float = 30.0,
) -> Tuple[int, Dict[str, str], Any]:
    """One-shot convenience wrapper around :class:`ClientConnection`."""
    conn = ClientConnection(host, port)
    try:
        return await conn.request(method, path, payload, timeout=timeout)
    finally:
        await conn.close()
