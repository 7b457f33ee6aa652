"""HTTP/1.1 framing: request parsing, response encoding, the client."""

import asyncio
import functools
import hashlib
import json
import types

import pytest

from repro.serve.protocol import (
    ClientConnection,
    MAX_BODY_BYTES,
    ProtocolError,
    Request,
    Response,
    content_key,
    http_request,
    read_request,
    serve_connection,
)


def run(coro):
    return asyncio.run(coro)


def parse(wire: bytes):
    async def go():
        # The reader must be created inside a running loop.
        reader = asyncio.StreamReader()
        if wire:
            reader.feed_data(wire)
        reader.feed_eof()
        return await read_request(reader)

    return run(go())


class TestReadRequest:
    def test_get_with_query_string(self):
        req = parse(b"GET /metrics?pretty=1 HTTP/1.1\r\nHost: x\r\n\r\n")
        assert req.method == "GET"
        assert req.route == "/metrics"
        assert req.query == {"pretty": "1"}
        assert req.body == b""

    def test_post_with_content_length_body(self):
        body = json.dumps({"queries": []}).encode()
        req = parse(
            b"POST /v1/predict HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        assert req.method == "POST" and req.body == body
        assert req.json() == {"queries": []}

    def test_header_names_are_case_insensitive(self):
        req = parse(b"GET / HTTP/1.1\r\nCoNNecTion: close\r\n\r\n")
        assert req.headers["connection"] == "close"
        assert not req.keep_alive

    def test_keep_alive_is_the_default(self):
        assert parse(b"GET / HTTP/1.1\r\n\r\n").keep_alive

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_truncated_head_is_a_400(self):
        with pytest.raises(ProtocolError) as exc:
            parse(b"GET / HTTP/1.1\r\nHost")
        assert exc.value.status == 400

    def test_malformed_request_line_is_a_400(self):
        with pytest.raises(ProtocolError) as exc:
            parse(b"NONSENSE\r\n\r\n")
        assert exc.value.status == 400

    def test_bad_content_length_is_a_400(self):
        # RFC 9110 allows ASCII digits only: int() would take "1_0" and
        # "+10" (the 10-byte body makes either a complete request), and
        # str.isdigit the latin-1 "\xb2".
        for value in (b"banana", b"-3", b"1_0", b"+10", b"\xb2", b"1\xb2"):
            with pytest.raises(ProtocolError) as exc:
                parse(
                    b"POST / HTTP/1.1\r\nContent-Length: "
                    + value
                    + b"\r\n\r\n0123456789"
                )
            assert exc.value.status == 400

    @pytest.mark.parametrize(
        "target", ["http://[::1/", "http://::1]/", "//[v1.x/path"]
    )
    def test_malformed_target_is_a_400(self, target):
        with pytest.raises(ProtocolError) as exc:
            parse(f"GET {target} HTTP/1.1\r\n\r\n".encode())
        assert exc.value.status == 400

    def test_oversized_body_is_a_413(self):
        with pytest.raises(ProtocolError) as exc:
            parse(
                b"POST / HTTP/1.1\r\nContent-Length: "
                + str(MAX_BODY_BYTES + 1).encode()
                + b"\r\n\r\n"
            )
        assert exc.value.status == 413

    @pytest.mark.parametrize(
        "lengths", [(b"3", b"10"), (b"10", b"3"), (b"10", b"10")],
        ids=["3-then-10", "10-then-3", "10-twice"],
    )
    def test_repeated_content_length_is_a_400(self, lengths):
        """RFC 9112 §6.3: differing or repeated lengths are a 400 before
        any body is read, whichever of them a parser would pick."""
        head = b"POST / HTTP/1.1\r\n" + b"".join(
            b"Content-Length: " + n + b"\r\n" for n in lengths
        )
        with pytest.raises(ProtocolError) as exc:
            parse(head + b"\r\n0123456789")
        assert exc.value.status == 400

    @pytest.mark.parametrize("encoding", [b"chunked", b"identity", b""])
    def test_content_length_with_transfer_encoding_is_a_400(self, encoding):
        with pytest.raises(ProtocolError) as exc:
            parse(
                b"POST / HTTP/1.1\r\nContent-Length: 3\r\n"
                b"Transfer-Encoding: " + encoding + b"\r\n\r\n"
                b"abc"
            )
        assert exc.value.status == 400

    def test_chunked_transfer_is_rejected(self):
        with pytest.raises(ProtocolError, match="Content-Length"):
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")

    def test_empty_body_json_is_a_400(self):
        req = parse(b"POST / HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
        with pytest.raises(ProtocolError):
            req.json()


class TestResponse:
    def test_encode_frames_content_length_and_connection(self):
        wire = Response.json({"a": 1}).encode(keep_alive=True)
        head, _, body = wire.partition(b"\r\n\r\n")
        assert b"HTTP/1.1 200 OK" in head
        assert f"Content-Length: {len(body)}".encode() in head
        assert b"Connection: keep-alive" in head
        assert json.loads(body) == {"a": 1}

    def test_close_encoding(self):
        wire = Response.json({}).encode(keep_alive=False)
        assert b"Connection: close" in wire

    def test_error_shape(self):
        resp = Response.error(429, "busy", headers={"Retry-After": "1"})
        assert resp.status == 429
        assert resp.headers["Retry-After"] == "1"
        assert json.loads(resp.body)["error"]["message"] == "busy"


def drain_owner():
    """The drain bookkeeping ``serve_connection`` keeps on its owner."""
    return types.SimpleNamespace(_conn_writers=set(), _active_requests=0)


async def echo(request):
    return Response.json({
        "route": request.route,
        "method": request.method,
        "echo": json.loads(request.body) if request.body else None,
    })


class TestContentKey:
    def test_sha256_of_route_nul_body(self):
        body = b'{"queries": []}'
        assert content_key("/v1/predict", body) == hashlib.sha256(
            b"/v1/predict\0" + body
        ).hexdigest()

    def test_route_and_body_both_count(self):
        body = b"{}"
        assert content_key("/v1/predict", body) != content_key(
            "/v1/advise", body
        )
        assert content_key("/v1/predict", body) != content_key(
            "/v1/predict", b"{ }"
        )


class TestClientServerRoundTrip:
    """The client against a real asyncio server running the shared
    :func:`serve_connection` loop."""

    echo_app = staticmethod(functools.partial(
        serve_connection, dispatch=echo, owner=drain_owner()
    ))

    def test_connection_loop_keeps_drain_bookkeeping(self):
        """A connection is tracked while open and a request counts as
        active while dispatching; both are released afterwards."""
        owner = drain_owner()
        seen = {}

        async def dispatch(request):
            seen["active"] = owner._active_requests
            seen["writers"] = len(owner._conn_writers)
            return await echo(request)

        async def go():
            server = await asyncio.start_server(
                functools.partial(
                    serve_connection, dispatch=dispatch, owner=owner
                ),
                "127.0.0.1",
                0,
            )
            port = server.sockets[0].getsockname()[1]
            try:
                status, _, _ = await http_request(
                    "127.0.0.1", port, "GET", "/x"
                )
                for _ in range(100):  # the handler closes after the reply
                    if not owner._conn_writers:
                        break
                    await asyncio.sleep(0.01)
            finally:
                server.close()
                await server.wait_closed()
            return status

        assert run(go()) == 200
        assert seen == {"active": 1, "writers": 1}
        assert owner._active_requests == 0
        assert not owner._conn_writers

    def test_malformed_request_gets_its_status_and_a_close(self):
        async def go():
            server = await asyncio.start_server(
                self.echo_app, "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(b"NONSENSE\r\n\r\n")
                await writer.drain()
                reply = await reader.read()
                writer.close()
                return reply
            finally:
                server.close()
                await server.wait_closed()

        reply = run(go())
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in reply

    def test_round_trip_and_keep_alive_reuse(self):
        async def go():
            server = await asyncio.start_server(
                self.echo_app, "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            conn = ClientConnection("127.0.0.1", port)
            try:
                first = await conn.request("POST", "/a", {"n": 1})
                writer_before = conn._writer
                second = await conn.request("GET", "/b")
                reused = conn._writer is writer_before
            finally:
                await conn.close()
                server.close()
                await server.wait_closed()
            return first, second, reused

        (s1, _h1, b1), (s2, _h2, b2), reused = run(go())
        assert s1 == 200 and b1 == {"route": "/a", "method": "POST",
                                    "echo": {"n": 1}}
        assert s2 == 200 and b2["route"] == "/b"
        assert reused, "keep-alive client must reuse the connection"

    def test_one_shot_helper(self):
        async def go():
            server = await asyncio.start_server(
                self.echo_app, "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            try:
                return await http_request(
                    "127.0.0.1", port, "POST", "/x", {"k": "v"}
                )
            finally:
                server.close()
                await server.wait_closed()

        status, headers, body = run(go())
        assert status == 200
        assert "json" in headers["content-type"]
        assert body["echo"] == {"k": "v"}

    def test_request_dataclass_defaults(self):
        req = Request(
            method="GET", target="/", route="/", query={}, headers={}
        )
        assert req.keep_alive and req.body == b""
