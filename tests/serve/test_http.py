"""Unit tests for the minimal HTTP/1.1 layer of the study server."""

import asyncio
import json

import pytest

from repro.serve.http import (
    MAX_BODY_BYTES,
    MAX_HEADERS,
    ChunkedWriter,
    HttpError,
    Response,
    read_request,
    write_response,
)


def parse(raw: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


class FakeWriter:
    """Captures bytes; satisfies the write/drain surface the layer uses."""

    def __init__(self):
        self.data = b""

    def write(self, chunk: bytes) -> None:
        self.data += chunk

    async def drain(self) -> None:
        pass


class TestReadRequest:
    def test_get_with_query(self):
        request = parse(b"GET /studies?limit=3&x=y%20z HTTP/1.1\r\nHost: h\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/studies"
        assert request.query == {"limit": "3", "x": "y z"}
        assert request.headers["host"] == "h"
        assert request.body == b""

    def test_post_with_body(self):
        body = json.dumps({"scale": 0.01}).encode()
        raw = (
            b"POST /studies HTTP/1.1\r\nContent-Length: "
            + str(len(body)).encode()
            + b"\r\n\r\n"
            + body
        )
        request = parse(raw)
        assert request.method == "POST"
        assert request.json() == {"scale": 0.01}

    def test_peer_closed_before_request_is_none(self):
        assert parse(b"") is None

    def test_malformed_request_line(self):
        # urlsplit() raises ValueError on an unclosed IPv6 literal.
        for start in (b"NONSENSE", b"GET //[x HTTP/1.1"):
            with pytest.raises(HttpError) as exc:
                parse(start + b"\r\n\r\n")
            assert exc.value.status == 400, start

    def test_malformed_header(self):
        with pytest.raises(HttpError) as exc:
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")
        assert exc.value.status == 400

    def test_bad_content_length(self):
        # int() alone would take "1_0" and "+10" as 10; b"\xb2" is
        # latin-1 superscript two, which str.isdigit() accepts.
        for value in (b"ponies", b"1_0", b"+10", b"-1", b"", b"\xb2"):
            with pytest.raises(HttpError) as exc:
                parse(b"GET / HTTP/1.1\r\nContent-Length: " + value + b"\r\n\r\n0123456789")
            assert exc.value.status == 400, value

    def test_oversize_body_is_413(self):
        raw = (
            b"POST / HTTP/1.1\r\nContent-Length: "
            + str(MAX_BODY_BYTES + 1).encode()
            + b"\r\n\r\n"
        )
        with pytest.raises(HttpError) as exc:
            parse(raw)
        assert exc.value.status == 413

    def test_truncated_body_is_400(self):
        with pytest.raises(HttpError) as exc:
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
        assert exc.value.status == 400

    def test_oversize_header_line_is_431(self):
        raw = b"GET / HTTP/1.1\r\nX-Big: " + b"a" * (17 * 1024) + b"\r\n\r\n"
        with pytest.raises(HttpError) as exc:
            parse(raw)
        assert exc.value.status == 431

    def test_too_many_headers_is_431(self):
        headers = b"".join(
            b"X-H%d: v\r\n" % i for i in range(MAX_HEADERS + 1)
        )
        with pytest.raises(HttpError) as exc:
            parse(b"GET / HTTP/1.1\r\n" + headers + b"\r\n")
        assert exc.value.status == 431

    def test_json_body_failures_map_to_400(self):
        request = parse(b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\nnot")
        with pytest.raises(HttpError) as exc:
            request.json()
        assert exc.value.status == 400
        empty = parse(b"POST / HTTP/1.1\r\n\r\n")
        with pytest.raises(HttpError):
            empty.json()


class TestWriteResponse:
    def serialise(self, response: Response) -> bytes:
        writer = FakeWriter()
        asyncio.run(write_response(writer, response))
        return writer.data

    def test_json_response_framing(self):
        data = self.serialise(Response.json({"ok": True}, status=202))
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 202 Accepted\r\n")
        assert b"Content-Type: application/json" in head
        assert b"Connection: close" in head
        assert int(dict(
            line.split(b": ", 1) for line in head.split(b"\r\n")[1:]
        )[b"Content-Length"]) == len(body)
        assert json.loads(body) == {"ok": True}

    def test_error_carries_extra_headers(self):
        data = self.serialise(Response.error(429, "slow down", **{"Retry-After": "7"}))
        head = data.partition(b"\r\n\r\n")[0]
        assert head.startswith(b"HTTP/1.1 429 Too Many Requests\r\n")
        assert b"Retry-After: 7" in head

    def test_chunked_writer_framing(self):
        writer = FakeWriter()

        async def go():
            chunked = ChunkedWriter(writer)
            await chunked.start(content_type="application/x-ndjson")
            await chunked.send("hello\n")
            await chunked.send(b"")  # empty chunks are skipped (0 = end)
            await chunked.send(b"world\n")
            await chunked.finish()

        asyncio.run(go())
        head, _, body = writer.data.partition(b"\r\n\r\n")
        assert b"Transfer-Encoding: chunked" in head
        assert body == b"6\r\nhello\n\r\n6\r\nworld\n\r\n0\r\n\r\n"

    def test_finish_without_start_writes_nothing(self):
        writer = FakeWriter()
        asyncio.run(ChunkedWriter(writer).finish())
        assert writer.data == b""
