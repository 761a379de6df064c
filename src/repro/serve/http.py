"""A minimal HTTP/1.1 layer over :mod:`asyncio` streams.

The study server needs exactly four things from HTTP: parse a request
(line + headers + ``Content-Length`` body), write a response, stream a
response body in chunks (``Transfer-Encoding: chunked``, for live
progress feeds), and reject garbage without crashing the connection
handler.  The stdlib offers no asyncio HTTP server and the repo takes
no new runtime dependencies, so this module implements that subset —
deliberately small, deliberately strict:

* one request per connection (``Connection: close`` on every
  response), which keeps the server loop trivially correct under
  client disconnects mid-stream;
* request bodies are bounded (:data:`MAX_BODY_BYTES`), header count
  and line lengths are bounded, and oversized input maps to 413/431
  rather than unbounded buffering;
* only the request features the API uses are implemented — there is
  no content negotiation, no multipart, no keep-alive pipelining.

The synthetic-internet :mod:`repro.protocols.http` package models
HTTP *inside the simulation*; this module is the real-socket face of
the server and shares nothing with it.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote, urlsplit

#: Largest accepted request body (study submissions are tiny JSON).
MAX_BODY_BYTES = 1 << 20
#: Largest accepted request/header line.
MAX_LINE_BYTES = 16 * 1024
#: Most headers accepted per request.
MAX_HEADERS = 100

#: Reason phrases for the statuses the server actually emits.
REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request that cannot be served; carries the response status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes

    def json(self):
        """Decode the body as JSON, mapping failures to 400."""
        if not self.body:
            raise HttpError(400, "request body must be a JSON object")
        try:
            return json.loads(self.body)
        except (ValueError, RecursionError) as exc:  # too deeply nested
            raise HttpError(400, f"invalid JSON body: {exc}") from exc


@dataclass
class Response:
    """One response to serialise; body may be bytes or a str."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(cls, payload, status: int = 200, **headers) -> "Response":
        body = (json.dumps(payload, indent=2) + "\n").encode()
        return cls(status=status, body=body, headers=headers)

    @classmethod
    def error(cls, status: int, message: str, **headers) -> "Response":
        return cls.json({"error": message, "status": status}, status=status, **headers)

    @classmethod
    def text(cls, body: str, content_type: str) -> "Response":
        return cls(body=body.encode(), content_type=content_type)


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return b""
        line = exc.partial
    except asyncio.LimitOverrunError as exc:
        raise HttpError(431, "header line too long") from exc
    if len(line) > MAX_LINE_BYTES:
        raise HttpError(431, "header line too long")
    return line


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request; ``None`` when the peer closed pre-request."""
    start = await _read_line(reader)
    if not start.strip():
        return None
    parts = start.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
        raise HttpError(400, f"malformed request line: {start[:80]!r}")
    method, target = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    while True:
        line = await _read_line(reader)
        if not line.strip():
            break
        if len(headers) >= MAX_HEADERS:
            raise HttpError(431, "too many headers")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header: {line[:80]!r}")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    # ASCII digits only: int() would also take "+10", "1_0" and
    # non-ASCII digits.
    if not (length_text.isascii() and length_text.isdigit()):
        raise HttpError(400, f"bad Content-Length: {length_text!r}")
    length = int(length_text)
    if length > MAX_BODY_BYTES:
        raise HttpError(413, f"request body over {MAX_BODY_BYTES} bytes")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise HttpError(400, "request body truncated") from exc
    try:
        split = urlsplit(target)
    except ValueError as exc:  # e.g. an unclosed "[" IPv6 literal
        raise HttpError(400, f"malformed request target: {target[:80]!r}") from exc
    query = dict(parse_qsl(split.query))
    return Request(
        method=method,
        path=unquote(split.path),
        query=query,
        headers=headers,
        body=body,
    )


def _head(status: int, content_type: str, headers: dict[str, str], chunked: bool) -> bytes:
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}", f"Content-Type: {content_type}"]
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    if chunked:
        lines.append("Transfer-Encoding: chunked")
    lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def write_response(writer: asyncio.StreamWriter, response: Response) -> None:
    """Serialise a complete (non-streaming) response."""
    headers = dict(response.headers)
    headers["Content-Length"] = str(len(response.body))
    writer.write(_head(response.status, response.content_type, headers, chunked=False))
    writer.write(response.body)
    await writer.drain()


class ChunkedWriter:
    """Stream a chunked response body, one ``send`` per chunk.

    Backpressure is the transport's: every chunk awaits ``drain()``,
    so a slow consumer slows the producer instead of ballooning the
    write buffer.
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self._started = False

    async def start(
        self,
        status: int = 200,
        content_type: str = "application/x-ndjson",
        headers: dict[str, str] | None = None,
    ) -> None:
        self._writer.write(_head(status, content_type, headers or {}, chunked=True))
        await self._writer.drain()
        self._started = True

    async def send(self, data: bytes | str) -> None:
        if isinstance(data, str):
            data = data.encode()
        if not data:
            return
        self._writer.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")
        await self._writer.drain()

    async def finish(self) -> None:
        if self._started:
            self._writer.write(b"0\r\n\r\n")
            await self._writer.drain()
