"""HTTP/1.1 message parsing and formatting (the subset the study uses).

The TCP probe is an ``HTTP GET`` for the root page; pool hosts are
encouraged to run a web server that redirects to
``www.pool.ntp.org``.  We implement request/response framing with
Content-Length bodies — enough to carry that exchange and to notice
malformed responses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...netsim.errors import CodecError

CRLF = b"\r\n"
HEADER_END = b"\r\n\r\n"
HTTP_PORT = 80


@dataclass
class HTTPRequest:
    """A parsed HTTP request."""

    method: str = "GET"
    target: str = "/"
    version: str = "HTTP/1.1"
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def encode(self) -> bytes:
        lines = [f"{self.method} {self.target} {self.version}"]
        headers = dict(self.headers)
        if self.body and "content-length" not in {k.lower() for k in headers}:
            headers["Content-Length"] = str(len(self.body))
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        head = "\r\n".join(lines).encode("ascii") + HEADER_END
        return head + self.body

    @classmethod
    def decode(cls, data: bytes) -> "HTTPRequest":
        head, _sep, body = data.partition(HEADER_END)
        if not _sep:
            raise CodecError("request headers not terminated")
        lines = head.split(CRLF)
        try:
            method, target, version = lines[0].decode("ascii").split(" ", 2)
        except (UnicodeDecodeError, ValueError) as exc:
            raise CodecError(f"bad request line: {lines[0]!r}") from exc
        headers = _parse_headers(lines[1:])
        return cls(method=method, target=target, version=version, headers=headers, body=body)


@dataclass
class HTTPResponse:
    """A parsed HTTP response."""

    status: int = 200
    reason: str = "OK"
    version: str = "HTTP/1.1"
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def encode(self) -> bytes:
        headers = dict(self.headers)
        lowered = {k.lower() for k in headers}
        if "content-length" not in lowered:
            headers["Content-Length"] = str(len(self.body))
        if "connection" not in lowered:
            headers["Connection"] = "close"
        lines = [f"{self.version} {self.status} {self.reason}"]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        head = "\r\n".join(lines).encode("ascii") + HEADER_END
        return head + self.body

    @classmethod
    def decode(cls, data: bytes) -> "HTTPResponse":
        head, _sep, body = data.partition(HEADER_END)
        if not _sep:
            raise CodecError("response headers not terminated")
        lines = head.split(CRLF)
        parts = lines[0].decode("ascii", errors="replace").split(" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise CodecError(f"bad status line: {lines[0]!r}")
        version = parts[0]
        status = int(parts[1])
        reason = parts[2] if len(parts) > 2 else ""
        headers = _parse_headers(lines[1:])
        return cls(status=status, reason=reason, version=version, headers=headers, body=body)

    def header(self, name: str) -> str | None:
        """Case-insensitive header lookup; ``None`` when absent."""
        wanted = name.lower()
        for key, value in self.headers.items():
            if key.lower() == wanted:
                return value
        return None


def _parse_headers(lines: list[bytes]) -> dict[str, str]:
    headers: dict[str, str] = {}
    for raw in lines:
        if not raw:
            continue
        name, sep, value = raw.decode("ascii", errors="replace").partition(":")
        if not sep:
            raise CodecError(f"bad header line: {raw!r}")
        headers[name.strip()] = value.strip()
    return headers
