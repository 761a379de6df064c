"""The web servers co-located with NTP pool hosts.

Pool operators are encouraged to run a web server whose root page
redirects to ``www.pool.ntp.org``; many do not.  A host either runs a
:class:`PoolWebServer` (with one of the ECN negotiation policies from
:mod:`repro.tcp.connection`) or has no listener at all, in which case
its TCP stack answers SYNs with RST — or, when the host has no stack,
with silence.  Both non-server cases read as "not reachable using TCP"
to the measurement application, matching the paper's average of 1334
web servers among 2500 pool hosts.
"""

from __future__ import annotations

import functools

from ...netsim.errors import CodecError
from ...netsim.host import Host
from ...tcp.connection import ECNServerPolicy, TCPConnection, TCPStack
from .messages import HTTPRequest, HTTPResponse, HTTP_PORT

REDIRECT_TARGET = "http://www.pool.ntp.org/"

_REDIRECT_BODY = (
    b"<html><head><title>NTP Pool</title></head>"
    b"<body>This server is part of the <a href=\"" + REDIRECT_TARGET.encode() + b"\">"
    b"NTP pool</a>.</body></html>"
)


class PoolWebServer:
    """Minimal HTTP/1.1 server: answers GET / with a redirect."""

    def __init__(
        self,
        host: Host,
        ecn_policy: ECNServerPolicy = ECNServerPolicy.IGNORE,
    ) -> None:
        self.host = host
        self.requests_served = 0
        stack = host.tcp if isinstance(host.tcp, TCPStack) else TCPStack(host)
        self.stack = stack
        self.listener = stack.listen(HTTP_PORT, self._on_connection, ecn_policy=ecn_policy)
        self._buffers: dict[tuple[int, int, int], bytes] = {}

    @property
    def ecn_policy(self) -> ECNServerPolicy:
        return self.listener.ecn_policy

    def _on_connection(self, conn: TCPConnection) -> None:
        self._buffers[conn.key] = b""
        conn.on_data = self._on_data
        conn.on_close = self._on_close
        conn.on_failure = self._on_close

    def _on_data(self, conn: TCPConnection, data: bytes) -> None:
        buffer = self._buffers.get(conn.key, b"") + data
        self._buffers[conn.key] = buffer
        if b"\r\n\r\n" not in buffer:
            return
        self.requests_served += 1
        conn.send(_response(buffer))
        conn.close()
        self._buffers.pop(conn.key, None)

    def _on_close(self, conn: TCPConnection, reason: str) -> None:
        self._buffers.pop(conn.key, None)


@functools.lru_cache(maxsize=64)
def _response(request: bytes) -> bytes:
    """The answer to one request's bytes.  Every server answers alike and
    probes repeat a few requests, so each is parsed and answered once."""
    try:
        method = HTTPRequest.decode(request).method
    except CodecError:
        return HTTPResponse(status=400, reason="Bad Request").encode()
    if method != "GET":
        return HTTPResponse(status=405, reason="Method Not Allowed").encode()
    headers = {"Location": REDIRECT_TARGET, "Server": "ntppool/1.0"}
    return HTTPResponse(302, "Found", headers=headers, body=_REDIRECT_BODY).encode()
