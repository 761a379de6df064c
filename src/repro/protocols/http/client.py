"""HTTP client used for the TCP/ECN reachability probes.

One :class:`HTTPFetch` performs the paper's TCP test: open a
connection (optionally with an ECN-setup SYN), send ``GET /``, collect
the response, and record what the SYN-ACK's flag bits said.  The
result distinguishes every outcome the analysis needs: no answer,
connection refused, connected-but-bad-HTTP, full response, and — for
ECN probes — whether an ECN-setup SYN-ACK came back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ...netsim.engine import Event
from ...netsim.errors import CodecError
from ...netsim.host import Host
from ...tcp.connection import TCPConnection, TCPStack
from ...tcp.segment import Flags
from .messages import HTTPResponse, HTTP_PORT, response_complete

DEFAULT_DEADLINE = 8.0


@dataclass
class FetchResult:
    """Outcome of one HTTP fetch."""

    server_addr: int
    used_ecn_setup: bool
    connected: bool
    response: HTTPResponse | None
    failure: str | None
    #: Flags seen on the server's SYN-ACK (None if none arrived).
    synack_flags: Flags | None
    #: True iff the SYN-ACK was a valid ECN-setup SYN-ACK (RFC 3168).
    ecn_negotiated: bool
    rtt: float | None = None

    @property
    def ok(self) -> bool:
        """True when a complete, parseable HTTP response was received."""
        return self.response is not None


FetchCallback = Callable[[FetchResult], None]


class HTTPFetch:
    """One in-flight GET with an overall deadline."""

    def __init__(
        self,
        host: Host,
        server_addr: int,
        use_ecn: bool,
        callback: FetchCallback,
        deadline: float = DEFAULT_DEADLINE,
    ) -> None:
        self.host = host
        self.server_addr = server_addr
        self.use_ecn = use_ecn
        self.callback = callback
        self.finished = False
        self._buffer = b""
        self._connected = False
        self._started_at = 0.0
        stack = host.tcp if isinstance(host.tcp, TCPStack) else TCPStack(host)
        self._started_at = stack.scheduler.now
        self.conn = stack.connect(server_addr, HTTP_PORT, use_ecn=use_ecn)
        self.conn.on_established = self._on_established
        self.conn.on_data = self._on_data
        self.conn.on_close = self._on_close
        self.conn.on_failure = self._on_failure
        self._deadline_timer: Event = stack.scheduler.schedule(
            deadline, self._on_deadline
        )

    # ------------------------------------------------------------------
    # Connection callbacks
    # ------------------------------------------------------------------
    def _on_established(self, conn: TCPConnection) -> None:
        self._connected = True
        request = (
            b"GET / HTTP/1.1\r\n"
            b"Host: " + self.host.hostname.encode("ascii") + b"\r\n"
            b"User-Agent: ecn-udp-measurement/1.0\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        conn.send(request)

    def _on_data(self, conn: TCPConnection, data: bytes) -> None:
        if self.finished:
            return
        self._buffer += data
        if response_complete(self._buffer):
            self._complete()

    def _on_close(self, conn: TCPConnection, reason: str) -> None:
        if self.finished:
            return
        if self._buffer:
            self._complete()
        elif reason in ("peer-fin", "closed", "reset"):
            self._finish(failure="closed-without-response")

    def _on_failure(self, conn: TCPConnection, reason: str) -> None:
        if not self.finished:
            self._finish(failure=reason)

    def _on_deadline(self) -> None:
        if self.finished:
            return
        self.conn.abort("deadline")
        if self._buffer:
            self._complete()
        else:
            self._finish(failure="deadline")

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _complete(self) -> None:
        try:
            response = HTTPResponse.decode(self._buffer)
        except CodecError:
            self._finish(failure="bad-response")
            return
        self._finish(response=response)

    def _finish(self, response: HTTPResponse | None = None, failure: str | None = None) -> None:
        if self.finished:
            return
        self.finished = True
        self._deadline_timer.cancel()
        scheduler = self.host.network.scheduler
        synack = self.conn.peer_syn_flags
        negotiated = bool(
            self.use_ecn
            and synack is not None
            and (synack & Flags.SYN)
            and (synack & Flags.ACK)
            and (synack & Flags.ECE)
            and not (synack & Flags.CWR)
        )
        if self.conn.state.value not in ("closed", "failed", "time-wait"):
            self.conn.abort("probe-finished")
        self.callback(
            FetchResult(
                server_addr=self.server_addr,
                used_ecn_setup=self.use_ecn,
                connected=self._connected,
                response=response,
                failure=failure,
                synack_flags=synack,
                ecn_negotiated=negotiated,
                rtt=(scheduler.now - self._started_at) if response is not None else None,
            )
        )
