"""The custom NTP client used by the measurement application.

Implements the paper's probe policy exactly: the request rides in a
UDP packet whose ECN field is set by the caller; if no response
arrives within one second the request is retransmitted, up to five
times in total, before the server is declared unreachable (§3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ...netsim.ecn import ECN
from ...netsim.engine import Event
from ...netsim.errors import CodecError
from ...netsim.host import Host
from ...netsim.ipv4 import IPv4Packet
from ...netsim.udp import UDPDatagram
from .packet import NTPPacket, NTP_PORT

#: The paper's retry policy.
DEFAULT_ATTEMPTS = 5
DEFAULT_TIMEOUT = 1.0


@dataclass
class NTPQueryResult:
    """Outcome of one NTP reachability query."""

    server_addr: int
    ecn: ECN
    responded: bool
    attempts: int
    rtt: float | None = None
    response: NTPPacket | None = None
    response_packet: IPv4Packet | None = None


#: Completion callback: receives the result when the query resolves.
QueryCallback = Callable[[NTPQueryResult], None]


class NTPQuery:
    """One in-flight reachability query (request + retransmissions)."""

    def __init__(
        self,
        host: Host,
        server_addr: int,
        ecn: ECN,
        callback: QueryCallback,
        attempts: int = DEFAULT_ATTEMPTS,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        self.host = host
        self.server_addr = server_addr
        self.ecn = ecn
        self.callback = callback
        self.max_attempts = attempts
        self.timeout = timeout
        self.attempts_made = 0
        self.finished = False
        self._timer: Event | None = None
        self._sent_at = 0.0
        self._request: NTPPacket | None = None
        self._socket = host.udp_bind(None, self._on_datagram)

    def start(self) -> None:
        """Send the first request."""
        self._send_attempt()

    def _send_attempt(self) -> None:
        scheduler = self.host.network.scheduler
        self.attempts_made += 1
        self._sent_at = scheduler.now
        self._request = NTPPacket.client_request(scheduler.clock.ntp_time())
        self._socket.send(
            self.server_addr,
            NTP_PORT,
            self._request,
            ecn=self.ecn,
            ident=self.attempts_made,
        )
        self._timer = scheduler.schedule(self.timeout, self._on_timeout)

    def _on_timeout(self) -> None:
        self._timer = None
        if self.finished:
            return
        if self.attempts_made >= self.max_attempts:
            self._finish(
                NTPQueryResult(
                    server_addr=self.server_addr,
                    ecn=self.ecn,
                    responded=False,
                    attempts=self.attempts_made,
                )
            )
            return
        self._send_attempt()

    def _on_datagram(self, datagram: UDPDatagram, packet: IPv4Packet, now: float) -> None:
        if self.finished or packet.src != self.server_addr:
            return
        try:
            response = datagram.read(NTPPacket)
        except CodecError:
            return
        if self._request is None or not response.is_valid_response_to(self._request):
            return
        self._finish(
            NTPQueryResult(
                server_addr=self.server_addr,
                ecn=self.ecn,
                responded=True,
                attempts=self.attempts_made,
                rtt=now - self._sent_at,
                response=response,
                response_packet=packet,
            )
        )

    def _finish(self, result: NTPQueryResult) -> None:
        self.finished = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._socket.close()
        self.callback(result)


def query_server(
    host: Host,
    server_addr: int,
    ecn: ECN,
    callback: QueryCallback,
    attempts: int = DEFAULT_ATTEMPTS,
    timeout: float = DEFAULT_TIMEOUT,
) -> NTPQuery:
    """Start an NTP reachability query; the callback fires on completion."""
    query = NTPQuery(host, server_addr, ecn, callback, attempts, timeout)
    query.start()
    return query
