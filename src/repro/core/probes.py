"""The probing primitives of the measurement application.

Three probes, straight from §3 of the paper:

* :func:`probe_udp` — an NTP request in a UDP packet with a chosen ECN
  field; up to five transmissions, one second timeout each.
* :func:`probe_tcp` — an HTTP GET over TCP, with or without an
  ECN-setup SYN; records whether an ECN-setup SYN-ACK came back.
* :class:`Traceroute` — TTL-limited ECT(0)-marked UDP probes whose
  returning ICMP quotations reveal, hop by hop, whether the mark
  survived (§4.2, after Malone & Luckie).

Plus the modern-sequel extension:

* :func:`probe_quic` — a QUIC-like connection performing RFC 9000
  §13.4 ECN count validation, distinguishing bleached from blackholed
  from valid paths where raw reachability probes cannot.

All primitives are synchronous from the caller's perspective: they
drive the simulation scheduler until the probe resolves, exactly as a
blocking measurement binary would.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..netsim.ecn import ECN
from ..netsim.engine import Event
from ..netsim.errors import CodecError
from ..netsim.host import Host
from ..netsim.icmp import (
    CODE_PORT_UNREACHABLE,
    ICMPMessage,
    TYPE_DEST_UNREACHABLE,
    TYPE_TIME_EXCEEDED,
)
from ..netsim.ipv4 import IPv4Packet
from ..netsim.udp import UDPDatagram
from ..protocols.http.client import FetchResult, HTTPFetch
from ..protocols.ntp.client import NTPQueryResult, query_server
from ..protocols.quic.connection import QUICProbeResult, probe_server
from ..scenario.parameters import ProbeParams
from .traces import HopObservation, PathTrace

#: Classic traceroute destination port base.
TRACEROUTE_PORT_BASE = 33434


def probe_udp(
    host: Host,
    server_addr: int,
    ecn: ECN,
    attempts: int = 5,
    timeout: float = 1.0,
) -> NTPQueryResult:
    """Run one UDP reachability measurement to completion."""
    results: list[NTPQueryResult] = []
    query_server(
        host,
        server_addr,
        ecn,
        results.append,
        attempts=attempts,
        timeout=timeout,
    )
    host.network.scheduler.run()
    if not results:
        raise RuntimeError("NTP query did not resolve")  # pragma: no cover
    return results[0]


def probe_quic(
    host: Host,
    server_addr: int,
    params: ProbeParams | None = None,
) -> QUICProbeResult:
    """Run one QUIC ECN-validation probe to completion."""
    params = params if params is not None else ProbeParams()
    results: list[QUICProbeResult] = []
    probe_server(
        host,
        server_addr,
        results.append,
        packets=params.quic_packets,
        handshake_attempts=params.quic_handshake_attempts,
        fallback_attempts=params.quic_fallback_attempts,
        timeout=params.quic_timeout,
        packet_gap=params.quic_packet_gap,
    )
    host.network.scheduler.run()
    if not results:
        raise RuntimeError("QUIC probe did not resolve")  # pragma: no cover
    return results[0]


def probe_tcp(
    host: Host,
    server_addr: int,
    use_ecn: bool,
    deadline: float = 8.0,
) -> FetchResult:
    """Run one TCP/HTTP reachability measurement to completion."""
    results: list[FetchResult] = []
    HTTPFetch(host, server_addr, use_ecn, results.append, deadline=deadline)
    host.network.scheduler.run()
    if not results:
        raise RuntimeError("HTTP fetch did not resolve")  # pragma: no cover
    return results[0]


@dataclass
class ECNUsabilityResult:
    """Outcome of the Kühlewind-style TCP ECN usability test."""

    server_addr: int
    negotiated: bool
    #: A CE-marked data segment was actually sent toward the server.
    ce_sent: bool
    #: The server echoed ECE on a subsequent ACK: ECN is *usable*.
    ece_echoed: bool
    #: The server's CWR response to our eventual CWR is not tested —
    #: the paper's comparison point is the ECE echo alone.
    response_ok: bool


def probe_tcp_ecn_usability(
    host: Host,
    server_addr: int,
) -> ECNUsabilityResult:
    """Kühlewind et al.'s ECN *usability* test, as an extension probe.

    The paper measures only negotiation ("We do not perform such a
    test with TCP", §5); this probe closes that gap: after negotiating
    ECN, the first request segment is sent with ECN-CE already set —
    as if a router had marked it — and the test records whether the
    server's ACKs come back with ECE set, proving the server's ECN
    feedback loop actually works (Kühlewind et al. found ~90 % did).
    """
    results: list[FetchResult] = []
    fetch = HTTPFetch(host, server_addr, use_ecn=True, callback=results.append)
    fetch.conn.force_ce_once = True
    host.network.scheduler.run()
    if not results:
        raise RuntimeError("HTTP fetch did not resolve")  # pragma: no cover
    result = results[0]
    stats = fetch.conn.ecn_stats
    return ECNUsabilityResult(
        server_addr=server_addr,
        negotiated=result.ecn_negotiated,
        ce_sent=result.ecn_negotiated and stats.ect_data_sent > 0,
        ece_echoed=stats.ece_received > 0,
        response_ok=result.ok,
    )


@dataclass
class _PendingHop:
    """Book-keeping for the probe currently in flight."""

    ttl: int
    attempt: int
    ident: int
    src_port: int
    sent_at: float


class Traceroute:
    """An ECT(0)-marked UDP traceroute to one destination.

    Walks TTLs upward, sending ``attempts`` probes per TTL (moving on
    early when a response arrives), and gives up after
    ``silent_limit`` consecutive unresponsive TTLs — which in practice
    means one hop past the destination's access router, since pool
    hosts do not answer high-port UDP (the paper: traces "generally
    stop one hop before the destination").
    """

    def __init__(
        self,
        host: Host,
        dst_addr: int,
        ecn: ECN = ECN.ECT_0,
        max_ttl: int = 30,
        attempts: int = 2,
        timeout: float = 1.0,
        silent_limit: int = 4,
        dscp: int = 0,
    ) -> None:
        self.host = host
        self.dst_addr = dst_addr
        self.ecn = ecn
        self.dscp = dscp
        self.max_ttl = max_ttl
        self.attempts = attempts
        self.timeout = timeout
        self.silent_limit = silent_limit

        self.path = PathTrace(
            vantage_key=host.hostname, dst_addr=dst_addr, sent_ecn=int(ecn)
        )
        self.finished = False
        self._consecutive_silent = 0
        self._pending: _PendingHop | None = None
        self._timer: Event | None = None
        self._socket = self.host.udp_bind(None)
        self._remove_icmp = self.host.on_icmp(self._on_icmp)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run(self) -> PathTrace:
        """Execute the whole traceroute; returns the observed path."""
        self._send_probe(ttl=1, attempt=1)
        self.host.network.scheduler.run()
        return self.path

    def _send_probe(self, ttl: int, attempt: int) -> None:
        scheduler = self.host.network.scheduler
        ident = (ttl << 6) | attempt
        self._pending = _PendingHop(
            ttl=ttl,
            attempt=attempt,
            ident=ident,
            src_port=self._socket.port,
            sent_at=scheduler.now,
        )
        self._socket.send(
            self.dst_addr,
            TRACEROUTE_PORT_BASE + ttl,
            b"ecn-traceroute",
            ecn=self.ecn,
            dscp=self.dscp,
            ttl=ttl,
            ident=ident,
        )
        self._timer = scheduler.schedule(self.timeout, self._on_timeout)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def _on_icmp(self, message: ICMPMessage, packet: IPv4Packet, now: float) -> None:
        if self.finished or self._pending is None or not message.is_error:
            return
        try:
            quoted = message.quoted_packet()
        except CodecError:
            return
        pending = self._pending
        if quoted.dst != self.dst_addr or quoted.ident != pending.ident:
            return
        try:
            quoted_udp = UDPDatagram.decode(quoted.payload)
        except CodecError:
            return
        if quoted_udp.src_port != pending.src_port:
            return

        if message.icmp_type == TYPE_TIME_EXCEEDED:
            self._record_hop(
                HopObservation(
                    ttl=pending.ttl,
                    responder=packet.src,
                    sent_ecn=int(self.ecn),
                    quoted_ecn=int(quoted.ecn),
                    rtt=now - pending.sent_at,
                    quoted_tos=quoted.tos,
                    quoted_ident=quoted.ident,
                )
            )
            self._advance(next_ttl=pending.ttl + 1)
        elif (
            message.icmp_type == TYPE_DEST_UNREACHABLE
            and message.code == CODE_PORT_UNREACHABLE
        ):
            self._record_hop(
                HopObservation(
                    ttl=pending.ttl,
                    responder=packet.src,
                    sent_ecn=int(self.ecn),
                    quoted_ecn=int(quoted.ecn),
                    rtt=now - pending.sent_at,
                    quoted_tos=quoted.tos,
                    quoted_ident=quoted.ident,
                )
            )
            self.path.reached_destination = True
            self._finish()

    def _on_timeout(self) -> None:
        self._timer = None
        if self.finished or self._pending is None:
            return
        pending = self._pending
        if pending.attempt < self.attempts:
            self._send_probe(pending.ttl, pending.attempt + 1)
            return
        # All attempts at this TTL went unanswered.
        self._record_hop(
            HopObservation(
                ttl=pending.ttl,
                responder=None,
                sent_ecn=int(self.ecn),
                quoted_ecn=None,
            )
        )
        self._advance(next_ttl=pending.ttl + 1, silent=True)

    # ------------------------------------------------------------------
    # Progression
    # ------------------------------------------------------------------
    def _record_hop(self, hop: HopObservation) -> None:
        self.path.hops.append(hop)

    def _advance(self, next_ttl: int, silent: bool = False) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._pending = None
        if silent:
            self._consecutive_silent += 1
        else:
            self._consecutive_silent = 0
        if next_ttl > self.max_ttl or self._consecutive_silent >= self.silent_limit:
            self._finish()
            return
        self._send_probe(ttl=next_ttl, attempt=1)

    def _finish(self) -> None:
        if self.finished:
            return
        self.finished = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._remove_icmp()
        self._socket.close()
        # Trailing silent TTLs carry no information; drop them so the
        # recorded path ends at the last responsive hop.
        while self.path.hops and not self.path.hops[-1].responded:
            self.path.hops.pop()


def run_traceroute(
    host: Host,
    dst_addr: int,
    ecn: ECN = ECN.ECT_0,
    params: ProbeParams | None = None,
) -> PathTrace:
    """Convenience wrapper building a :class:`Traceroute` from params."""
    params = params if params is not None else ProbeParams()
    return Traceroute(
        host,
        dst_addr,
        ecn=ecn,
        max_ttl=params.traceroute_max_ttl,
        attempts=params.traceroute_attempts,
        timeout=params.traceroute_timeout,
        silent_limit=params.traceroute_silent_limit,
    ).run()
