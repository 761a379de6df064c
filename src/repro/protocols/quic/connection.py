"""The client half of the QUIC ECN-validation probe.

Implements the RFC 9000 §13.4 sender behaviour as a measurement probe:
open a connection with an ECT(0)-marked Initial, send a short burst of
ECT(0)-marked 1-RTT PINGs, and collect the ECT(0)/ECT(1)/CE totals the
server echoes in ACK_ECN frames.  If the ECT(0) handshake times out,
fall back to a not-ECT handshake on a fresh connection ID — success
there means the path blackholes ECT-marked UDP rather than the server
being dead, which is exactly the distinction the raw-UDP differential
probe makes with two NTP queries.

The class mirrors :class:`repro.protocols.ntp.client.NTPQuery`: one
ephemeral socket, scheduler-driven timers, a completion callback.
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
from .packet import (
    CLIENT_HELLO,
    QUIC_PORT,
    SERVER_HELLO,
    CryptoFrame,
    PingFrame,
    QUICPacket,
    TYPE_INITIAL,
    TYPE_ONE_RTT,
)

#: Default probe policy: one Initial plus eight PINGs per connection,
#: NTP-style one-second timers.
DEFAULT_PACKETS = 8
DEFAULT_HANDSHAKE_ATTEMPTS = 5
DEFAULT_FALLBACK_ATTEMPTS = 2
DEFAULT_TIMEOUT = 1.0
DEFAULT_PACKET_GAP = 0.02


@dataclass
class QUICProbeResult:
    """Raw outcome of one QUIC ECN probe (classify with
    :func:`repro.protocols.quic.validation.classify_probe`)."""

    server_addr: int
    handshake_ok: bool
    fallback_ok: bool
    handshake_attempts: int
    packets_sent: int
    packets_acked: int
    ect0_echoed: int
    ect1_echoed: int
    ce_echoed: int


#: Completion callback: receives the result when the probe resolves.
ProbeCallback = Callable[[QUICProbeResult], None]

#: Internal phases of the probe state machine.
_PHASE_ECT = "handshake-ect"
_PHASE_FALLBACK = "handshake-fallback"
_PHASE_DATA = "data"


class QUICProbe:
    """One in-flight QUIC ECN-validation probe."""

    def __init__(
        self,
        host: Host,
        server_addr: int,
        callback: ProbeCallback,
        packets: int = DEFAULT_PACKETS,
        handshake_attempts: int = DEFAULT_HANDSHAKE_ATTEMPTS,
        fallback_attempts: int = DEFAULT_FALLBACK_ATTEMPTS,
        timeout: float = DEFAULT_TIMEOUT,
        packet_gap: float = DEFAULT_PACKET_GAP,
    ) -> None:
        self.host = host
        self.server_addr = server_addr
        self.callback = callback
        self.packets = packets
        self.max_handshake_attempts = handshake_attempts
        self.max_fallback_attempts = fallback_attempts
        self.timeout = timeout
        self.packet_gap = packet_gap
        self.phase = _PHASE_ECT
        self.finished = False
        self.handshake_ok = False
        self.fallback_ok = False
        self.handshake_attempts = 0
        self.fallback_attempts = 0
        self.pings_sent = 0
        self.acked = 0
        self.ect0 = 0
        self.ect1 = 0
        self.ce = 0
        self._timer: Event | None = None
        self._attempt_ident = 0
        self._socket = host.udp_bind(None, self._on_datagram)
        #: Connection ID: the ephemeral port is already unique per
        #: concurrent probe on a host and deterministic per epoch.
        self.cid = self._socket.port

    def start(self) -> None:
        """Send the first ECT(0)-marked Initial."""
        self._send_handshake()

    # ------------------------------------------------------------------
    # Handshake
    # ------------------------------------------------------------------
    def _send_handshake(self) -> None:
        scheduler = self.host.network.scheduler
        if self.phase == _PHASE_ECT:
            self.handshake_attempts += 1
            ecn = ECN.ECT_0
            cid = self.cid
        else:
            self.fallback_attempts += 1
            ecn = ECN.NOT_ECT
            # A fresh connection ID keeps the fallback connection's
            # counters independent of any half-open ECT connection.
            cid = self.cid + 1
        self._attempt_ident += 1
        initial = QUICPacket(
            ptype=TYPE_INITIAL,
            cid=cid,
            packet_number=0,
            frames=[CryptoFrame(token=CLIENT_HELLO)],
        )
        self._socket.send(
            self.server_addr,
            QUIC_PORT,
            initial,
            ecn=ecn,
            ident=self._attempt_ident,
        )
        self._timer = scheduler.schedule(self.timeout, self._on_timeout)

    def _on_timeout(self) -> None:
        self._timer = None
        if self.finished:
            return
        if self.phase == _PHASE_ECT:
            if self.handshake_attempts < self.max_handshake_attempts:
                self._send_handshake()
                return
            # ECT handshake exhausted: try again without ECN marks to
            # separate "path eats ECT" from "server is dead".
            self.phase = _PHASE_FALLBACK
            self._send_handshake()
            return
        if self.phase == _PHASE_FALLBACK:
            if self.fallback_attempts < self.max_fallback_attempts:
                self._send_handshake()
                return
            self._finish()
            return
        # Data phase: the drain timer expired; report what was echoed.
        self._finish()

    # ------------------------------------------------------------------
    # Data burst
    # ------------------------------------------------------------------
    def _send_next_ping(self) -> None:
        self._timer = None
        if self.finished:
            return
        scheduler = self.host.network.scheduler
        if self.pings_sent < self.packets:
            self.pings_sent += 1
            self._attempt_ident += 1
            ping = QUICPacket(
                ptype=TYPE_ONE_RTT,
                cid=self.cid,
                packet_number=self.pings_sent,
                frames=[PingFrame()],
            )
            self._socket.send(
                self.server_addr,
                QUIC_PORT,
                ping,
                ecn=ECN.ECT_0,
                ident=self._attempt_ident,
            )
            if self.pings_sent < self.packets:
                self._timer = scheduler.schedule(self.packet_gap, self._send_next_ping)
            else:
                self._timer = scheduler.schedule(self.timeout, self._on_timeout)
            return
        self._timer = scheduler.schedule(self.timeout, self._on_timeout)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _on_datagram(self, datagram: UDPDatagram, packet: IPv4Packet, now: float) -> None:
        if self.finished or packet.src != self.server_addr:
            return
        try:
            reply = datagram.read(QUICPacket)
        except CodecError:
            return
        if reply.cid not in (self.cid, self.cid + 1):
            return
        ack = reply.first_ack_ecn()
        if reply.cid == self.cid and ack is not None:
            # Counters at the server only grow, so a component-wise max
            # absorbs reordered ACKs without double counting.
            self.acked = max(self.acked, ack.acked_count)
            self.ect0 = max(self.ect0, ack.ect0)
            self.ect1 = max(self.ect1, ack.ect1)
            self.ce = max(self.ce, ack.ce)
        if reply.ptype == TYPE_INITIAL and reply.has_crypto(SERVER_HELLO):
            if self.phase == _PHASE_ECT and reply.cid == self.cid:
                self.handshake_ok = True
                self.phase = _PHASE_DATA
                if self._timer is not None:
                    self._timer.cancel()
                    self._timer = None
                self._send_next_ping()
                return
            if self.phase == _PHASE_FALLBACK and reply.cid == self.cid + 1:
                self.fallback_ok = True
                self._finish()
                return
        if (
            self.phase == _PHASE_DATA
            and self.pings_sent == self.packets
            and self.acked >= self.packets_sent
        ):
            # Every packet accounted for: no need to wait out the
            # drain timer.
            self._finish()

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    @property
    def packets_sent(self) -> int:
        """Distinct ECT(0)-marked packet numbers sent on the main
        connection (retransmitted Initials share packet number 0)."""
        if self.phase == _PHASE_FALLBACK and not self.handshake_ok:
            return 1
        return 1 + self.pings_sent

    def _finish(self) -> None:
        if self.finished:
            return
        self.finished = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._socket.close()
        self.callback(
            QUICProbeResult(
                server_addr=self.server_addr,
                handshake_ok=self.handshake_ok,
                fallback_ok=self.fallback_ok,
                handshake_attempts=self.handshake_attempts,
                packets_sent=self.packets_sent,
                packets_acked=self.acked,
                ect0_echoed=self.ect0,
                ect1_echoed=self.ect1,
                ce_echoed=self.ce,
            )
        )


def probe_server(
    host: Host,
    server_addr: int,
    callback: ProbeCallback,
    packets: int = DEFAULT_PACKETS,
    handshake_attempts: int = DEFAULT_HANDSHAKE_ATTEMPTS,
    fallback_attempts: int = DEFAULT_FALLBACK_ATTEMPTS,
    timeout: float = DEFAULT_TIMEOUT,
    packet_gap: float = DEFAULT_PACKET_GAP,
) -> QUICProbe:
    """Start a QUIC ECN probe; the callback fires on completion."""
    probe = QUICProbe(
        host,
        server_addr,
        callback,
        packets=packets,
        handshake_attempts=handshake_attempts,
        fallback_attempts=fallback_attempts,
        timeout=timeout,
        packet_gap=packet_gap,
    )
    probe.start()
    return probe
