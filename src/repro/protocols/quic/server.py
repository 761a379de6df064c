"""QUIC-like servers.

Each simulated pool host runs one of these on UDP 443 next to its NTP
daemon.  The server's only job is the receiver half of RFC 9000 §13.4
ECN validation: count, per connection and per distinct packet number,
how many packets arrived marked ECT(0), ECT(1), and CE, and echo those
totals in an ACK_ECN frame on every acknowledgement.  Like the NTP
server it can be marked offline (bound but silent) for pool churn.

Connection state is *evolved* state, not configuration — it is cleared
at every epoch boundary by
:meth:`~repro.scenario.internet.SyntheticInternet.begin_epoch` via
:meth:`QUICServer.reset_connections` so hermetic epochs stay hermetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...netsim.ecn import ECN
from ...netsim.errors import CodecError
from ...netsim.host import Host
from ...netsim.ipv4 import IPv4Packet
from ...netsim.udp import UDPDatagram
from .packet import (
    CLIENT_HELLO,
    QUIC_PORT,
    SERVER_HELLO,
    AckEcnFrame,
    CryptoFrame,
    QUICPacket,
    TYPE_INITIAL,
    TYPE_ONE_RTT,
)


@dataclass
class ConnectionState:
    """Per-connection receive state: the §13.4 counters."""

    largest_pn: int = 0
    ect0: int = 0
    ect1: int = 0
    ce: int = 0
    reply_pn: int = 0
    seen_pns: set[int] = field(default_factory=set)

    def record(self, packet_number: int, ecn: ECN) -> bool:
        """Count a packet once per distinct packet number.

        Returns False for a duplicate (retransmitted) packet number,
        which must not inflate the ECN counts.
        """
        if packet_number in self.seen_pns:
            return False
        self.seen_pns.add(packet_number)
        self.largest_pn = max(self.largest_pn, packet_number)
        if ecn is ECN.ECT_0:
            self.ect0 += 1
        elif ecn is ECN.ECT_1:
            self.ect1 += 1
        elif ecn is ECN.CE:
            self.ce += 1
        return True

    def ack_frame(self) -> AckEcnFrame:
        """Build the ACK_ECN frame echoing the current totals."""
        return AckEcnFrame(
            largest_acked=self.largest_pn,
            acked_count=len(self.seen_pns),
            ect0=self.ect0,
            ect1=self.ect1,
            ce=self.ce,
        )


class QUICServer:
    """A minimal QUIC endpoint bound to UDP 443, echoing ECN counts."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self.online = True
        self.packets_served = 0
        self.connections: dict[tuple[int, int], ConnectionState] = {}
        self._socket = host.udp_bind(QUIC_PORT, self._on_datagram)

    def set_online(self, online: bool) -> None:
        """Toggle daemon availability (pool churn between batches)."""
        self.online = online

    def reset_connections(self) -> None:
        """Drop all connection state (epoch-boundary hermeticity)."""
        self.connections.clear()

    def _on_datagram(self, datagram: UDPDatagram, packet: IPv4Packet, now: float) -> None:
        if not self.online:
            return
        try:
            request = datagram.read(QUICPacket)
        except CodecError:
            return
        key = (packet.src, request.cid)
        if request.ptype == TYPE_INITIAL:
            if not request.has_crypto(CLIENT_HELLO):
                return
            # A fresh Initial (re)creates the connection; a duplicate
            # Initial for a live connection just re-elicits the reply.
            conn = self.connections.get(key)
            if conn is None:
                conn = ConnectionState()
                self.connections[key] = conn
            conn.record(request.packet_number, packet.ecn)
            frames = [CryptoFrame(token=SERVER_HELLO), conn.ack_frame()]
            reply = QUICPacket(
                ptype=TYPE_INITIAL,
                cid=request.cid,
                packet_number=conn.reply_pn,
                frames=frames,
            )
        elif request.ptype == TYPE_ONE_RTT:
            conn = self.connections.get(key)
            if conn is None:
                # 1-RTT before a handshake: no connection, no reply
                # (real QUIC would send a stateless reset; silence is
                # equivalent for a probe that only counts ACKs).
                return
            conn.record(request.packet_number, packet.ecn)
            reply = QUICPacket(
                ptype=TYPE_ONE_RTT,
                cid=request.cid,
                packet_number=conn.reply_pn,
                frames=[conn.ack_frame()],
            )
        else:  # pragma: no cover - decode() rejects unknown types
            return
        conn.reply_pn += 1
        self.packets_served += 1
        # ACKs travel not-ECT: the probe validates the client→server
        # direction only, matching the paper's §3 methodology.
        self._socket.send(
            packet.src,
            datagram.src_port,
            reply,
            ecn=ECN.NOT_ECT,
        )

    def __repr__(self) -> str:
        state = "online" if self.online else "offline"
        return (
            f"QUICServer({self.host.hostname!r}, "
            f"{len(self.connections)} conns, {state})"
        )
