"""Socket-style endpoint API for simulated hosts.

The measurement application is written against these the way the real
one was written against Berkeley sockets: a UDP socket with a receive
callback, per-packet control of the TOS byte (the ``IP_TOS`` sockopt
the authors used to set ECT(0)), and a raw escape hatch for the
TTL-limited traceroute probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .ecn import ECN, tos_byte
from .errors import CodecError, SocketError
from .ipv4 import DEFAULT_TTL, PROTO_UDP, IPv4Packet, TransportPacket
from .udp import UDPDatagram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .host import Host

#: Receive callback signature: (datagram, ip_packet, sim_time).
UDPHandler = Callable[[UDPDatagram, IPv4Packet, float], None]

EPHEMERAL_BASE = 49152
EPHEMERAL_LIMIT = 65535


@dataclass
class UDPSocket:
    """A bound UDP endpoint on a simulated host."""

    host: "Host"
    port: int
    handler: UDPHandler | None = None
    closed: bool = False

    def send(
        self,
        dst_addr: int,
        dst_port: int,
        payload,
        ecn: ECN = ECN.NOT_ECT,
        dscp: int = 0,
        ttl: int = DEFAULT_TTL,
        ident: int = 0,
    ) -> None:
        """Send a datagram.

        ``payload`` is bytes or an application message (a
        ``QUICPacket`` or ``NTPPacket``), which is validated now, rides
        to the receiving socket as the object and is encoded only if
        something on the way reads its bytes (see
        :class:`~repro.netsim.udp.UDPDatagram`).  The caller must not
        mutate a message after sending it.  ``ecn`` and ``dscp`` set the
        TOS byte exactly as the real client's ``setsockopt(IP_TOS)``
        did; ``ttl`` and ``ident`` support the traceroute probes.  The
        network is handed a :class:`~repro.netsim.ipv4.TransportPacket`
        and owns it from then on.
        """
        if self.closed:
            raise SocketError(f"socket on port {self.port} is closed")
        if not 0 <= dst_port <= 0xFFFF:
            raise CodecError(f"UDP dst port out of range: {dst_port}")
        if not 0 <= self.port <= 0xFFFF:
            raise CodecError(f"UDP src port out of range: {self.port}")
        # Inline tos_byte for the in-range case; the helper keeps the
        # range checks (and error messages) for bad DSCP/ECN.
        if 0 <= dscp <= 0x3F and 0 <= ecn <= 0b11:
            tos = (dscp << 2) | ecn
        else:
            tos = tos_byte(dscp, ecn)
        datagram = UDPDatagram(self.port, dst_port, payload)
        self.host.send_ip(
            TransportPacket(self.host.addr, dst_addr, PROTO_UDP, datagram, ttl, tos, ident)
        )

    def deliver(self, datagram: UDPDatagram, packet: IPv4Packet, now: float) -> None:
        """Called by the host demux when a datagram arrives."""
        if self.closed or self.handler is None:
            return
        self.handler(datagram, packet, now)

    def close(self) -> None:
        """Release the port binding.  Idempotent."""
        if not self.closed:
            self.closed = True
            self.host.release_udp_port(self.port)
