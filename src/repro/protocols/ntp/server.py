"""NTP pool servers.

Each simulated pool host runs one of these on UDP port 123.  The pool
is volunteer-operated — the paper leans on this to explain both the
~10 % of servers unreachable in any trace and the drop in reachability
between its April/May and July/August measurement batches — so a
server can be marked offline (it stays bound but stops answering,
exactly like a dead NTP daemon behind a live IP).
"""

from __future__ import annotations

from ...netsim.ecn import ECN
from ...netsim.errors import CodecError
from ...netsim.host import Host
from ...netsim.ipv4 import IPv4Packet
from ...netsim.udp import UDPDatagram
from .packet import MODE_CLIENT, NTPPacket, NTP_PORT, to_ntp_timestamp


#: What every pool server reports: stratum 2, reference id "GPS" + NUL.
STRATUM = 2
REFERENCE_ID = 0x47505300


class NTPServer:
    """A stratum-2-ish pool server bound to UDP 123."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self.online = True
        self.requests_served = 0
        self._socket = host.udp_bind(NTP_PORT, self._on_datagram)

    def set_online(self, online: bool) -> None:
        """Toggle daemon availability (pool churn between batches)."""
        self.online = online

    def _on_datagram(self, datagram: UDPDatagram, packet: IPv4Packet, now: float) -> None:
        if not self.online:
            return
        try:
            request = NTPPacket.decode(datagram.payload)
        except CodecError:
            return
        if request.mode != MODE_CLIENT:
            return
        self.requests_served += 1
        clock = self.host.network.scheduler.clock
        server_time = to_ntp_timestamp(clock.ntp_time())
        response = NTPPacket(
            mode=4,
            stratum=STRATUM,
            poll=request.poll,
            precision=-23,
            reference_id=REFERENCE_ID,
            reference_ts=server_time,
            origin_ts=request.transmit_ts,
            receive_ts=server_time,
            transmit_ts=server_time,
        )
        # Responses are sent not-ECT: NTP does not use ECN in normal
        # operation (the paper probes only the client→server direction
        # for this reason — §3).
        self._socket.send(
            packet.src,
            datagram.src_port,
            response.encode(),
            ecn=ECN.NOT_ECT,
        )

    def __repr__(self) -> str:
        state = "online" if self.online else "offline"
        return f"NTPServer({self.host.hostname!r}, stratum={self.stratum}, {state})"
