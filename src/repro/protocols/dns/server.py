"""An authoritative DNS server with round-robin zones.

Mirrors the pool.ntp.org behaviour the discovery script depends on:
each query for a pool zone returns a small rotating window of that
zone's members, "a different answer every few minutes", so repeated
queries over simulated weeks enumerate the pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...netsim.errors import CodecError
from ...netsim.host import Host
from ...netsim.ipv4 import IPv4Packet
from ...netsim.udp import UDPDatagram
from .message import (
    DNS_PORT,
    DNSMessage,
    QTYPE_A,
    RCODE_NXDOMAIN,
    ResourceRecord,
)

#: pool.ntp.org answers four A records per query.
DEFAULT_WINDOW = 4
DEFAULT_TTL = 150


@dataclass
class RoundRobinZone:
    """A zone whose answers rotate through its address list."""

    name: str
    addresses: list[int]
    window: int = DEFAULT_WINDOW
    ttl: int = DEFAULT_TTL
    _cursor: int = field(default=0, repr=False)

    def next_answers(self) -> list[int]:
        """The next window of addresses (wrapping, rotating)."""
        if not self.addresses:
            return []
        count = min(self.window, len(self.addresses))
        selected = [
            self.addresses[(self._cursor + index) % len(self.addresses)]
            for index in range(count)
        ]
        self._cursor = (self._cursor + count) % len(self.addresses)
        return selected


class DNSServer:
    """An authoritative resolver bound to UDP 53 on its host."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self.zones: dict[str, RoundRobinZone] = {}
        self.queries_served = 0
        self._socket = host.udp_bind(DNS_PORT, self._on_datagram)

    def add_zone(self, zone: RoundRobinZone) -> RoundRobinZone:
        """Register a zone (name is normalised to lowercase)."""
        self.zones[zone.name.lower().rstrip(".")] = zone
        return zone

    def _on_datagram(self, datagram: UDPDatagram, packet: IPv4Packet, now: float) -> None:
        try:
            query = DNSMessage.decode(datagram.payload)
        except CodecError:
            return
        if query.is_response or not query.questions:
            return
        self.queries_served += 1
        question = query.questions[0]
        zone = self.zones.get(question.qname.lower().rstrip("."))
        if zone is None or question.qtype != QTYPE_A:
            response = DNSMessage.response_to(query, [], rcode=RCODE_NXDOMAIN)
        else:
            answers = [
                ResourceRecord(
                    name=question.qname,
                    rtype=QTYPE_A,
                    rclass=1,
                    ttl=zone.ttl,
                    address=addr,
                )
                for addr in zone.next_answers()
            ]
            response = DNSMessage.response_to(query, answers)
        self._socket.send(packet.src, datagram.src_port, response.encode())
