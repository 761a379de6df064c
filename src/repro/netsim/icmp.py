"""ICMP message codec (RFC 792), with configurable quotations.

The paper's Section 4.2 technique hinges on ICMP *quotations*: a router
that discards a TTL-expired probe returns a Time Exceeded message
quoting the discarded datagram's IP header plus (at least) the first
8 bytes of its payload.  Comparing the quoted TOS byte against the TOS
byte originally sent reveals whether any hop so far rewrote the ECN
field — the technique of Malone & Luckie that the paper reuses.

Real routers differ in how much they quote (RFC 792 minimum of 8
payload bytes vs RFC 1812 "as much as possible"), so the quotation
length is a parameter of the generating router.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .checksum import internet_checksum
from .errors import CodecError
from .ipv4 import IPv4Packet

TYPE_ECHO_REPLY = 0
TYPE_DEST_UNREACHABLE = 3
TYPE_ECHO_REQUEST = 8
TYPE_TIME_EXCEEDED = 11

CODE_TTL_EXCEEDED = 0
CODE_PORT_UNREACHABLE = 3
CODE_HOST_UNREACHABLE = 1

#: RFC 792 routers quote the IP header + 8 bytes of payload.
CLASSIC_QUOTE_PAYLOAD = 8
#: RFC 1812 routers quote as much of the datagram as fits (we cap at
#: 128 bytes of the original datagram, a common implementation choice).
FULL_QUOTE_LIMIT = 128

_HEADER = struct.Struct("!BBHI")
HEADER_LEN = _HEADER.size  # 8


@dataclass
class ICMPMessage:
    """A parsed ICMP message.

    ``rest`` is the 4-byte field after the checksum (unused/zero for
    errors, identifier+sequence for echo).  ``body`` carries the quoted
    datagram for error messages, or echo payload for echo messages.
    """

    icmp_type: int
    code: int = 0
    rest: int = 0
    body: bytes = b""

    def encode(self) -> bytes:
        """Serialise to wire format with a correct ICMP checksum."""
        header = _HEADER.pack(self.icmp_type, self.code, 0, self.rest)
        csum = internet_checksum(header + self.body)
        return (
            header[:2] + struct.pack("!H", csum) + header[4:] + self.body
        )

    @classmethod
    def decode(cls, data: bytes, verify: bool = True) -> "ICMPMessage":
        """Parse wire bytes; verifies the checksum unless disabled."""
        if len(data) < HEADER_LEN:
            raise CodecError(f"ICMP header truncated: {len(data)} bytes")
        if verify and internet_checksum(data) != 0:
            raise CodecError("ICMP checksum mismatch")
        icmp_type, code, _csum, rest = _HEADER.unpack_from(data)
        return cls(icmp_type=icmp_type, code=code, rest=rest, body=data[HEADER_LEN:])

    @property
    def is_error(self) -> bool:
        """True for error messages that quote an offending datagram."""
        return self.icmp_type in (TYPE_DEST_UNREACHABLE, TYPE_TIME_EXCEEDED)

    def quoted_packet(self) -> IPv4Packet:
        """Decode the quoted (possibly truncated) original datagram.

        Only valid for error messages.  Checksum verification is
        disabled because quotations legitimately truncate the payload,
        and some routers corrupt quoted bytes (Malone & Luckie).
        """
        if not self.is_error:
            raise CodecError(f"ICMP type {self.icmp_type} carries no quotation")
        return IPv4Packet.decode(self.body, verify=False)

    def __repr__(self) -> str:
        return (
            f"ICMPMessage(type={self.icmp_type}, code={self.code}, "
            f"body={len(self.body)}B)"
        )


def quote_datagram(original: IPv4Packet, payload_bytes: int = CLASSIC_QUOTE_PAYLOAD) -> bytes:
    """Build the quotation body from the datagram being reported.

    ``payload_bytes`` is how much of the transport payload the router
    includes beyond the IP header; pass :data:`FULL_QUOTE_LIMIT`-style
    values for RFC 1812 behaviour.  The quoted header reflects the
    datagram *as the router saw it* — TTL already decremented along the
    path, and any upstream ECN rewrites visible — which is precisely
    what makes the traceroute analysis work.
    """
    wire = original.encode()
    # Read the header length from the encoded datagram itself rather
    # than assuming the 20-byte minimum: a quote must include the whole
    # IP header (options and all) plus ``payload_bytes`` of transport.
    ihl = (wire[0] & 0x0F) * 4
    limit = ihl + max(0, payload_bytes)
    return wire[:limit]


def time_exceeded(original: IPv4Packet, quote_payload: int = CLASSIC_QUOTE_PAYLOAD) -> ICMPMessage:
    """Construct a Time Exceeded (TTL) error quoting ``original``."""
    return ICMPMessage(
        icmp_type=TYPE_TIME_EXCEEDED,
        code=CODE_TTL_EXCEEDED,
        body=quote_datagram(original, quote_payload),
    )


def port_unreachable(original: IPv4Packet, quote_payload: int = CLASSIC_QUOTE_PAYLOAD) -> ICMPMessage:
    """Construct a Destination Unreachable (port) error quoting ``original``."""
    return ICMPMessage(
        icmp_type=TYPE_DEST_UNREACHABLE,
        code=CODE_PORT_UNREACHABLE,
        body=quote_datagram(original, quote_payload),
    )
