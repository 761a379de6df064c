"""Tests for ICMP messages and quotations (the §4.2 mechanism)."""

import pytest

from repro.netsim.ecn import ECN
from repro.netsim.errors import CodecError
from repro.netsim.icmp import (
    CLASSIC_QUOTE_PAYLOAD,
    CODE_PORT_UNREACHABLE,
    CODE_TTL_EXCEEDED,
    ICMPMessage,
    TYPE_DEST_UNREACHABLE,
    TYPE_ECHO_REQUEST,
    TYPE_TIME_EXCEEDED,
    port_unreachable,
    quote_datagram,
    time_exceeded,
)
from repro.netsim.ipv4 import IPv4Packet, PROTO_UDP, parse_addr
from repro.netsim.udp import UDPDatagram


def probe_packet(payload_len=32, ecn=ECN.ECT_0):
    datagram = UDPDatagram(49152, 33434, b"p" * payload_len)
    src, dst = parse_addr("192.0.2.1"), parse_addr("198.51.100.2")
    return IPv4Packet(
        src=src,
        dst=dst,
        protocol=PROTO_UDP,
        payload=datagram.encode(src, dst),
        ttl=1,
        tos=int(ecn),
        ident=0x4242,
    )


class TestCodec:
    def test_roundtrip(self):
        message = ICMPMessage(icmp_type=TYPE_TIME_EXCEEDED, code=0, body=b"quoted")
        decoded = ICMPMessage.decode(message.encode())
        assert decoded == message

    def test_checksum_verified(self):
        wire = bytearray(ICMPMessage(TYPE_TIME_EXCEEDED, body=b"abc").encode())
        wire[-1] ^= 0x01
        with pytest.raises(CodecError):
            ICMPMessage.decode(bytes(wire))

    def test_truncated_rejected(self):
        with pytest.raises(CodecError):
            ICMPMessage.decode(b"\x0b\x00")


class TestQuotations:
    def test_classic_quote_is_header_plus_8(self):
        original = probe_packet()
        body = quote_datagram(original, CLASSIC_QUOTE_PAYLOAD)
        assert len(body) == 20 + 8

    def test_full_quote_includes_more(self):
        original = probe_packet(payload_len=64)
        body = quote_datagram(original, 128)
        assert len(body) == min(len(original.encode()), 20 + 128)

    def test_quoted_packet_preserves_ecn_field(self):
        """The core §4.2 observable: the quote carries the TOS byte as
        the router saw it."""
        original = probe_packet(ecn=ECN.ECT_0)
        message = time_exceeded(original)
        quoted = message.quoted_packet()
        assert quoted.ecn is ECN.ECT_0
        assert quoted.ident == 0x4242

    def test_quote_of_bleached_packet_shows_not_ect(self):
        bleached = probe_packet().with_ecn(ECN.NOT_ECT)
        quoted = time_exceeded(bleached).quoted_packet()
        assert quoted.ecn is ECN.NOT_ECT

    def test_quoted_udp_header_recoverable(self):
        """The classic 8 payload bytes are exactly the UDP header."""
        message = time_exceeded(probe_packet())
        quoted = message.quoted_packet()
        udp = UDPDatagram.decode(quoted.payload)
        assert udp.src_port == 49152
        assert udp.dst_port == 33434

    def test_quotation_survives_wire_roundtrip(self):
        message = time_exceeded(probe_packet())
        decoded = ICMPMessage.decode(message.encode())
        assert decoded.quoted_packet().ecn is ECN.ECT_0

    def test_echo_has_no_quotation(self):
        message = ICMPMessage(icmp_type=TYPE_ECHO_REQUEST, body=b"ping")
        assert not message.is_error
        with pytest.raises(CodecError):
            message.quoted_packet()


class TestConstructors:
    def test_time_exceeded(self):
        message = time_exceeded(probe_packet())
        assert message.icmp_type == TYPE_TIME_EXCEEDED
        assert message.code == CODE_TTL_EXCEEDED
        assert message.is_error

    def test_port_unreachable(self):
        message = port_unreachable(probe_packet())
        assert message.icmp_type == TYPE_DEST_UNREACHABLE
        assert message.code == CODE_PORT_UNREACHABLE


class _OptionsPacket(IPv4Packet):
    """An IPv4 packet whose wire form carries 4 bytes of options."""

    def encode(self) -> bytes:
        wire = bytearray(super().encode())
        wire[0] = (4 << 4) | 6  # IHL = 6 words = 24 bytes
        return bytes(wire[:20]) + b"\x01\x01\x01\x01" + bytes(wire[20:])


class TestQuoteHeaderLength:
    def test_quote_reads_ihl_from_wire(self):
        """Regression: the quote limit hard-coded a 20-byte header, so
        a datagram with IP options lost its last option bytes' worth of
        transport payload from the quotation."""
        base = probe_packet(payload_len=32)
        packet = _OptionsPacket(
            src=base.src,
            dst=base.dst,
            protocol=base.protocol,
            payload=base.payload,
            ttl=base.ttl,
            tos=base.tos,
            ident=base.ident,
        )
        quoted = quote_datagram(packet, CLASSIC_QUOTE_PAYLOAD)
        # 24-byte header (options included) + 8 transport bytes.
        assert len(quoted) == 24 + CLASSIC_QUOTE_PAYLOAD
        assert quoted[:24] == packet.encode()[:24]
        assert quoted[24:] == packet.encode()[24 : 24 + CLASSIC_QUOTE_PAYLOAD]

    def test_optionless_quote_unchanged(self):
        packet = probe_packet()
        quoted = quote_datagram(packet, CLASSIC_QUOTE_PAYLOAD)
        assert len(quoted) == 20 + CLASSIC_QUOTE_PAYLOAD
        assert quoted == packet.encode()[: 20 + CLASSIC_QUOTE_PAYLOAD]
