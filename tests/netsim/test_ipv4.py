"""Tests for IPv4 addressing and the header codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netsim.checksum import verify_checksum
from repro.netsim.ecn import ECN
from repro.netsim.errors import AddressError, CodecError
from repro.netsim.ipv4 import (
    HEADER_LEN,
    IPv4Packet,
    PROTO_UDP,
    Prefix,
    format_addr,
    parse_addr,
)


class TestAddresses:
    def test_parse_format_roundtrip(self):
        assert format_addr(parse_addr("192.0.2.33")) == "192.0.2.33"

    def test_parse_extremes(self):
        assert parse_addr("0.0.0.0") == 0
        assert parse_addr("255.255.255.255") == 0xFFFFFFFF

    @pytest.mark.parametrize(
        "bad", ["", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1..2.3"]
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(AddressError):
            parse_addr(bad)

    def test_format_rejects_out_of_range(self):
        with pytest.raises(AddressError):
            format_addr(-1)
        with pytest.raises(AddressError):
            format_addr(1 << 32)


@given(st.integers(0, 0xFFFFFFFF))
def test_addr_roundtrip_property(addr):
    assert parse_addr(format_addr(addr)) == addr


class TestPrefix:
    def test_contains(self):
        prefix = Prefix(parse_addr("10.1.0.0"), 16)
        assert prefix.contains(parse_addr("10.1.200.7"))
        assert not prefix.contains(parse_addr("10.2.0.1"))

    def test_host(self):
        prefix = Prefix(parse_addr("10.1.0.0"), 24)
        assert format_addr(prefix.host(5)) == "10.1.0.5"

    def test_host_out_of_range(self):
        with pytest.raises(AddressError):
            Prefix(parse_addr("10.1.0.0"), 24).host(256)

    def test_host_bits_rejected(self):
        with pytest.raises(AddressError):
            Prefix(parse_addr("10.1.0.1"), 16)

    def test_size(self):
        assert Prefix(parse_addr("10.0.0.0"), 8).size == 1 << 24
        assert Prefix(parse_addr("10.0.0.1"), 32).size == 1

    def test_zero_length_prefix_contains_everything(self):
        assert Prefix(0, 0).contains(parse_addr("203.0.113.9"))

    def test_str(self):
        assert str(Prefix(parse_addr("62.3.0.0"), 16)) == "62.3.0.0/16"


class TestHeaderCodec:
    def _packet(self, **overrides):
        fields = dict(
            src=parse_addr("192.0.2.1"),
            dst=parse_addr("198.51.100.2"),
            protocol=PROTO_UDP,
            payload=b"hello world",
            ttl=37,
            tos=0b0000_0010,  # ECT(0)
            ident=0x1234,
        )
        fields.update(overrides)
        return IPv4Packet(**fields)

    def test_encode_decode_roundtrip(self):
        packet = self._packet()
        decoded = IPv4Packet.decode(packet.encode())
        assert decoded == packet

    def test_header_checksum_valid_on_wire(self):
        wire = self._packet().encode()
        assert verify_checksum(wire[:HEADER_LEN])

    def test_checksum_corruption_detected(self):
        wire = bytearray(self._packet().encode())
        wire[8] ^= 0x01  # flip a TTL bit
        with pytest.raises(CodecError):
            IPv4Packet.decode(bytes(wire))

    def test_decode_without_verification_accepts_corruption(self):
        wire = bytearray(self._packet().encode())
        wire[8] ^= 0x01
        decoded = IPv4Packet.decode(bytes(wire), verify=False)
        assert decoded.ttl == 37 ^ 0x01

    def test_truncated_header_rejected(self):
        with pytest.raises(CodecError):
            IPv4Packet.decode(b"\x45\x00\x00")

    def test_non_v4_rejected(self):
        wire = bytearray(self._packet().encode())
        wire[0] = (6 << 4) | 5
        with pytest.raises(CodecError):
            IPv4Packet.decode(bytes(wire))

    def test_total_length(self):
        assert self._packet().total_length == HEADER_LEN + 11

    def test_ecn_property(self):
        assert self._packet().ecn is ECN.ECT_0

    def test_with_ecn_returns_new_packet(self):
        packet = self._packet(tos=0b1010_1111)  # DSCP 43, ECN-CE
        cleared = packet.with_ecn(ECN.NOT_ECT)
        assert cleared.ecn is ECN.NOT_ECT
        assert cleared.tos >> 2 == packet.tos >> 2
        assert packet.ecn is ECN.CE  # original untouched

    def test_ttl_out_of_range_rejected(self):
        with pytest.raises(CodecError):
            self._packet(ttl=256).encode()

    def test_ident_out_of_range_rejected(self):
        with pytest.raises(CodecError):
            self._packet(ident=0x10000).encode()

    def test_dont_fragment_flag_roundtrip(self):
        for flag in (True, False):
            packet = self._packet(dont_fragment=flag)
            assert IPv4Packet.decode(packet.encode()).dont_fragment is flag

    def test_truncated_payload_decodes_header(self):
        """ICMP quotations truncate payloads; the header must decode."""
        packet = self._packet(payload=b"x" * 100)
        wire = packet.encode()[: HEADER_LEN + 8]
        quoted = IPv4Packet.decode(wire, verify=False)
        assert quoted.src == packet.src
        assert quoted.ecn is ECN.ECT_0
        assert quoted.payload == b"x" * 8


@given(
    src=st.integers(0, 0xFFFFFFFF),
    dst=st.integers(0, 0xFFFFFFFF),
    ttl=st.integers(0, 255),
    tos=st.integers(0, 255),
    ident=st.integers(0, 0xFFFF),
    payload=st.binary(max_size=64),
)
def test_codec_roundtrip_property(src, dst, ttl, tos, ident, payload):
    packet = IPv4Packet(
        src=src, dst=dst, protocol=17, payload=payload, ttl=ttl, tos=tos, ident=ident
    )
    assert IPv4Packet.decode(packet.encode()) == packet
