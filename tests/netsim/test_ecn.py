"""Tests for ECN codepoints and TOS helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netsim.ecn import (
    ECN,
    dscp_from_tos,
    ecn_from_tos,
    tos_byte,
)
from repro.netsim.ipv4 import IPv4Packet, PROTO_UDP


class TestCodepoints:
    def test_wire_values_match_rfc3168(self):
        assert ECN.NOT_ECT == 0b00
        assert ECN.ECT_1 == 0b01
        assert ECN.ECT_0 == 0b10
        assert ECN.CE == 0b11

    def test_is_ect(self):
        assert ECN.ECT_0.is_ect
        assert ECN.ECT_1.is_ect
        assert not ECN.NOT_ECT.is_ect
        assert not ECN.CE.is_ect

    def test_is_ce(self):
        assert ECN.CE.is_ce
        assert not ECN.ECT_0.is_ce

    def test_descriptions_match_paper_terms(self):
        assert ECN.NOT_ECT.describe() == "not-ECT"
        assert ECN.ECT_0.describe() == "ECT(0)"
        assert ECN.ECT_1.describe() == "ECT(1)"
        assert ECN.CE.describe() == "ECN-CE"


class TestTOSComposition:
    def test_tos_byte_combines_fields(self):
        assert tos_byte(dscp=0b101010, ecn=ECN.ECT_0) == 0b1010_1010

    def test_default_is_zero(self):
        assert tos_byte() == 0

    def test_dscp_out_of_range(self):
        with pytest.raises(ValueError):
            tos_byte(dscp=64)

    def test_ecn_out_of_range(self):
        """Regression: ecn was silently OR-ed in, corrupting DSCP bits.

        ``tos_byte(ecn=4)`` used to produce 0b100 — leaking into the
        DSCP field — instead of rejecting the value like dscp does.
        """
        for bad in (-1, 4, 7, 256):
            with pytest.raises(ValueError):
                tos_byte(ecn=bad)

    def test_ecn_boundary_values_accepted(self):
        assert tos_byte(ecn=0) == 0
        assert tos_byte(ecn=0b11) == 0b11

    def test_replace_ecn_preserves_dscp(self):
        packet = IPv4Packet(src=1, dst=2, protocol=PROTO_UDP)
        packet.tos = tos_byte(dscp=0b001011, ecn=ECN.ECT_0)
        cleared = packet.with_ecn(ECN.NOT_ECT).tos
        assert ecn_from_tos(cleared) is ECN.NOT_ECT
        assert dscp_from_tos(cleared) == 0b001011


@given(st.integers(0, 63), st.sampled_from(list(ECN)))
def test_compose_extract_roundtrip(dscp, ecn):
    tos = tos_byte(dscp, ecn)
    assert ecn_from_tos(tos) is ecn
    assert dscp_from_tos(tos) == dscp


@given(st.integers(0, 255), st.sampled_from(list(ECN)))
def test_replace_ecn_only_touches_low_bits(tos, ecn):
    packet = IPv4Packet(src=1, dst=2, protocol=PROTO_UDP, tos=tos)
    packet.set_ecn(ecn)
    replaced = packet.tos
    assert replaced & 0b11 == int(ecn)
    assert replaced >> 2 == tos >> 2
