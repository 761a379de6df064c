"""Tests for the NTP packet codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netsim.errors import CodecError
from repro.protocols.ntp.packet import (
    MODE_CLIENT,
    MODE_SERVER,
    NTPPacket,
    PACKET_LEN,
    to_ntp_timestamp,
)


def from_ntp_timestamp(value):
    """32.32 fixed point back to float seconds."""
    return value / 2**32


class TestTimestamps:
    def test_roundtrip(self):
        seconds = 3_637_000_000.125
        assert from_ntp_timestamp(to_ntp_timestamp(seconds)) == pytest.approx(
            seconds, abs=1e-9
        )

    def test_zero(self):
        assert to_ntp_timestamp(0.0) == 0
        assert from_ntp_timestamp(0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            to_ntp_timestamp(-1.0)

    def test_fractional_resolution(self):
        # 32-bit fraction: ~233 picoseconds; 1 microsecond round-trips.
        ts = to_ntp_timestamp(1.000001)
        assert from_ntp_timestamp(ts) == pytest.approx(1.000001, abs=1e-8)


class TestCodec:
    def test_wire_length(self):
        assert len(NTPPacket().encode()) == PACKET_LEN == 48

    def test_roundtrip(self):
        packet = NTPPacket(
            mode=MODE_SERVER,
            stratum=2,
            poll=6,
            precision=-23,
            root_delay=0x1234,
            root_dispersion=0x5678,
            reference_id=0x47505300,
            reference_ts=to_ntp_timestamp(3_637_000_000.0),
            origin_ts=to_ntp_timestamp(3_637_000_001.0),
            receive_ts=to_ntp_timestamp(3_637_000_002.0),
            transmit_ts=to_ntp_timestamp(3_637_000_003.0),
        )
        assert NTPPacket.decode(packet.encode()) == packet

    def test_leap_version_mode_packing(self):
        packet = NTPPacket(mode=3, version=4, leap=3)
        wire = packet.encode()
        assert wire[0] == (3 << 6) | (4 << 3) | 3

    def test_truncated_rejected(self):
        with pytest.raises(CodecError):
            NTPPacket.decode(b"\x00" * 47)

    def test_trailing_bytes_ignored(self):
        packet = NTPPacket(mode=MODE_CLIENT)
        decoded = NTPPacket.decode(packet.encode() + b"extension")
        assert decoded.mode == MODE_CLIENT

    def test_mode_out_of_range(self):
        with pytest.raises(CodecError):
            NTPPacket(mode=8).encode()


class TestRequestResponse:
    def test_client_request_shape(self):
        request = NTPPacket.client_request(3_637_000_000.0)
        assert request.mode == MODE_CLIENT
        assert request.transmit_ts == to_ntp_timestamp(3_637_000_000.0)
        assert request.stratum == 0

    def test_valid_response_matching(self):
        request = NTPPacket.client_request(3_637_000_000.0)
        response = NTPPacket(
            mode=MODE_SERVER,
            origin_ts=request.transmit_ts,
            transmit_ts=to_ntp_timestamp(3_637_000_000.5),
        )
        assert response.is_valid_response_to(request)

    def test_response_with_wrong_origin_rejected(self):
        request = NTPPacket.client_request(3_637_000_000.0)
        response = NTPPacket(
            mode=MODE_SERVER,
            origin_ts=request.transmit_ts + 1,
            transmit_ts=to_ntp_timestamp(1.0),
        )
        assert not response.is_valid_response_to(request)

    def test_response_must_be_mode_server(self):
        request = NTPPacket.client_request(3_637_000_000.0)
        response = NTPPacket(
            mode=MODE_CLIENT,
            origin_ts=request.transmit_ts,
            transmit_ts=to_ntp_timestamp(1.0),
        )
        assert not response.is_valid_response_to(request)


@given(
    mode=st.integers(0, 7),
    stratum=st.integers(0, 255),
    poll=st.integers(-128, 127),
    precision=st.integers(-128, 127),
    ts=st.integers(0, 0xFFFFFFFFFFFFFFFF),
)
def test_codec_roundtrip_property(mode, stratum, poll, precision, ts):
    packet = NTPPacket(
        mode=mode,
        stratum=stratum,
        poll=poll,
        precision=precision,
        transmit_ts=ts,
        origin_ts=ts ^ 0xDEADBEEF,
    )
    assert NTPPacket.decode(packet.encode()) == packet
