"""Tests for RTP, ECN feedback, NADA, and the media session."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netsim.ecn import ECN
from repro.netsim.errors import CodecError
from repro.netsim.ipv4 import PROTO_UDP
from repro.netsim.middlebox import ECTBleacher, ECTDropper
from repro.netsim.queues import StaticCongestion
from repro.protocols.rtp.nada import NADAController
from repro.protocols.rtp.packet import ECNFeedback, RTPPacket
from repro.protocols.rtp.session import (
    ECN_ACTIVE,
    ECN_DISABLED,
    run_media_session,
)


class TestRTPCodec:
    def test_roundtrip(self):
        packet = RTPPacket(
            payload_type=96,
            sequence=1234,
            timestamp=567890,
            ssrc=0xDEADBEEF,
            payload=b"media" * 10,
            marker=True,
        )
        assert RTPPacket.decode(packet.encode()) == packet

    def test_version_checked(self):
        wire = bytearray(RTPPacket(96, 1, 2, 3).encode())
        wire[0] = 0x40  # version 1
        with pytest.raises(CodecError):
            RTPPacket.decode(bytes(wire))

    def test_truncated_rejected(self):
        with pytest.raises(CodecError):
            RTPPacket.decode(b"\x80\x60\x00")

    def test_payload_type_range(self):
        with pytest.raises(CodecError):
            RTPPacket(payload_type=200, sequence=0, timestamp=0, ssrc=0).encode()


@given(
    pt=st.integers(0, 127),
    seq=st.integers(0, 0xFFFF),
    ts=st.integers(0, 0xFFFFFFFF),
    ssrc=st.integers(0, 0xFFFFFFFF),
    marker=st.booleans(),
    payload=st.binary(max_size=64),
)
def test_rtp_roundtrip_property(pt, seq, ts, ssrc, marker, payload):
    packet = RTPPacket(
        payload_type=pt,
        sequence=seq,
        timestamp=ts,
        ssrc=ssrc,
        marker=marker,
        payload=payload,
    )
    assert RTPPacket.decode(packet.encode()) == packet


class TestFeedbackCodec:
    def test_roundtrip(self):
        feedback = ECNFeedback(
            ssrc=7, ect0=100, ect1=0, ce=5, not_ect=2, lost=3,
            highest_seq=110, report_seq=9,
        )
        assert ECNFeedback.decode(feedback.encode()) == feedback

    def test_magic_checked(self):
        wire = bytearray(ECNFeedback(ssrc=1).encode())
        wire[0] = ord("X")
        with pytest.raises(CodecError):
            ECNFeedback.decode(bytes(wire))

    def test_derived_counts(self):
        feedback = ECNFeedback(ssrc=1, ect0=10, ect1=1, ce=2, not_ect=3)
        assert feedback.received_total == 16
        assert feedback.ect_delivered == 13


class TestNADA:
    def test_clean_path_ramps_up(self):
        controller = NADAController(initial_rate=500_000)
        for _ in range(30):
            controller.update(0.0, 0.0, 0.0)
        assert controller.rate > 500_000

    def test_marks_push_rate_down(self):
        controller = NADAController(initial_rate=2_000_000)
        for _ in range(30):
            controller.update(0.0, 0.0, 0.5)
        assert controller.rate < 2_000_000

    def test_losses_hurt_more_than_marks(self):
        lossy = NADAController(initial_rate=1_000_000)
        marky = NADAController(initial_rate=1_000_000)
        for _ in range(20):
            lossy.update(0.0, 0.1, 0.0)
            marky.update(0.0, 0.0, 0.1)
        assert lossy.rate < marky.rate

    def test_rate_bounded(self):
        controller = NADAController(min_rate=100_000, max_rate=1_000_000)
        for _ in range(100):
            controller.update(0.0, 0.0, 0.0)
        assert controller.rate == 1_000_000
        for _ in range(200):
            controller.update(200.0, 1.0, 0.0)
        assert controller.rate == 100_000

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            NADAController().update(0.0, 1.5, 0.0)


class TestMediaSession:
    def test_clean_path_validates_ecn(self, two_host_net):
        net, client, server = two_host_net
        stats, receiver = run_media_session(client, server, 4000, duration=2.0)
        assert stats.ecn_state == ECN_ACTIVE
        assert stats.ect_sent == stats.sent
        assert receiver.counts[ECN.ECT_0] > 0
        assert receiver.received > 50

    def test_bleached_path_falls_back(self, two_host_net):
        """Marks stripped en route: media flows, sender disables ECN."""
        net, client, server = two_host_net
        net.topology.routers["r1"].add_middlebox(ECTBleacher())
        stats, receiver = run_media_session(client, server, 4001, duration=2.0)
        assert stats.ecn_state == ECN_DISABLED
        assert receiver.counts[ECN.ECT_0] == 0
        assert receiver.counts[ECN.NOT_ECT] > 0

    def test_ect_dropping_path_falls_back(self, two_host_net):
        """ECT-marked UDP blackholed (the paper's firewalled dozen):
        the probing phase gets silence, then not-ECT media flows."""
        net, client, server = two_host_net
        net.topology.routers["r1"].add_middlebox(
            ECTDropper(protocols=frozenset({PROTO_UDP}))
        )
        stats, receiver = run_media_session(client, server, 4002, duration=3.0)
        assert stats.ecn_state == ECN_DISABLED
        assert receiver.received > 0
        assert receiver.counts[ECN.ECT_0] == 0

    def test_ce_marks_drive_rate_down_without_loss(self, net_factory):
        """The ECN value proposition for media: on a marking
        bottleneck, rate adapts with (almost) no packet loss."""
        net, client, server = net_factory(seed=9)
        forward = net.topology.succ["r0"]["r1"]
        forward.aqm = StaticCongestion(0.4, ecn_capable_queue=True)
        controller = NADAController(initial_rate=1_500_000)
        stats, receiver = run_media_session(
            client, server, 4003, duration=4.0, controller=controller
        )
        assert stats.ecn_state == ECN_ACTIVE
        assert stats.observed_ce > 0
        assert stats.final_rate < 1_500_000
        loss_rate = stats.observed_loss / max(stats.sent, 1)
        assert loss_rate < 0.02

    def test_drop_bottleneck_loses_media(self, net_factory):
        """Same bottleneck without ECN support: congestion = loss."""
        net, client, server = net_factory(seed=9)
        forward = net.topology.succ["r0"]["r1"]
        forward.aqm = StaticCongestion(0.4, ecn_capable_queue=False)
        controller = NADAController(initial_rate=1_500_000)
        stats, receiver = run_media_session(
            client, server, 4004, duration=4.0, controller=controller
        )
        loss_rate = stats.observed_loss / max(stats.sent, 1)
        assert loss_rate > 0.05
        assert stats.final_rate < 1_500_000

    def test_feedback_flows(self, two_host_net):
        net, client, server = two_host_net
        stats, receiver = run_media_session(client, server, 4005, duration=2.0)
        assert stats.feedback_received >= 10
        assert stats.rate_history
