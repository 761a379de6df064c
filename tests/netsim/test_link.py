"""Tests for link transit behaviour.

They drive :meth:`Link._transit`, the hop the network's send loop runs,
and unpack its ``(delivered, delay, reason)`` tuple; a CE mark rewrites
the simulator-owned packet in place.
"""

import random

from repro.netsim.clock import SimClock
from repro.netsim.ecn import ECN
from repro.netsim.ipv4 import IPv4Packet, PROTO_UDP
from repro.netsim.link import Link, link_pair
from repro.netsim.queues import BernoulliLoss, StaticCongestion, TimedOutageLoss


def packet(ecn=ECN.ECT_0):
    return IPv4Packet(src=1, dst=2, protocol=PROTO_UDP, tos=int(ecn))


def transit(link, pkt, rng):
    return link._transit(pkt, rng, None, None)


class TestTransit:
    def test_clean_link_delivers_with_delay(self):
        link = Link("a", "b", delay=0.02)
        delivered, delay, _ = transit(link, packet(), random.Random(0))
        assert delivered
        assert delay == 0.02

    def test_jitter_adds_bounded_delay(self):
        link = Link("a", "b", delay=0.01, jitter=0.005)
        rng = random.Random(1)
        delays = [transit(link, packet(), rng)[1] for _ in range(200)]
        assert all(0.01 <= d <= 0.015 for d in delays)
        assert len(set(delays)) > 1

    def test_lossy_link_drops(self):
        link = Link("a", "b", loss=BernoulliLoss(1.0))
        delivered, _, reason = transit(link, packet(), random.Random(0))
        assert not delivered
        assert reason == "loss"

    def test_congested_ecn_link_marks_ect(self):
        link = Link("a", "b", aqm=StaticCongestion(1.0, ecn_capable_queue=True))
        marked = packet(ECN.ECT_0)
        delivered, _, _ = transit(link, marked, random.Random(0))
        assert delivered
        assert marked.ecn is ECN.CE

    def test_congested_ecn_link_drops_not_ect(self):
        link = Link("a", "b", aqm=StaticCongestion(1.0, ecn_capable_queue=True))
        delivered, _, reason = transit(link, packet(ECN.NOT_ECT), random.Random(0))
        assert not delivered
        assert reason == "aqm-drop"

    def test_mark_preserves_dscp(self):
        link = Link("a", "b", aqm=StaticCongestion(1.0))
        marked_packet = IPv4Packet(
            src=1, dst=2, protocol=PROTO_UDP, tos=(0b101010 << 2) | int(ECN.ECT_0)
        )
        transit(link, marked_packet, random.Random(0))
        assert marked_packet.tos >> 2 == 0b101010
        assert marked_packet.ecn is ECN.CE


class TestLinkPair:
    def test_directions(self):
        forward, backward = link_pair("a", "b", delay=0.01)
        assert (forward.src, forward.dst) == ("a", "b")
        assert (backward.src, backward.dst) == ("b", "a")

    def test_stateful_loss_not_shared_between_directions(self):
        forward, backward = link_pair("a", "b", loss=TimedOutageLoss())
        assert forward.loss is not backward.loss
        forward.loss.bind_clock(SimClock())
        assert backward.loss._clock is None

    def test_asymmetric_impairment(self):
        forward, backward = link_pair("a", "b", loss=BernoulliLoss(1.0))
        backward.loss = BernoulliLoss(0.0)
        rng = random.Random(0)
        assert not transit(forward, packet(), rng)[0]
        assert transit(backward, packet(), rng)[0]

