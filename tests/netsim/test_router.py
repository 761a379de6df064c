"""Tests for per-hop router processing.

They drive :meth:`Router._transit`, the hop the network's send loop
runs, and unpack its ``(verdict, packet, icmp, reason)`` tuple.
"""

import random

from repro.netsim.ecn import ECN
from repro.netsim.ipv4 import IPv4Packet, PROTO_UDP, parse_addr
from repro.netsim.middlebox import ECTBleacher, ECTDropper
from repro.netsim.router import (
    TRANSIT_DROP,
    TRANSIT_FORWARD,
    TRANSIT_TTL_EXPIRED,
    Router,
)

RNG = random.Random(0)


def router(**kwargs):
    defaults = dict(router_id="r1", asn=64500, interface_addr=parse_addr("10.0.0.1"))
    defaults.update(kwargs)
    return Router(**defaults)


def transit(r, pkt, rng=RNG):
    """``(verdict, packet, icmp, reason)`` of ``pkt`` crossing ``r``."""
    return r._transit(pkt, rng, None, None)


def packet(ttl=64, ecn=ECN.ECT_0):
    return IPv4Packet(
        src=parse_addr("192.0.2.1"),
        dst=parse_addr("198.51.100.1"),
        protocol=PROTO_UDP,
        payload=b"x" * 16,
        ttl=ttl,
        tos=int(ecn),
        ident=7,
    )


class TestForwarding:
    def test_decrements_ttl(self):
        verdict, forwarded, _, _ = transit(router(), packet(ttl=10))
        assert verdict == TRANSIT_FORWARD
        assert forwarded.ttl == 9

    def test_decrements_in_place_on_simulator_owned_packet(self):
        # Transit packets are simulator-owned (the network clones the
        # caller's packet once at the send boundary), so the router
        # decrements TTL in place instead of copying per hop.
        original = packet(ttl=10)
        _, forwarded, _, _ = transit(router(), original)
        assert forwarded is original
        assert original.ttl == 9


class TestTTLExpiry:
    def test_ttl_one_expires(self):
        verdict, _, icmp, _ = transit(router(), packet(ttl=1))
        assert verdict == TRANSIT_TTL_EXPIRED
        assert icmp is not None

    def test_ttl_zero_expires(self):
        verdict, _, _, _ = transit(router(), packet(ttl=0))
        assert verdict == TRANSIT_TTL_EXPIRED

    def test_icmp_quotes_packet_with_ttl_zero(self):
        _, _, icmp, _ = transit(router(), packet(ttl=1))
        quoted = icmp.quoted_packet()
        assert quoted.ttl == 0
        assert quoted.ident == 7

    def test_silent_router_sends_no_icmp(self):
        verdict, _, icmp, _ = transit(router(sends_icmp_errors=False), packet(ttl=1))
        assert verdict == TRANSIT_TTL_EXPIRED
        assert icmp is None

    def test_rate_limited_router_sometimes_silent(self):
        rng = random.Random(5)
        r = router(icmp_response_rate=0.5)
        responses = [
            transit(r, packet(ttl=1), rng)[2] is not None for _ in range(200)
        ]
        assert 40 < sum(responses) < 160

    def test_quote_payload_length_configurable(self):
        _, _, classic, _ = transit(router(icmp_quote_payload=8), packet(ttl=1))
        _, _, full, _ = transit(router(icmp_quote_payload=128), packet(ttl=1))
        assert len(full.body) > len(classic.body)
        assert len(classic.body) == 28


class TestMiddleboxChain:
    def test_dropper_blocks_transit(self):
        r = router(middleboxes=[ECTDropper()])
        verdict, _, _, reason = transit(r, packet(ecn=ECN.ECT_0))
        assert verdict == TRANSIT_DROP
        assert "ect-dropper" in reason

    def test_bleacher_rewrites_then_forwards(self):
        r = router(middleboxes=[ECTBleacher()])
        verdict, forwarded, _, _ = transit(r, packet(ecn=ECN.ECT_0))
        assert verdict == TRANSIT_FORWARD
        assert forwarded.ecn is ECN.NOT_ECT

    def test_quote_reflects_bleached_mark(self):
        """A bleaching router's own TTL-exceeded quote shows not-ECT:
        this is exactly how the paper's traceroutes localise strips."""
        r = router(middleboxes=[ECTBleacher()])
        verdict, _, icmp, _ = transit(r, packet(ttl=1, ecn=ECN.ECT_0))
        assert verdict == TRANSIT_TTL_EXPIRED
        assert icmp.quoted_packet().ecn is ECN.NOT_ECT

    def test_chain_applies_in_order(self):
        r = router(middleboxes=[ECTBleacher(), ECTDropper()])
        # Bleacher clears the mark, so the dropper then passes it.
        verdict, _, _, _ = transit(r, packet(ecn=ECN.ECT_0))
        assert verdict == TRANSIT_FORWARD

    def test_add_middlebox(self):
        r = router()
        r.add_middlebox(ECTDropper())
        assert transit(r, packet())[0] == TRANSIT_DROP
