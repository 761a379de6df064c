"""Tests for ECN-hostile middlebox behaviours."""

import random

from repro.netsim.ecn import ECN
from repro.netsim.ipv4 import IPv4Packet, PROTO_TCP, PROTO_UDP, Prefix, parse_addr
from repro.netsim.middlebox import (
    ECTBleacher,
    ECTDropper,
    NotECTDropper,
    TOSBleacher,
)


def packet(ecn=ECN.ECT_0, protocol=PROTO_UDP, src="192.0.2.1", dst="198.51.100.1", dscp=0):
    return IPv4Packet(
        src=parse_addr(src),
        dst=parse_addr(dst),
        protocol=protocol,
        tos=(dscp << 2) | int(ecn),
    )


RNG = random.Random(0)


class TestECTBleacher:
    def test_bleaches_ect0(self):
        verdict = ECTBleacher().process(packet(ECN.ECT_0), RNG)
        assert not verdict.dropped
        assert verdict.packet.ecn is ECN.NOT_ECT

    def test_bleaches_ect1_and_ce(self):
        for ecn in (ECN.ECT_1, ECN.CE):
            verdict = ECTBleacher().process(packet(ecn), RNG)
            assert verdict.packet.ecn is ECN.NOT_ECT

    def test_not_ect_unchanged(self):
        original = packet(ECN.NOT_ECT)
        verdict = ECTBleacher().process(original, RNG)
        assert verdict.packet is original

    def test_preserves_dscp(self):
        verdict = ECTBleacher().process(packet(ECN.ECT_0, dscp=0b101010), RNG)
        assert verdict.packet.tos >> 2 == 0b101010

    def test_probabilistic_bleacher_sometimes_passes(self):
        """The paper's 125 'sometimes strip' hops."""
        box = ECTBleacher(probability=0.5)
        rng = random.Random(42)
        results = [box.process(packet(ECN.ECT_0), rng).packet.ecn for _ in range(400)]
        assert results.count(ECN.NOT_ECT) > 100
        assert results.count(ECN.ECT_0) > 100

    def test_bleach_ce_default_erases_congestion_signal(self):
        """Pin the golden default: CE is bleached like the ECT marks."""
        box = ECTBleacher()
        assert box.bleach_ce is True
        verdict = box.process(packet(ECN.CE), RNG)
        assert not verdict.dropped
        assert verdict.packet.ecn is ECN.NOT_ECT

    def test_bleach_ce_off_forwards_ce_untouched(self):
        """bleach_ce=False models gear that only normalises capability
        bits: ECT(0)/ECT(1) still bleach, CE passes through intact."""
        box = ECTBleacher(bleach_ce=False)
        ce = packet(ECN.CE)
        verdict = box.process(ce, RNG)
        assert not verdict.dropped
        assert verdict.packet is ce
        assert verdict.packet.ecn is ECN.CE
        for ecn in (ECN.ECT_0, ECN.ECT_1):
            assert box.process(packet(ecn), RNG).packet.ecn is ECN.NOT_ECT

    def test_bleach_ce_off_preserves_dscp_on_ce(self):
        box = ECTBleacher(bleach_ce=False)
        verdict = box.process(packet(ECN.CE, dscp=0b101010), RNG)
        assert verdict.packet.tos == (0b101010 << 2) | int(ECN.CE)


class TestECTDropper:
    def test_drops_ect(self):
        assert ECTDropper().process(packet(ECN.ECT_0), RNG).dropped

    def test_passes_not_ect(self):
        assert not ECTDropper().process(packet(ECN.NOT_ECT), RNG).dropped

    def test_protocol_scoping(self):
        """§4.4's finding: middleboxes that discard ECT-marked UDP but
        not ECT-marked TCP."""
        box = ECTDropper(protocols=frozenset({PROTO_UDP}))
        assert box.process(packet(ECN.ECT_0, PROTO_UDP), RNG).dropped
        assert not box.process(packet(ECN.ECT_0, PROTO_TCP), RNG).dropped

    def test_dst_scoping(self):
        target = parse_addr("198.51.100.1")
        box = ECTDropper(dst_addrs=frozenset({target}))
        assert box.process(packet(ECN.ECT_0, dst="198.51.100.1"), RNG).dropped
        assert not box.process(packet(ECN.ECT_0, dst="198.51.100.2"), RNG).dropped


class TestNotECTDropper:
    def test_drops_not_ect_passes_ect(self):
        box = NotECTDropper()
        assert box.process(packet(ECN.NOT_ECT), RNG).dropped
        assert not box.process(packet(ECN.ECT_0), RNG).dropped

    def test_src_prefix_scoping(self):
        """The Phoenix-library pair: misbehaves only from EC2 space."""
        ec2 = Prefix(parse_addr("54.0.0.0"), 8)
        box = NotECTDropper(src_prefixes=(ec2,))
        assert box.process(packet(ECN.NOT_ECT, src="54.1.2.3"), RNG).dropped
        assert not box.process(packet(ECN.NOT_ECT, src="192.0.2.1"), RNG).dropped


class TestTOSBleacher:
    def test_zeroes_whole_byte(self):
        verdict = TOSBleacher().process(packet(ECN.ECT_0, dscp=0b111111), RNG)
        assert verdict.packet.tos == 0

    def test_zero_tos_passes_unmodified(self):
        original = packet(ECN.NOT_ECT)
        assert TOSBleacher().process(original, RNG).packet is original


class CountingRandom(random.Random):
    """random.Random that counts calls to random() (draw accounting)."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return super().random()


class TestScopingAndDraws:
    """Scope/probability interaction and RNG-draw accounting.

    Sharded chaos runs are bit-identical to sequential ones only if
    every middlebox consumes the per-epoch RNG stream identically on
    both paths — so the draw discipline is part of the contract:
    out-of-scope packets must consume **no** draw, in-scope packets of
    a probabilistic box exactly **one** draw whether or not the
    behaviour fires, and deterministic (probability=1) boxes none.
    """

    def test_src_prefix_and_probability_interact(self):
        """probability gates only packets already matched by scope."""
        ec2 = Prefix(parse_addr("54.0.0.0"), 8)
        box = ECTBleacher(src_prefixes=(ec2,), probability=0.5)
        rng = random.Random(7)
        out_of_scope = [
            box.process(packet(ECN.ECT_0, src="192.0.2.1"), rng).packet.ecn
            for _ in range(200)
        ]
        assert out_of_scope.count(ECN.ECT_0) == 200
        in_scope = [
            box.process(packet(ECN.ECT_0, src="54.1.2.3"), rng).packet.ecn
            for _ in range(400)
        ]
        assert in_scope.count(ECN.NOT_ECT) > 100
        assert in_scope.count(ECN.ECT_0) > 100

    def test_out_of_scope_consumes_no_draw(self):
        ec2 = Prefix(parse_addr("54.0.0.0"), 8)
        rng = CountingRandom(0)
        for box in (
            ECTBleacher(src_prefixes=(ec2,), probability=0.5),
            ECTDropper(protocols=frozenset({PROTO_UDP}), probability=0.5),
            ECTDropper(dst_addrs=frozenset({parse_addr("198.51.100.1")}),
                       probability=0.5),
        ):
            box.process(packet(ECN.ECT_0, PROTO_TCP, src="192.0.2.1",
                               dst="203.0.113.9"), rng)
        assert rng.draws == 0

    def test_in_scope_consumes_exactly_one_draw_fired_or_not(self):
        """An in-scope match of a probabilistic box costs one draw even
        when the dice say 'forward' — otherwise two worlds that differ
        only in one flaky hop's outcome would diverge on every later
        draw of the shared epoch stream."""
        box = ECTBleacher(probability=0.5)
        rng = CountingRandom(3)
        fired = not_fired = 0
        for i in range(64):
            before = rng.draws
            verdict = box.process(packet(ECN.ECT_0), rng)
            assert rng.draws == before + 1
            if verdict.packet.ecn is ECN.NOT_ECT:
                fired += 1
            else:
                not_fired += 1
        assert fired and not_fired

    def test_deterministic_box_consumes_no_draw(self):
        rng = CountingRandom(0)
        ECTBleacher().process(packet(ECN.ECT_0), rng)
        ECTDropper().process(packet(ECN.ECT_0), rng)
        assert rng.draws == 0


class TestFactories:
    """Destination-scoped firewalls, built the way the scenario builds
    its per-server ECT filters."""

    def test_udp_ect_firewall_scope(self):
        target = parse_addr("198.51.100.1")
        box = ECTDropper(protocols=frozenset({PROTO_UDP}), dst_addrs=frozenset({target}))
        assert box.process(packet(ECN.ECT_0, PROTO_UDP), RNG).dropped
        assert not box.process(packet(ECN.ECT_0, PROTO_TCP), RNG).dropped
        assert not box.process(
            packet(ECN.ECT_0, PROTO_UDP, dst="198.51.100.9"), RNG
        ).dropped

    def test_any_ect_firewall_covers_tcp(self):
        target = parse_addr("198.51.100.1")
        box = ECTDropper(
            protocols=frozenset({PROTO_UDP, PROTO_TCP}), dst_addrs=frozenset({target})
        )
        assert box.process(packet(ECN.ECT_0, PROTO_TCP), RNG).dropped
