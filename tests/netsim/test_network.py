"""Tests for the network: delivery, TTL, ICMP return, mode parity."""

import pytest

from repro.netsim.ecn import ECN
from repro.netsim.errors import NetSimError
from repro.netsim.host import AccessLink, Host
from repro.netsim.icmp import TYPE_TIME_EXCEEDED
from repro.netsim.ipv4 import parse_addr
from repro.netsim.link import link_pair
from repro.netsim.middlebox import ECTBleacher, ECTDropper
from repro.netsim.network import EVENT, FAST, Network
from repro.netsim.queues import BernoulliLoss
from repro.netsim.router import Router
from repro.netsim.topology import Topology

from wiretap import tap


def build_chain(mode, hops=4, seed=3, bleach_at=None, drop_at=None, loss_at=None):
    """A straight chain of ``hops`` routers with optional impairments."""
    topo = Topology()
    for index in range(hops):
        topo.add_router(
            Router(
                f"r{index}",
                asn=100 + index,
                interface_addr=parse_addr(f"10.0.{index}.1"),
            )
        )
        if index:
            loss = BernoulliLoss(1.0) if loss_at == index else None
            forward, backward = link_pair(
                f"r{index - 1}", f"r{index}", delay=0.01, loss=loss,
            )
            backward.loss = BernoulliLoss(0.0)
            topo.add_link_pair(forward, backward)
    if bleach_at is not None:
        topo.routers[f"r{bleach_at}"].add_middlebox(ECTBleacher())
    if drop_at is not None:
        topo.routers[f"r{drop_at}"].add_middlebox(ECTDropper())
    client = topo.add_host(Host("client", parse_addr("192.0.2.1"), "r0"))
    server = topo.add_host(Host("server", parse_addr("198.51.100.1"), f"r{hops - 1}"))
    net = Network(topo, seed=seed, mode=mode)
    return net, client, server


@pytest.fixture(params=[FAST, EVENT])
def mode(request):
    return request.param


class TestDelivery:
    def test_packet_crosses_chain(self, mode):
        net, client, server = build_chain(mode)
        got = []
        server.udp_bind(123, lambda d, p, t: got.append((d.payload, t)))
        client.udp_bind(None).send(server.addr, 123, b"hello")
        net.scheduler.run()
        assert got[0][0] == b"hello"
        # Three links of 10 ms each.
        assert got[0][1] == pytest.approx(0.03)

    def test_counters(self, mode):
        net, client, server = build_chain(mode)
        server.udp_bind(123, lambda d, p, t: None)
        client.udp_bind(None).send(server.addr, 123, b"x")
        net.scheduler.run()
        assert net.counters.sent == 1
        assert net.counters.delivered == 1

    def test_unroutable_destination_counted(self, mode):
        net, client, _ = build_chain(mode)
        client.udp_bind(None).send(parse_addr("8.8.8.8"), 53, b"x")
        net.scheduler.run()
        assert net.counters.dropped_no_route == 1

    def test_ttl_decrements_per_router(self, mode):
        net, client, server = build_chain(mode)
        ttls = []
        tap(server, lambda d, p, t: ttls.append(p.ttl))
        client.udp_bind(None).send(server.addr, 123, b"x", ttl=64)
        net.scheduler.run()
        assert ttls == [60]  # four routers on the path


class TestMiddleboxesInPath:
    def test_bleacher_clears_mark_before_delivery(self, mode):
        net, client, server = build_chain(mode, bleach_at=2)
        marks = []
        tap(server, lambda d, p, t: marks.append(p.ecn))
        client.udp_bind(None).send(server.addr, 123, b"x", ecn=ECN.ECT_0)
        net.scheduler.run()
        assert marks == [ECN.NOT_ECT]

    def test_dropper_blocks_marked_packets_only(self, mode):
        net, client, server = build_chain(mode, drop_at=2)
        got = []
        server.udp_bind(123, lambda d, p, t: got.append(p.ecn))
        client.udp_bind(None).send(server.addr, 123, b"a", ecn=ECN.ECT_0)
        client.udp_bind(None).send(server.addr, 123, b"b", ecn=ECN.NOT_ECT)
        net.scheduler.run()
        assert got == [ECN.NOT_ECT]
        assert net.counters.dropped_middlebox == 1

    def test_link_loss_counted(self, mode):
        net, client, server = build_chain(mode, loss_at=2)
        got = []
        server.udp_bind(123, lambda d, p, t: got.append(d))
        client.udp_bind(None).send(server.addr, 123, b"x")
        net.scheduler.run()
        assert got == []
        assert net.counters.dropped_loss == 1


class TestICMPReturn:
    def test_ttl_expiry_generates_time_exceeded(self, mode):
        net, client, server = build_chain(mode)
        icmp = []
        client.on_icmp(lambda m, p, t: icmp.append((m, p)))
        client.udp_bind(None).send(server.addr, 33434, b"probe", ttl=2, ident=9)
        net.scheduler.run()
        message, packet = icmp[0]
        assert message.icmp_type == TYPE_TIME_EXCEEDED
        # Expired at the second router.
        assert packet.src == parse_addr("10.0.1.1")
        assert message.quoted_packet().ident == 9

    def test_icmp_round_trip_time_includes_both_directions(self, mode):
        net, client, server = build_chain(mode)
        times = []
        client.on_icmp(lambda m, p, t: times.append(t))
        client.udp_bind(None).send(server.addr, 33434, b"probe", ttl=3)
        net.scheduler.run()
        # Two links out, two links back.
        assert times[0] == pytest.approx(0.04)

    def test_expiry_at_final_router_one_hop_before_host(self, mode):
        """TTL equal to the router count expires at the access router;
        one more reaches the (silent) host — why the paper's traces
        'generally stop one hop before the destination'."""
        net, client, server = build_chain(mode, hops=4)
        icmp = []
        client.on_icmp(lambda m, p, t: icmp.append(p.src))
        client.udp_bind(None).send(server.addr, 33434, b"probe", ttl=4)
        net.scheduler.run()
        assert icmp == [parse_addr("10.0.3.1")]
        icmp.clear()
        client.udp_bind(None).send(server.addr, 33434, b"probe", ttl=5)
        net.scheduler.run()
        assert icmp == []  # delivered to host, which ignores it

    def test_silent_router_produces_no_icmp(self, mode):
        net, client, server = build_chain(mode)
        net.topology.routers["r1"].sends_icmp_errors = False
        icmp = []
        client.on_icmp(lambda m, p, t: icmp.append(m))
        client.udp_bind(None).send(server.addr, 33434, b"probe", ttl=2)
        net.scheduler.run()
        assert icmp == []
        assert net.counters.ttl_expired == 1


class TestModeParity:
    """Fast and event modes must agree on everything observable."""

    def test_same_delivery_time_and_content(self):
        results = {}
        for mode in (FAST, EVENT):
            net, client, server = build_chain(mode, seed=5)
            got = []
            server.udp_bind(123, lambda d, p, t: got.append((d.payload, round(t, 9), p.ttl)))
            client.udp_bind(None).send(server.addr, 123, b"parity", ecn=ECN.ECT_0)
            net.scheduler.run()
            results[mode] = got
        assert results[FAST] == results[EVENT]

    def test_same_icmp_observations(self):
        results = {}
        for mode in (FAST, EVENT):
            net, client, server = build_chain(mode, seed=5, bleach_at=1)
            seen = []
            client.on_icmp(
                lambda m, p, t: seen.append(
                    (p.src, m.quoted_packet().ecn, round(t, 9))
                )
            )
            for ttl in (1, 2, 3):
                client.udp_bind(None).send(
                    server.addr, 33434, b"probe", ttl=ttl, ecn=ECN.ECT_0
                )
                net.scheduler.run()
            results[mode] = seen
        assert results[FAST] == results[EVENT]
        # And the bleached mark is visible from hop 2 onward.
        assert [ecn for _, ecn, _ in results[FAST]] == [
            ECN.ECT_0,
            ECN.NOT_ECT,
            ECN.NOT_ECT,
        ]


class TestModeValidation:
    def test_unknown_mode_rejected(self):
        topo = Topology()
        topo.add_router(Router("r0", asn=1, interface_addr=1))
        with pytest.raises(NetSimError):
            Network(topo, mode="warp")
