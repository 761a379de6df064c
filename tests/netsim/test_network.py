"""Tests for the network: delivery, TTL, ICMP return, mode parity."""

from types import SimpleNamespace

import pytest

from repro.faults.events import BLEACH_ON, LINK_FLAP, FaultEvent, FaultPlan
from repro.faults.injector import FaultInjector
from repro.netsim.ecn import ECN
from repro.netsim.errors import NetSimError
from repro.netsim.host import AccessLink, Host
from repro.netsim.icmp import TYPE_TIME_EXCEEDED
from repro.netsim.ipv4 import IPv4Packet, parse_addr
from repro.netsim.link import link_pair
from repro.netsim.middlebox import ECTBleacher, ECTDropper
from repro.netsim.network import EVENT, FAST, Network
from repro.netsim.queues import BernoulliLoss, TimedOutageLoss
from repro.netsim.router import Router
from repro.netsim.topology import Topology
from repro.obs import MetricsRegistry, PathTracer

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


# ----------------------------------------------------------------------
# Compiled lanes: a clean route compiles on its first packet; whatever
# changes the route afterwards must change the next packets exactly as
# the per-hop loop would.
# ----------------------------------------------------------------------
def build_lane_chain(per_hop):
    """A four-router chain with jitter and loss on every link and on
    the server's access link; ``per_hop`` forbids lanes."""
    topo = Topology()
    for index in range(4):
        topo.add_router(
            Router(f"r{index}", asn=100 + index, interface_addr=parse_addr(f"10.0.{index}.1"))
        )
        if index:
            topo.add_link_pair(
                *link_pair(
                    f"r{index - 1}",
                    f"r{index}",
                    delay=0.01,
                    jitter=0.003,
                    loss=BernoulliLoss(0.1),
                )
            )
    client = topo.add_host(Host("client", parse_addr("192.0.2.1"), "r0"))
    server = topo.add_host(Host("server", parse_addr("198.51.100.1"), "r3"))
    server.access = AccessLink(delay=0.002, loss=BernoulliLoss(0.1))
    net = Network(topo, seed=5)
    if per_hop:
        net._lane = lambda hops, dst_addr: None
    return net, client, server


def run_with_changes(*changes, ttl=64):
    """Send a burst, then apply each change followed by another burst,
    on a laned and a per-hop network; both must see the same thing."""
    runs = []
    for per_hop in (False, True):
        net, client, server = build_lane_chain(per_hop)
        got, quotes, bursts = [], [], []
        server.udp_bind(123, lambda d, p, t: got.append((p.encode(), t)))
        client.on_icmp(lambda m, p, t: quotes.append((m.encode(), p.src, t)))
        sock = client.udp_bind(None)

        def burst(ttl=64):
            for index in range(20):
                sock.send(server.addr, 123, b"probe", ecn=ECN.ECT_0, ttl=ttl, ident=index)
            net.scheduler.run()
            bursts.append(len(got))

        burst()
        if not per_hop:
            assert any(lane is not None for _, lane in net._route_cache.values())
        for change in changes:
            change(net, client, server)
            burst(ttl)
        runs.append(
            (got, quotes, bursts, net.rng.getstate(), vars(net.counters), net.scheduler.now)
        )
    laned, per_hop_run = runs
    assert laned == per_hop_run
    return laned


def delivered_ecn(got, start, stop):
    return {IPv4Packet.decode(wire).ecn for wire, _ in got[start:stop]}


class TestLanes:
    def test_added_middlebox_reaches_the_next_packet(self):
        def bleach(net, client, server):
            net.topology.routers["r2"].add_middlebox(ECTBleacher())

        got, _, bursts, *_ = run_with_changes(bleach)
        assert delivered_ecn(got, 0, bursts[0]) == {ECN.ECT_0}
        assert delivered_ecn(got, bursts[0], bursts[1]) == {ECN.NOT_ECT}

    def test_injected_faults_and_their_revert_reach_the_next_packet(self):
        plan = FaultPlan(
            (
                FaultEvent(BLEACH_ON, epoch=1, target="r1"),
                FaultEvent(LINK_FLAP, epoch=3, target="r1->r2", magnitude=1.0),
            )
        )
        injectors = {}

        def epoch(index):
            def begin(net, client, server):
                if net not in injectors:
                    world = SimpleNamespace(topology=net.topology, network=net, log=None)
                    injectors[net] = FaultInjector(world, plan)
                injectors[net].begin_epoch(index, net.scheduler.now)
                # Installs and reverts alike forget every compiled lane.
                assert not net._route_cache

            return begin

        got, _, bursts, *_ = run_with_changes(epoch(1), epoch(2), epoch(3), epoch(4))
        assert delivered_ecn(got, bursts[0], bursts[1]) == {ECN.NOT_ECT}
        assert delivered_ecn(got, bursts[1], bursts[2]) == {ECN.ECT_0}
        assert bursts[3] == bursts[2]  # the flapped link lost every packet
        assert delivered_ecn(got, bursts[3], bursts[4]) == {ECN.ECT_0}

    def test_installed_tracer_sees_the_next_packet(self):
        tracers = []

        def trace(net, client, server):
            tracers.append(PathTracer())
            net.set_tracer(tracers[-1])

        run_with_changes(trace)
        laned, per_hop = tracers
        assert len(laned) and laned.events == per_hop.events

    def test_installed_metrics_count_the_next_packet(self):
        registries = []

        def observe(net, client, server):
            registries.append(MetricsRegistry())
            net.set_metrics(registries[-1])

        run_with_changes(observe)
        laned, per_hop = registries
        assert laned.snapshot()["counters"]["router.forwarded"] > 0
        assert laned.snapshot() == per_hop.snapshot()

    def test_stateful_access_loss_takes_the_per_hop_loop(self):
        # A lane inlines only none or Bernoulli access loss; any other
        # model keeps its own draws on the per-hop path.
        runs = []
        for per_hop in (False, True):
            net, client, server = build_lane_chain(per_hop)
            loss = TimedOutageLoss(base=0.2, outage_rate=2.0, outage_duration=0.05)
            loss.bind_clock(net.scheduler.clock)
            server.access = AccessLink(delay=0.002, loss=loss)
            got = []
            server.udp_bind(123, lambda d, p, t: got.append((p.encode(), t)))
            sock = client.udp_bind(None)
            for index in range(40):
                sock.send(server.addr, 123, b"probe", ecn=ECN.ECT_0, ident=index)
            net.scheduler.run()
            assert all(lane is None for _, lane in net._route_cache.values())
            runs.append((got, net.rng.getstate()))
        assert runs[0] == runs[1] and runs[0][0]

    def test_ttl_expiring_mid_route_quotes_the_same(self):
        _, quotes, *_ = run_with_changes(lambda net, client, server: None, ttl=2)
        assert quotes and all(src == parse_addr("10.0.1.1") for _, src, _ in quotes)

    def test_wiretap_sees_every_lane_delivery(self):
        seen = []

        def wiretap(net, client, server):
            seen.append([])
            tap(server, lambda d, p, t, log=seen[-1]: log.append(p.encode()))

        got, _, bursts, *_ = run_with_changes(wiretap)
        assert seen[0] == [wire for wire, _ in got[bursts[0]:]]
        assert len(seen[0]) == bursts[1] - bursts[0] > 0
