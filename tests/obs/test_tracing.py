"""Tests for packet-path tracing: filters, recording, flow grouping."""

import pytest

from repro.netsim.ecn import ECN
from repro.netsim.host import Host
from repro.netsim.ipv4 import IPv4Packet, PROTO_TCP, PROTO_UDP, parse_addr
from repro.netsim.link import link_pair
from repro.netsim.middlebox import ECTBleacher
from repro.netsim.network import FAST, EVENT, Network
from repro.netsim.router import Router
from repro.netsim.topology import Topology
from repro.obs import FilterError, PathTracer, parse_filter
from repro.obs.tracing import EVENT_LIMIT


def packet(src="10.0.0.1", dst="10.0.0.2", protocol=PROTO_UDP, ecn=ECN.NOT_ECT, ident=7):
    return IPv4Packet(
        src=parse_addr(src),
        dst=parse_addr(dst),
        protocol=protocol,
        ident=ident,
        payload=b"",
    ).with_ecn(ecn)


class TestParseFilter:
    def test_protocol_term(self):
        match = parse_filter("udp")
        assert match(packet(protocol=PROTO_UDP))
        assert not match(packet(protocol=PROTO_TCP))

    def test_conjunction(self):
        match = parse_filter("udp and dst 10.0.0.2")
        assert match(packet(dst="10.0.0.2"))
        assert not match(packet(dst="10.0.0.3"))
        assert not match(packet(protocol=PROTO_TCP))

    def test_disjunction_binds_looser_than_and(self):
        match = parse_filter("tcp or udp and ect0")
        # parsed as tcp OR (udp AND ect0)
        assert match(packet(protocol=PROTO_TCP, ecn=ECN.NOT_ECT))
        assert match(packet(protocol=PROTO_UDP, ecn=ECN.ECT_0))
        assert not match(packet(protocol=PROTO_UDP, ecn=ECN.NOT_ECT))

    def test_ecn_terms(self):
        assert parse_filter("ect")(packet(ecn=ECN.ECT_0))
        assert parse_filter("ect")(packet(ecn=ECN.CE))
        assert not parse_filter("ect")(packet(ecn=ECN.NOT_ECT))
        assert parse_filter("not-ect")(packet(ecn=ECN.NOT_ECT))
        assert parse_filter("ce")(packet(ecn=ECN.CE))

    def test_src_term_accepts_int(self):
        match = parse_filter("src 167772161")  # 10.0.0.1
        assert match(packet(src="10.0.0.1"))

    @pytest.mark.parametrize(
        "expression", ["", "and udp", "udp and", "frobnicate", "dst", "dst 10.0.0"]
    )
    def test_rejects_malformed(self, expression):
        with pytest.raises(FilterError):
            parse_filter(expression)


class TestRecording:
    def test_limit_counts_dropped(self):
        tracer = PathTracer()
        for _ in range(EVENT_LIMIT + 3):
            tracer.record(packet(), "r0", "forward", ECN.NOT_ECT, ECN.NOT_ECT)
        assert len(tracer) == EVENT_LIMIT
        assert tracer.dropped == 3
        assert "3 more events" in tracer.dump()

    def test_events_for_filters_by_flow(self):
        tracer = PathTracer()
        tracer.record(packet(ident=1), "r0", "forward", ECN.NOT_ECT, ECN.NOT_ECT)
        tracer.record(packet(ident=2), "r0", "forward", ECN.NOT_ECT, ECN.NOT_ECT)
        assert [event.ident for event in tracer.events] == [1, 2]

    def test_group_flows_preserves_order(self):
        tracer = PathTracer()
        for hop in ("r0", "r1", "r2"):
            tracer.record(packet(ident=9), hop, "forward", ECN.ECT_0, ECN.ECT_0)
        record = packet(ident=9)
        flow = (record.src, record.dst, record.protocol, record.ident)
        assert [
            event.hop
            for event in tracer.events
            if (event.src, event.dst, event.protocol, event.ident) == flow
        ] == ["r0", "r1", "r2"]

    def test_describe_renders_ecn_transition(self):
        tracer = PathTracer()
        tracer.record(packet(), "r1", "middlebox:bleach", ECN.ECT_0, ECN.NOT_ECT)
        line = tracer.events[0].describe()
        assert "ECT(0) -> not-ECT" in line or "->" in line
        assert "@r1" in line


def build_chain(mode=FAST, hops=4, bleach_at=2):
    """A straight 4-router chain with an ECT bleacher at ``bleach_at``."""
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
            forward, backward = link_pair(f"r{index - 1}", f"r{index}", delay=0.01)
            topo.add_link_pair(forward, backward)
    topo.routers[f"r{bleach_at}"].add_middlebox(ECTBleacher())
    client = topo.add_host(Host("client", parse_addr("192.0.2.1"), "r0"))
    server = topo.add_host(Host("server", parse_addr("198.51.100.1"), f"r{hops - 1}"))
    net = Network(topo, seed=3, mode=mode)
    return net, client, server


@pytest.mark.parametrize("mode", [FAST, EVENT])
class TestInNetwork:
    def test_bleacher_hop_observed_at_right_position(self, mode):
        net, client, server = build_chain(mode=mode, bleach_at=2)
        tracer = PathTracer(match="udp and ect0 or udp and not-ect")
        net.set_tracer(tracer)
        server.udp_bind(123, lambda d, p, t: None)
        client.udp_bind(None).send(server.addr, 123, b"x", ecn=ECN.ECT_0)
        net.scheduler.run()

        events = [
            event
            for event in tracer.events
            if (event.src, event.dst) == (client.addr, server.addr)
        ]
        actions = [(event.hop, event.action) for event in events]
        # tx at the client, forwards through r0 and r1 with the mark
        # intact, the bleach exactly at r2, then onwards to delivery.
        assert actions[0] == ("client", "tx")
        assert ("r2", "middlebox:ect-bleacher") in actions
        bleach_index = actions.index(("r2", "middlebox:ect-bleacher"))
        assert actions[:bleach_index] == [
            ("client", "tx"),
            ("r0", "forward"),
            ("r1", "forward"),
        ]
        bleach = events[bleach_index]
        assert ECN(bleach.ecn_before) is ECN.ECT_0
        assert ECN(bleach.ecn_after) is ECN.NOT_ECT
        # Every event after the bleach sees the stripped mark.
        assert all(
            ECN(event.ecn_before) is ECN.NOT_ECT for event in events[bleach_index + 1 :]
        )
        assert actions[-1] == ("server", "rx")

    def test_filter_excludes_other_traffic(self, mode):
        net, client, server = build_chain(mode=mode)
        tracer = PathTracer(match="tcp")
        net.set_tracer(tracer)
        server.udp_bind(123, lambda d, p, t: None)
        client.udp_bind(None).send(server.addr, 123, b"x", ecn=ECN.ECT_0)
        net.scheduler.run()
        assert len(tracer) == 0
