"""Tests for buffered links: queueing, tail drop, RED/ECN marking."""

import random

import pytest

from repro.netsim.buffered import BufferedLink, buffered_pair
from repro.netsim.ecn import ECN
from repro.netsim.errors import SimulationError
from repro.netsim.host import Host
from repro.netsim.ipv4 import IPv4Packet, PROTO_UDP, parse_addr
from repro.netsim.network import EVENT, Network
from repro.netsim.queues import REDQueue
from repro.netsim.router import Router
from repro.netsim.topology import Topology
from repro.netsim.clock import SimClock


def packet(size=1000, ecn=ECN.NOT_ECT):
    return IPv4Packet(
        src=1, dst=2, protocol=PROTO_UDP, payload=bytes(size - 20), tos=int(ecn)
    )


def bound_link(**kwargs):
    link = BufferedLink("a", "b", delay=0.001, **kwargs)
    clock = SimClock()
    link.bind_clock(clock)
    return link, clock


RNG = random.Random(0)


def transit(link, pkt):
    """``(delivered, delay, reason)`` of ``pkt`` offered to ``link``."""
    return link._transit(pkt, RNG, None, None)


class TestServiceAndQueueing:
    def test_requires_clock(self):
        link = BufferedLink("a", "b")
        with pytest.raises(SimulationError):
            transit(link, packet())

    def test_service_time(self):
        link, _ = bound_link(bandwidth=1_000_000)
        assert link.service_time(packet(1000)) == pytest.approx(0.008)

    def test_single_packet_delay_is_service_plus_propagation(self):
        link, _ = bound_link(bandwidth=1_000_000)
        delivered, delay, _ = transit(link, packet(1000))
        assert delivered
        assert delay == pytest.approx(0.008 + 0.001)

    def test_back_to_back_packets_queue(self):
        link, _ = bound_link(bandwidth=1_000_000)
        _, first, _ = transit(link, packet(1000))
        _, second, _ = transit(link, packet(1000))
        assert second == pytest.approx(first + 0.008)

    def test_queue_drains_as_clock_advances(self):
        link, clock = bound_link(bandwidth=1_000_000)
        transit(link, packet(1000))
        clock.advance_to(1.0)  # far past the busy period
        _, delay, _ = transit(link, packet(1000))
        assert delay == pytest.approx(0.009)

    def test_tail_drop_when_full(self):
        link, _ = bound_link(bandwidth=1_000_000, queue_limit=5)
        outcomes = [transit(link, packet(1000))[0] for _ in range(10)]
        delivered = [o for o in outcomes if o]
        dropped = [o for o in outcomes if not o]
        assert len(delivered) <= 6  # one in service + limit queued
        assert dropped
        assert link.tail_drops == len(dropped)


class TestREDIntegration:
    def _red_link(self):
        red = REDQueue(min_threshold=2, max_threshold=6, max_probability=1.0, weight=1.0)
        return bound_link(bandwidth=1_000_000, queue_limit=50, red=red)

    def test_red_marks_ect_under_backlog(self):
        link, _ = self._red_link()
        marked = 0
        for _ in range(30):
            offered = packet(1000, ECN.ECT_0)
            if transit(link, offered)[0] and offered.ecn is ECN.CE:
                marked += 1
        assert marked > 0
        assert link.ce_marks == marked
        assert link.red_drops == 0  # ECT traffic is marked, never RED-dropped

    def test_red_drops_not_ect_under_backlog(self):
        link, _ = self._red_link()
        outcomes = [transit(link, packet(1000, ECN.NOT_ECT))[0] for _ in range(30)]
        assert not all(outcomes)
        assert link.red_drops > 0

    def test_ecn_traffic_outlives_not_ect_through_red(self):
        """The RFC 3168 value proposition on a real queue."""
        link_a, _ = self._red_link()
        link_b, _ = self._red_link()
        ect_delivered = sum(
            transit(link_a, packet(1000, ECN.ECT_0))[0]
            for _ in range(40)
        )
        plain_delivered = sum(
            transit(link_b, packet(1000, ECN.NOT_ECT))[0]
            for _ in range(40)
        )
        assert ect_delivered > plain_delivered


class TestBufferedPair:
    def test_asymmetric_bandwidth(self):
        forward, backward = buffered_pair("a", "b", bandwidth=8_000_000,
                                          reverse_bandwidth=1_000_000)
        clock = SimClock()
        forward.bind_clock(clock)
        backward.bind_clock(clock)
        assert forward.service_time(packet(1000)) < backward.service_time(packet(1000))

    def test_red_instances_independent(self):
        red = REDQueue(weight=1.0)
        forward, backward = buffered_pair("a", "b", bandwidth=1e6, red=red)
        assert forward.red is not backward.red


class TestInNetwork:
    def test_event_mode_end_to_end_queueing(self):
        """A UDP burst through an event-mode network with a buffered
        bottleneck arrives paced at the bottleneck rate."""
        topo = Topology()
        topo.add_router(Router("r0", asn=1, interface_addr=parse_addr("10.0.0.1")))
        topo.add_router(Router("r1", asn=2, interface_addr=parse_addr("10.0.1.1")))
        forward, backward = buffered_pair(
            "r0", "r1", bandwidth=800_000, delay=0.001, queue_limit=64
        )
        topo.add_link_pair(forward, backward)
        client = topo.add_host(Host("c", parse_addr("192.0.2.1"), "r0"))
        server = topo.add_host(Host("s", parse_addr("198.51.100.1"), "r1"))
        net = Network(topo, seed=1, mode=EVENT)
        forward.bind_clock(net.scheduler.clock)
        backward.bind_clock(net.scheduler.clock)

        arrivals = []
        server.udp_bind(9, lambda d, p, t: arrivals.append(t))
        sock = client.udp_bind(None)
        for _ in range(10):
            sock.send(server.addr, 9, bytes(972))  # 1000B IP packets
        net.scheduler.run()

        assert len(arrivals) == 10
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        service = 1000 * 8 / 800_000
        for gap in gaps:
            assert gap == pytest.approx(service, rel=0.01)
