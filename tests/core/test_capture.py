"""Wire-level capture: what crosses a host, read at its packet tap.

``wiretap.tap`` sees every frame a host sends or receives, so these
tests decode the transport headers themselves; ``PathTracer`` is the
program's own per-hop record of the same packets.
"""

from repro.netsim.ecn import ECN
from repro.netsim.icmp import ICMPMessage
from repro.netsim.ipv4 import PROTO_ICMP, PROTO_TCP, PROTO_UDP
from repro.netsim.udp import UDPDatagram
from repro.obs import tracing
from repro.obs.tracing import PathTracer
from repro.protocols.http.client import fetch
from repro.protocols.http.server import PoolWebServer
from repro.protocols.ntp.client import query_server
from repro.protocols.ntp.server import NTPServer
from repro.tcp.segment import Flags, TCPSegment

import wiretap


def capture(host):
    """Record ``(direction, packet)`` for every frame crossing ``host``."""
    frames = []
    remove = wiretap.tap(host, lambda direction, packet, now: frames.append((direction, packet)))
    return frames, remove


class TestCaptureBasics:
    def test_captures_both_directions(self, two_host_net):
        net, client, server = two_host_net
        NTPServer(server)
        frames, _ = capture(client)
        query_server(client, server.addr, ECN.ECT_0, lambda r: None)
        net.scheduler.run()
        assert [direction for direction, _ in frames] == ["out", "in"]

    def test_decodes_udp(self, two_host_net):
        net, client, server = two_host_net
        NTPServer(server)
        frames, _ = capture(client)
        query_server(client, server.addr, ECN.ECT_0, lambda r: None)
        net.scheduler.run()
        (_, request), (_, response) = frames
        assert request.protocol == PROTO_UDP
        assert UDPDatagram.decode(request.payload).dst_port == 123
        assert request.ecn is ECN.ECT_0
        assert response.ecn is ECN.NOT_ECT

    def test_tcp_filter_and_decode(self, two_host_net):
        net, client, server = two_host_net
        PoolWebServer(server)
        frames, _ = capture(client)
        fetch(client, server.addr, use_ecn=True, callback=lambda r: None)
        net.scheduler.run()
        segments = [
            TCPSegment.decode(packet.payload)
            for _, packet in frames
            if packet.protocol == PROTO_TCP
        ]
        assert segments, "expected TCP traffic"
        assert all(80 in (s.src_port, s.dst_port) for s in segments)
        # First outbound segment is the ECN-setup SYN.
        syn = segments[0]
        assert syn.flags & Flags.SYN and syn.flags & Flags.ECE and syn.flags & Flags.CWR

    def test_max_packets_cap(self, two_host_net, monkeypatch):
        net, client, server = two_host_net
        NTPServer(server)
        monkeypatch.setattr(tracing, "EVENT_LIMIT", 1)
        tracer = PathTracer(match="udp")
        net.set_tracer(tracer)
        query_server(client, server.addr, ECN.NOT_ECT, lambda r: None)
        net.scheduler.run()
        assert len(tracer) == 1
        assert tracer.dropped >= 1

    def test_stop_is_idempotent_and_detaches(self, two_host_net):
        net, client, server = two_host_net
        NTPServer(server)
        frames, remove = capture(client)
        remove()
        remove()
        query_server(client, server.addr, ECN.NOT_ECT, lambda r: None)
        net.scheduler.run()
        assert frames == []


class TestSummaries:
    def test_dump_mentions_protocol_and_marks(self, two_host_net):
        net, client, server = two_host_net
        NTPServer(server)
        tracer = PathTracer(match="udp")
        net.set_tracer(tracer)
        query_server(client, server.addr, ECN.ECT_0, lambda r: None)
        net.scheduler.run()
        assert {event.protocol for event in tracer.events} == {PROTO_UDP}
        text = tracer.dump()
        assert "ECT(0)" in text
        assert "not-ECT" in text

    def test_icmp_summary(self, two_host_net):
        net, client, server = two_host_net
        frames, _ = capture(client)
        client.udp_bind(None).send(server.addr, 33434, b"probe", ttl=1)
        net.scheduler.run()
        icmp = [
            ICMPMessage.decode(packet.payload, verify=False)
            for _, packet in frames
            if packet.protocol == PROTO_ICMP
        ]
        assert len(icmp) == 1
        assert icmp[0].icmp_type == 11
