"""Tests for hosts, sockets, taps, and access-link filters."""

import pytest

from repro.netsim.ecn import ECN
from repro.netsim.errors import SocketError
from repro.netsim.host import AccessLink, Host
from repro.netsim.ipv4 import parse_addr
from repro.netsim.middlebox import ECTDropper
from repro.netsim.queues import BernoulliLoss
from repro.netsim.sockets import EPHEMERAL_BASE

from wiretap import tap


class TestUDPSockets:
    def test_bind_and_echo(self, two_host_net):
        net, client, server = two_host_net
        received = []

        def echo(datagram, packet, now):
            received.append(datagram.payload)
            sock_server.send(packet.src, datagram.src_port, b"reply")

        sock_server = server.udp_bind(4000, echo)
        replies = []
        sock_client = client.udp_bind(None, lambda d, p, t: replies.append(d.payload))
        sock_client.send(server.addr, 4000, b"ping")
        net.scheduler.run()
        assert received == [b"ping"]
        assert replies == [b"reply"]

    def test_double_bind_rejected(self, two_host_net):
        _, client, _ = two_host_net
        client.udp_bind(5000)
        with pytest.raises(SocketError):
            client.udp_bind(5000)

    def test_ephemeral_allocation(self, two_host_net):
        _, client, _ = two_host_net
        first = client.udp_bind(None)
        second = client.udp_bind(None)
        assert first.port != second.port
        assert first.port >= EPHEMERAL_BASE

    def test_close_releases_port(self, two_host_net):
        _, client, _ = two_host_net
        sock = client.udp_bind(6000)
        sock.close()
        client.udp_bind(6000)  # no error

    def test_send_on_closed_socket_rejected(self, two_host_net):
        _, client, server = two_host_net
        sock = client.udp_bind(None)
        sock.close()
        with pytest.raises(SocketError):
            sock.send(server.addr, 123, b"x")

    def test_datagram_to_unbound_port_silently_dropped(self, two_host_net):
        net, client, server = two_host_net
        replies = []
        client.on_icmp(lambda m, p, t: replies.append(m))
        client.udp_bind(None).send(server.addr, 9999, b"x")
        net.scheduler.run()
        assert replies == []


class TestECNMarking:
    def test_socket_send_sets_tos(self, two_host_net):
        net, client, server = two_host_net
        seen = []
        tap(server, lambda d, p, t: seen.append(p.ecn))
        client.udp_bind(None).send(server.addr, 123, b"x", ecn=ECN.ECT_0)
        client.udp_bind(None).send(server.addr, 123, b"y", ecn=ECN.NOT_ECT)
        net.scheduler.run()
        assert seen == [ECN.ECT_0, ECN.NOT_ECT]

    def test_send_rejects_out_of_range_ecn(self, two_host_net):
        """Regression: the inline TOS fast path must not let a bad ecn
        value bypass tos_byte's range check."""
        _, client, server = two_host_net
        sock = client.udp_bind(None)
        with pytest.raises(ValueError):
            sock.send(server.addr, 123, b"x", ecn=4)
        with pytest.raises(ValueError):
            sock.send(server.addr, 123, b"x", ecn=-1)

    def test_send_rejects_out_of_range_dscp(self, two_host_net):
        _, client, server = two_host_net
        sock = client.udp_bind(None)
        with pytest.raises(ValueError):
            sock.send(server.addr, 123, b"x", dscp=64)


class TestTaps:
    def test_taps_see_both_directions(self, two_host_net):
        net, client, server = two_host_net
        directions = []
        tap(client, lambda d, p, t: directions.append(d))
        server.udp_bind(123, lambda d, p, t: sock_s.send(p.src, d.src_port, b"r"))
        sock_s = server._udp_sockets[123]
        client.udp_bind(None, lambda d, p, t: None).send(server.addr, 123, b"q")
        net.scheduler.run()
        assert directions == ["out", "in"]

    def test_tap_removal(self, two_host_net):
        net, client, server = two_host_net
        seen = []
        remove = tap(client, lambda d, p, t: seen.append(d))
        remove()
        client.udp_bind(None).send(server.addr, 123, b"x")
        net.scheduler.run()
        assert seen == []


class TestFilters:
    def test_inbound_filter_drops(self, two_host_net):
        net, client, server = two_host_net
        server.inbound_filters.append(ECTDropper())
        got = []
        server.udp_bind(123, lambda d, p, t: got.append(d))
        client.udp_bind(None).send(server.addr, 123, b"x", ecn=ECN.ECT_0)
        client.udp_bind(None).send(server.addr, 123, b"y", ecn=ECN.NOT_ECT)
        net.scheduler.run()
        assert len(got) == 1

    def test_outbound_filter_drops(self, two_host_net):
        net, client, server = two_host_net
        client.outbound_filters.append(ECTDropper())
        got = []
        server.udp_bind(123, lambda d, p, t: got.append(d))
        client.udp_bind(None).send(server.addr, 123, b"x", ecn=ECN.ECT_0)
        net.scheduler.run()
        assert got == []

    def test_tap_sees_packet_before_outbound_filter(self, two_host_net):
        """tcpdump runs on the host: it records probes the gateway
        later drops (the McQuistin-home situation)."""
        net, client, server = two_host_net
        client.outbound_filters.append(ECTDropper())
        seen = []
        tap(client, lambda d, p, t: seen.append(p.ecn))
        client.udp_bind(None).send(server.addr, 123, b"x", ecn=ECN.ECT_0)
        net.scheduler.run()
        assert seen == [ECN.ECT_0]


class TestAccessLink:
    def test_access_delay_adds_to_rtt(self, net_factory):
        net, client, server = net_factory()
        client.access = AccessLink(delay=0.1)
        times = []
        server.udp_bind(123, lambda d, p, t: times.append(t))
        client.udp_bind(None).send(server.addr, 123, b"x")
        net.scheduler.run()
        assert times[0] >= 0.11  # 0.1 access + 0.01 link

    def test_access_loss_drops(self, net_factory):
        net, client, server = net_factory()
        client.access = AccessLink(loss=BernoulliLoss(1.0))
        got = []
        server.udp_bind(123, lambda d, p, t: got.append(d))
        client.udp_bind(None).send(server.addr, 123, b"x")
        net.scheduler.run()
        assert got == []
        assert net.counters.dropped_loss == 1

    def test_unattached_host_cannot_send(self):
        host = Host("lonely", parse_addr("192.0.2.9"), "r0")
        with pytest.raises(SocketError):
            host.udp_bind(None).send(parse_addr("192.0.2.10"), 1, b"x")
