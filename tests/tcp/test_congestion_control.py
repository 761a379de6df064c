"""Tests for TCP congestion control and its ECN coupling."""

import pytest

from repro.netsim.buffered import buffered_pair
from repro.netsim.host import Host
from repro.netsim.ipv4 import parse_addr
from repro.netsim.network import EVENT, Network
from repro.netsim.queues import REDQueue
from repro.netsim.router import Router
from repro.netsim.topology import Topology
from repro.tcp.connection import ConnState, ECNServerPolicy, TCPStack


def sink_server(server, policy=ECNServerPolicy.NEGOTIATE):
    stack = TCPStack(server)
    accepted = []
    stack.listen(80, accepted.append, ecn_policy=policy)
    return stack, accepted


class TestWindowGating:
    def test_initial_window_is_rfc6928(self, two_host_net):
        net, client, server = two_host_net
        sink_server(server)
        stack = TCPStack(client)
        conn = stack.connect(server.addr, 80)
        net.scheduler.run()
        assert conn.cwnd == pytest.approx(10.0, abs=15)  # grown a bit by ACKs
        assert conn.in_flight == 0

    def test_large_send_is_gated_then_completes(self, two_host_net):
        net, client, server = two_host_net
        stack_s, accepted = sink_server(server)
        payload = bytes(30) * 2000  # ~60 KB: > initial window of MSS
        stack = TCPStack(client)
        conn = stack.connect(server.addr, 80)
        conn.on_established = lambda c: c.send(payload)
        net.scheduler.run()
        server_conn = accepted[0]
        received = (server_conn.rcv_nxt - (conn.snd_una - len(payload))) >= 0
        assert received
        assert conn._send_queue == []
        assert conn.in_flight == 0

    def test_cwnd_grows_during_transfer(self, two_host_net):
        net, client, server = two_host_net
        sink_server(server)
        stack = TCPStack(client)
        conn = stack.connect(server.addr, 80)
        conn.on_established = lambda c: c.send(bytes(60_000))
        net.scheduler.run()
        assert conn.cwnd > 10.0

    def test_close_after_large_send_delivers_everything(self, two_host_net):
        """The FIN must trail queued data, not jump the window gate."""
        net, client, server = two_host_net
        stack_s, accepted = sink_server(server)
        payload = bytes(50_000)
        closes = []
        stack = TCPStack(client)
        conn = stack.connect(server.addr, 80)

        def go(c):
            c.send(payload)
            c.close()

        conn.on_established = go
        net.scheduler.run()
        server_conn = accepted[0]
        # The server saw all the data and then the FIN, in order.
        assert server_conn.state in (ConnState.CLOSE_WAIT, ConnState.CLOSED)
        assert conn.state in (
            ConnState.FIN_WAIT_2,
            ConnState.TIME_WAIT,
            ConnState.CLOSED,
        )


class TestECNCongestionResponse:
    def _red_bottleneck(self):
        topo = Topology()
        topo.add_router(Router("r0", asn=1, interface_addr=parse_addr("10.0.0.1")))
        topo.add_router(Router("r1", asn=2, interface_addr=parse_addr("10.0.1.1")))
        red = REDQueue(
            min_threshold=3, max_threshold=10, max_probability=0.3, weight=0.2,
            ecn_capable_queue=True,
        )
        forward, backward = buffered_pair(
            "r0", "r1", bandwidth=2_000_000, delay=0.01, queue_limit=64, red=red
        )
        topo.add_link_pair(forward, backward)
        client = topo.add_host(Host("c", parse_addr("192.0.2.1"), "r0"))
        server = topo.add_host(Host("s", parse_addr("198.51.100.1"), "r1"))
        net = Network(topo, seed=3, mode=EVENT)
        forward.bind_clock(net.scheduler.clock)
        backward.bind_clock(net.scheduler.clock)
        return net, client, server, forward

    def test_ece_halves_cwnd(self, two_host_net):
        net, client, server = two_host_net
        sink_server(server)
        stack = TCPStack(client)
        conn = stack.connect(server.addr, 80, use_ecn=True)
        net.scheduler.run()
        conn.cwnd = 40.0
        conn.ssthresh = 64.0
        # Simulate an arriving pure ACK with ECE set.
        from repro.tcp.segment import Flags, TCPSegment
        from repro.netsim.ipv4 import IPv4Packet, PROTO_TCP

        ece_ack = TCPSegment(
            src_port=conn.remote_port,
            dst_port=conn.local_port,
            seq=conn.rcv_nxt,
            ack=conn.snd_nxt,
            flags=Flags.ACK | Flags.ECE,
        )
        fake = IPv4Packet(src=conn.remote_addr, dst=client.addr, protocol=PROTO_TCP)
        conn.handle_segment(ece_ack, fake)
        assert conn.cwnd == pytest.approx(20.0)
        assert conn.ssthresh == pytest.approx(20.0)

    def test_one_reduction_per_window(self, two_host_net):
        net, client, server = two_host_net
        sink_server(server)
        stack = TCPStack(client)
        conn = stack.connect(server.addr, 80, use_ecn=True)
        net.scheduler.run()
        conn.cwnd = 40.0
        from repro.tcp.segment import Flags, TCPSegment
        from repro.netsim.ipv4 import IPv4Packet, PROTO_TCP

        fake = IPv4Packet(src=conn.remote_addr, dst=client.addr, protocol=PROTO_TCP)
        for _ in range(5):
            ece_ack = TCPSegment(
                src_port=conn.remote_port,
                dst_port=conn.local_port,
                seq=conn.rcv_nxt,
                ack=conn.snd_nxt,
                flags=Flags.ACK | Flags.ECE,
            )
            conn.handle_segment(ece_ack, fake)
        # Repeated ECEs within the same window reduce only once.
        assert conn.cwnd == pytest.approx(20.0)

    def test_bulk_transfer_over_red_ecn_low_loss(self):
        """End to end: an ECN bulk transfer over a marking bottleneck
        completes with (near) zero retransmission timeouts."""
        net, client, server, bottleneck = self._red_bottleneck()
        stack_s, accepted = sink_server(server)
        stack = TCPStack(client)
        conn = stack.connect(server.addr, 80, use_ecn=True)
        conn.syn_retries = 4
        conn.data_retries = 8
        payload = bytes(200_000)
        conn.on_established = lambda c: (c.send(payload), c.close())
        net.scheduler.run(max_events=2_000_000)
        assert conn.ecn_stats.ece_received > 0  # congestion was signalled
        assert bottleneck.ce_marks > 0
        # The ECT-marked data stream is marked rather than dropped; the
        # only RED casualties are the connection's not-ECT control
        # segments (handshake ACK, FIN) — few, and far fewer than marks.
        assert bottleneck.red_drops < bottleneck.ce_marks
        assert bottleneck.red_drops < 0.1 * bottleneck.delivered
        # cwnd came down from its peak in response.
        assert conn.cwnd < 64.0
