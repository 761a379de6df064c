"""Tests for the ECN data path: ECT marking, CE echo, ECE/CWR dance."""

from dataclasses import dataclass

from repro.netsim.ecn import ECN
from repro.netsim.ipv4 import PROTO_TCP
from repro.netsim.queues import AQMDecision, AQMModel, StaticCongestion
from repro.tcp.connection import ECNServerPolicy, TCPStack

from wiretap import tap


@dataclass
class MarkAllECT(AQMModel):
    """Deterministic test AQM: CE-mark every ECT packet, pass the rest.

    A real RED queue at signal probability 1.0 would also *drop* every
    not-ECT packet (including the handshake); this variant isolates
    the marking path so the ECE/CWR dance can be tested
    deterministically.
    """

    def sample(self, rng, ect_capable):
        return AQMDecision.MARK if ect_capable else AQMDecision.PASS


def wire_sink(server, policy=ECNServerPolicy.NEGOTIATE):
    stack = TCPStack(server)
    accepted = []
    stack.listen(80, accepted.append, ecn_policy=policy)
    return stack, accepted


class TestECTMarking:
    def test_data_segments_marked_ect0_when_negotiated(self, two_host_net):
        net, client, server = two_host_net
        wire_sink(server)
        marks = []
        tap(client, 
            lambda d, p, t: marks.append(p.ecn)
            if d == "out" and p.protocol == PROTO_TCP and len(p.payload) > 20
            else None
        )
        stack = TCPStack(client)
        conn = stack.connect(server.addr, 80, use_ecn=True)
        conn.on_established = lambda c: c.send(b"data!")
        net.scheduler.run()
        assert ECN.ECT_0 in marks
        assert conn.ecn_stats.ect_data_sent == 1

    def test_data_not_marked_without_negotiation(self, two_host_net):
        net, client, server = two_host_net
        wire_sink(server, policy=ECNServerPolicy.IGNORE)
        marks = set()
        tap(client, lambda d, p, t: marks.add(p.ecn) if d == "out" else None)
        stack = TCPStack(client)
        conn = stack.connect(server.addr, 80, use_ecn=True)
        conn.on_established = lambda c: c.send(b"data!")
        net.scheduler.run()
        assert marks == {ECN.NOT_ECT}

    def test_pure_acks_not_marked(self, two_host_net):
        net, client, server = two_host_net
        wire_sink(server)
        ack_marks = []
        tap(client, 
            lambda d, p, t: ack_marks.append(p.ecn)
            if d == "out" and p.protocol == PROTO_TCP and len(p.payload) == 20
            else None
        )
        stack = TCPStack(client)
        conn = stack.connect(server.addr, 80, use_ecn=True)
        conn.on_established = lambda c: c.send(b"data!")
        net.scheduler.run()
        assert set(ack_marks) == {ECN.NOT_ECT}


class TestCongestionEcho:
    def _congested_ecn_path(self, net_factory):
        """Mark every ECT packet CE on the forward link."""
        net, client, server = net_factory(seed=2)
        forward = net.topology.succ["r0"]["r1"]
        forward.aqm = MarkAllECT()
        return net, client, server

    def test_ce_triggers_ece_and_cwr(self, net_factory):
        net, client, server = self._congested_ecn_path(net_factory)
        stack_s, accepted = wire_sink(server)
        stack = TCPStack(client)
        conn = stack.connect(server.addr, 80, use_ecn=True)
        # Two sends so the CWR-marked second data segment exists.
        def on_est(c):
            c.send(b"first")
            net.scheduler.schedule(0.5, lambda: c.send(b"second"))

        conn.on_established = on_est
        net.scheduler.run()
        server_conn = accepted[0]
        # The server saw CE on the first data segment and echoed ECE.
        assert server_conn.ecn_stats.ce_received >= 1
        assert server_conn.ecn_stats.ece_sent >= 1
        # The client received the echo and responded with CWR on the
        # next data segment.
        assert conn.ecn_stats.ece_received >= 1
        assert conn.ecn_stats.cwr_sent == 1
        assert server_conn.ecn_stats.cwr_received == 1

    def test_no_ce_no_echo(self, two_host_net):
        net, client, server = two_host_net
        stack_s, accepted = wire_sink(server)
        stack = TCPStack(client)
        conn = stack.connect(server.addr, 80, use_ecn=True)
        conn.on_established = lambda c: c.send(b"clean path")
        net.scheduler.run()
        assert accepted[0].ecn_stats.ce_received == 0
        assert accepted[0].ecn_stats.ece_sent == 0
        assert conn.ecn_stats.cwr_sent == 0

    def test_ece_stops_after_cwr(self, net_factory):
        """The receiver echoes ECE only until CWR arrives (RFC 3168)."""
        net, client, server = self._congested_ecn_path(net_factory)
        stack_s, accepted = wire_sink(server)
        stack = TCPStack(client)
        conn = stack.connect(server.addr, 80, use_ecn=True)

        def on_est(c):
            c.send(b"one")
            net.scheduler.schedule(0.5, lambda: c.send(b"two"))
            # After CWR lands, lift the congestion so segment three
            # arrives unmarked; its ACK must not carry ECE.
            def lift():
                forward = net.topology.succ["r0"]["r1"]
                forward.aqm = StaticCongestion(0.0)  # no more signalling
                c.send(b"three")

            net.scheduler.schedule(1.0, lift)

        conn.on_established = on_est
        net.scheduler.run()
        server_conn = accepted[0]
        assert server_conn.ecn_stats.cwr_received == 1
        # ECE was echoed while congestion was unacknowledged, then stopped:
        # the number of ECE-bearing ACKs is bounded by segments seen
        # before CWR (plus the CE of segment two itself).
        assert conn.ecn_stats.ece_received <= 2
