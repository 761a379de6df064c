"""Tests for the NTP server and the paper's probing client."""

import pytest

from repro.netsim.ecn import ECN
from repro.netsim.queues import BernoulliLoss
from repro.protocols.ntp.client import query_server
from repro.protocols.ntp.server import NTPServer

from wiretap import tap


class TestServer:
    def test_responds_to_client_request(self, two_host_net):
        net, client, server = two_host_net
        ntp = NTPServer(server)
        results = []
        query_server(client, server.addr, ECN.NOT_ECT, results.append)
        net.scheduler.run()
        result = results[0]
        assert result.responded
        assert result.attempts == 1
        assert result.response.stratum == 2
        assert ntp.requests_served == 1

    def test_response_echoes_origin_timestamp(self, two_host_net):
        net, client, server = two_host_net
        NTPServer(server)
        results = []
        query_server(client, server.addr, ECN.NOT_ECT, results.append)
        net.scheduler.run()
        response = results[0].response
        assert response.origin_ts != 0
        assert response.receive_ts >= response.origin_ts

    def test_offline_server_is_silent(self, two_host_net):
        net, client, server = two_host_net
        ntp = NTPServer(server)
        ntp.set_online(False)
        results = []
        query_server(client, server.addr, ECN.NOT_ECT, results.append, attempts=2)
        net.scheduler.run()
        assert not results[0].responded
        assert results[0].attempts == 2

    def test_server_ignores_non_client_modes(self, two_host_net):
        net, client, server = two_host_net
        ntp = NTPServer(server)
        from repro.protocols.ntp.packet import NTPPacket

        got = []
        sock = client.udp_bind(None, lambda d, p, t: got.append(d))
        sock.send(server.addr, 123, NTPPacket(mode=4).encode())
        net.scheduler.run()
        assert got == []
        assert ntp.requests_served == 0

    def test_server_response_is_not_ect(self, two_host_net):
        """NTP doesn't use ECN: responses ride not-ECT packets, which
        is why the paper can only probe the forward path."""
        net, client, server = two_host_net
        NTPServer(server)
        marks = []
        tap(client, lambda d, p, t: marks.append(p.ecn) if d == "in" else None)
        query_server(client, server.addr, ECN.ECT_0, lambda r: None)
        net.scheduler.run()
        assert marks == [ECN.NOT_ECT]


class TestClientRetries:
    def test_five_attempts_then_unreachable(self, two_host_net):
        """The paper's exact policy: 5 transmissions, 1 s timeouts."""
        net, client, server = two_host_net
        # No NTP server bound at all.
        results = []
        query_server(
            client, server.addr, ECN.ECT_0, results.append, attempts=5, timeout=1.0
        )
        start = net.scheduler.now
        net.scheduler.run()
        result = results[0]
        assert not result.responded
        assert result.attempts == 5
        assert net.scheduler.now - start == pytest.approx(5.0)

    def test_retry_recovers_from_loss(self, net_factory):
        net, client, server = net_factory(seed=23)
        forward = net.topology.succ["r0"]["r1"]
        forward.loss = BernoulliLoss(0.6)
        NTPServer(server)
        results = []
        query_server(client, server.addr, ECN.NOT_ECT, results.append, attempts=5)
        net.scheduler.run()
        assert results[0].responded
        assert results[0].attempts >= 1

    def test_ect_marked_probe_carries_mark(self, two_host_net):
        net, client, server = two_host_net
        NTPServer(server)
        marks = []
        tap(server, lambda d, p, t: marks.append(p.ecn) if d == "in" else None)
        query_server(client, server.addr, ECN.ECT_0, lambda r: None)
        net.scheduler.run()
        assert marks == [ECN.ECT_0]

    def test_rtt_measured(self, two_host_net):
        net, client, server = two_host_net
        NTPServer(server)
        results = []
        query_server(client, server.addr, ECN.NOT_ECT, results.append)
        net.scheduler.run()
        assert results[0].rtt == pytest.approx(0.02)

    def test_late_response_after_retransmit_still_counts(self, net_factory):
        """A response to any attempt marks the server reachable (§3)."""
        net, client, server = net_factory(seed=4)
        forward = net.topology.succ["r0"]["r1"]
        # Lose exactly the first probe.
        class FirstOnly(BernoulliLoss):
            def __init__(self):
                super().__init__(1.0)
                self.count = 0

            def sample_loss(self, rng):
                self.count += 1
                return self.count == 1

        forward.loss = FirstOnly()
        NTPServer(server)
        results = []
        query_server(client, server.addr, ECN.ECT_0, results.append)
        net.scheduler.run()
        assert results[0].responded
        assert results[0].attempts == 2
