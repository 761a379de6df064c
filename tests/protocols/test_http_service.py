"""Tests for the pool web server and the HTTP probe client."""

import pytest

from repro.netsim.ipv4 import PROTO_TCP
from repro.netsim.middlebox import ECTDropper
from repro.netsim.queues import BernoulliLoss
from repro.protocols.http.client import HTTPFetch
from repro.protocols.http.server import PoolWebServer, REDIRECT_TARGET
from repro.tcp.connection import ECNServerPolicy, TCPStack
from repro.tcp.segment import Flags


class TestFetchPlain:
    def test_fetch_redirect_page(self, two_host_net):
        net, client, server = two_host_net
        web = PoolWebServer(server)
        results = []
        HTTPFetch(client, server.addr, use_ecn=False, callback=results.append)
        net.scheduler.run()
        result = results[0]
        assert result.ok
        assert result.response.status == 302
        assert result.response.header("Location") == REDIRECT_TARGET
        assert web.requests_served == 1

    def test_no_web_server_with_stack_refused(self, two_host_net):
        net, client, server = two_host_net
        TCPStack(server)  # stack but no listener -> RST
        results = []
        HTTPFetch(client, server.addr, use_ecn=False, callback=results.append)
        net.scheduler.run()
        assert not results[0].ok
        assert results[0].failure == "refused"

    def test_no_stack_times_out(self, two_host_net):
        net, client, server = two_host_net
        results = []
        HTTPFetch(client, server.addr, use_ecn=False, callback=results.append, deadline=5.0)
        net.scheduler.run()
        assert not results[0].ok
        assert results[0].failure in ("syn-timeout", "deadline")

    def test_deadline_caps_duration(self, two_host_net):
        net, client, server = two_host_net
        results = []
        HTTPFetch(client, server.addr, use_ecn=False, callback=results.append, deadline=3.0)
        net.scheduler.run()
        assert net.scheduler.now <= 8.0


class TestFetchECN:
    @pytest.mark.parametrize(
        "policy,negotiated",
        [
            (ECNServerPolicy.NEGOTIATE, True),
            (ECNServerPolicy.IGNORE, False),
            (ECNServerPolicy.REFLECT, False),
        ],
    )
    def test_negotiation_recorded(self, two_host_net, policy, negotiated):
        net, client, server = two_host_net
        PoolWebServer(server, ecn_policy=policy)
        results = []
        HTTPFetch(client, server.addr, use_ecn=True, callback=results.append)
        net.scheduler.run()
        result = results[0]
        assert result.ok  # page fetched regardless of ECN outcome
        assert result.ecn_negotiated is negotiated

    def test_synack_flags_captured(self, two_host_net):
        net, client, server = two_host_net
        PoolWebServer(server, ecn_policy=ECNServerPolicy.NEGOTIATE)
        results = []
        HTTPFetch(client, server.addr, use_ecn=True, callback=results.append)
        net.scheduler.run()
        flags = results[0].synack_flags
        assert flags & Flags.SYN and flags & Flags.ACK and flags & Flags.ECE
        assert not flags & Flags.CWR

    def test_plain_fetch_never_reports_negotiation(self, two_host_net):
        net, client, server = two_host_net
        PoolWebServer(server, ecn_policy=ECNServerPolicy.NEGOTIATE)
        results = []
        HTTPFetch(client, server.addr, use_ecn=False, callback=results.append)
        net.scheduler.run()
        assert not results[0].ecn_negotiated

    def test_drop_ecn_syn_server_unreachable_with_ecn_only(self, two_host_net):
        net, client, server = two_host_net
        PoolWebServer(server, ecn_policy=ECNServerPolicy.DROP_ECN_SYN)
        plain, with_ecn = [], []
        HTTPFetch(client, server.addr, use_ecn=False, callback=plain.append)
        net.scheduler.run()
        HTTPFetch(client, server.addr, use_ecn=True, callback=with_ecn.append, deadline=5.0)
        net.scheduler.run()
        assert plain[0].ok
        assert not with_ecn[0].ok
        assert not with_ecn[0].ecn_negotiated

    def test_ect_tcp_firewall_breaks_transfer_not_negotiation(self, two_host_net):
        """§4.4 nuance: an IP-level ECT dropper on TCP doesn't stop the
        (not-ECT) handshake, so negotiation succeeds — but ECT-marked
        data segments then vanish and the fetch itself fails."""
        net, client, server = two_host_net
        PoolWebServer(server, ecn_policy=ECNServerPolicy.NEGOTIATE)
        server.inbound_filters.append(ECTDropper(protocols=frozenset({PROTO_TCP})))
        results = []
        HTTPFetch(client, server.addr, use_ecn=True, callback=results.append, deadline=6.0)
        net.scheduler.run()
        result = results[0]
        assert result.ecn_negotiated  # SYN/SYN-ACK are not-ECT
        assert not result.ok  # the ECT-marked request died


class TestFetchOverLoss:
    def test_fetch_survives_moderate_loss(self, net_factory):
        net, client, server = net_factory(seed=31)
        forward = net.topology.succ["r0"]["r1"]
        forward.loss = BernoulliLoss(0.15)
        PoolWebServer(server)
        results = []
        fetch = HTTPFetch(
            client, server.addr, use_ecn=False, callback=results.append,
            deadline=30.0,
        )
        fetch.conn.syn_retries = 6
        net.scheduler.run()
        assert results[0].ok
