"""Tests for the round-robin DNS server and the stub resolver."""

import pytest

from repro.netsim.queues import BernoulliLoss
from repro.protocols.dns.resolver import Resolver
from repro.protocols.dns.server import DEFAULT_WINDOW, DNSServer, RoundRobinZone


class TestRoundRobinZone:
    def test_rotation_covers_all_addresses(self):
        zone = RoundRobinZone("pool.ntp.org", addresses=list(range(10)), window=4)
        seen = set()
        for _ in range(5):
            seen.update(zone.next_answers())
        assert seen == set(range(10))

    def test_window_size(self):
        zone = RoundRobinZone("z", addresses=list(range(10)))
        assert len(zone.next_answers()) == DEFAULT_WINDOW

    def test_small_zone_returns_everything(self):
        zone = RoundRobinZone("z", addresses=[1, 2])
        assert sorted(zone.next_answers()) == [1, 2]

    def test_empty_zone(self):
        assert RoundRobinZone("z", addresses=[]).next_answers() == []

    def test_consecutive_answers_differ(self):
        """'Round-robin DNS that returns a different answer every few
        minutes' — consecutive queries see rotated windows."""
        zone = RoundRobinZone("z", addresses=list(range(12)), window=4)
        assert zone.next_answers() != zone.next_answers()

    def test_set_addresses_resets(self):
        zone = RoundRobinZone("z", addresses=list(range(8)), window=4)
        zone.next_answers()
        zone.set_addresses([100, 101])
        assert sorted(zone.next_answers()) == [100, 101]


class TestServerResolver:
    def _wire(self, net, client, server, addresses):
        dns = DNSServer(server)
        dns.add_zone(RoundRobinZone("pool.ntp.org", addresses=addresses))
        return dns, Resolver(client, server.addr)

    def test_lookup_returns_addresses(self, two_host_net):
        net, client, server = two_host_net
        dns, resolver = self._wire(net, client, server, list(range(100, 110)))
        results = []
        resolver.lookup("pool.ntp.org", results.append)
        net.scheduler.run()
        assert results[0].responded
        assert len(results[0].addresses) == 4
        assert set(results[0].addresses) <= set(range(100, 110))

    def test_nxdomain_for_unknown_zone(self, two_host_net):
        net, client, server = two_host_net
        dns, resolver = self._wire(net, client, server, [1])
        results = []
        resolver.lookup("bogus.example", results.append)
        net.scheduler.run()
        assert results[0].responded
        assert results[0].addresses == []
        assert results[0].rcode == 3

    def test_zone_names_case_insensitive(self, two_host_net):
        net, client, server = two_host_net
        dns, resolver = self._wire(net, client, server, [42])
        results = []
        resolver.lookup("POOL.NTP.ORG", results.append)
        net.scheduler.run()
        assert results[0].addresses == [42]

    def test_timeout_when_server_dead(self, two_host_net):
        net, client, server = two_host_net
        resolver = Resolver(client, server.addr, timeout=1.0, retries=1)
        results = []
        resolver.lookup("pool.ntp.org", results.append)
        net.scheduler.run()
        assert not results[0].responded

    def test_retry_recovers_from_loss(self, net_factory):
        net, client, server = net_factory(seed=6)
        forward = net.topology.succ["r0"]["r1"]
        forward.loss = BernoulliLoss(0.5)
        dns = DNSServer(server)
        dns.add_zone(RoundRobinZone("pool.ntp.org", addresses=[7]))
        resolver = Resolver(client, server.addr, retries=8)
        results = []
        resolver.lookup("pool.ntp.org", results.append)
        net.scheduler.run()
        assert results[0].responded

    def test_resolver_ecn_marking(self, two_host_net):
        """Queries carry the requested ECN codepoint (the §3 DNS
        variant: probe resolvers with ECT(0)-marked queries)."""
        from repro.netsim.ecn import ECN

        net, client, server = two_host_net
        dns, _ = self._wire(net, client, server, [1])
        marks = []
        server.add_tap(lambda d, p, t: marks.append(p.ecn) if d == "in" else None)
        ect_resolver = Resolver(client, server.addr, ecn=ECN.ECT_0)
        results = []
        ect_resolver.lookup("pool.ntp.org", results.append)
        net.scheduler.run()
        assert results[0].responded
        assert marks == [ECN.ECT_0]

    def test_ect_blocked_dns_server(self, two_host_net):
        """An ECT-dropping firewall blackholes ECT-marked queries while
        not-ECT queries work — the DNS face of the paper's finding."""
        from repro.netsim.ecn import ECN
        from repro.netsim.ipv4 import PROTO_UDP
        from repro.netsim.middlebox import ECTDropper

        net, client, server = two_host_net
        dns, _ = self._wire(net, client, server, [7])
        server.inbound_filters.append(ECTDropper(protocols=frozenset({PROTO_UDP})))
        plain, marked = [], []
        Resolver(client, server.addr, timeout=0.5, retries=1).lookup(
            "pool.ntp.org", plain.append
        )
        net.scheduler.run()
        Resolver(client, server.addr, timeout=0.5, retries=1, ecn=ECN.ECT_0).lookup(
            "pool.ntp.org", marked.append
        )
        net.scheduler.run()
        assert plain[0].responded
        assert not marked[0].responded

    def test_mismatched_ident_ignored(self, two_host_net):
        """A spoofed response with the wrong transaction id must not
        complete the lookup."""
        net, client, server = two_host_net
        from repro.protocols.dns.message import DNSMessage, ResourceRecord, QTYPE_A

        results = []
        resolver = Resolver(client, server.addr, timeout=0.5, retries=0)

        def spoof(datagram, packet, now):
            query = DNSMessage.decode(datagram.payload)
            fake = DNSMessage.response_to(
                query,
                [ResourceRecord(query.questions[0].qname, QTYPE_A, 1, 60, address=666)],
            )
            fake.ident = (query.ident + 1) & 0xFFFF
            sock.send(packet.src, datagram.src_port, fake.encode())

        sock = server.udp_bind(53, spoof)
        resolver.lookup("pool.ntp.org", results.append)
        net.scheduler.run()
        assert not results[0].responded
