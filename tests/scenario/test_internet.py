"""Tests for the synthetic Internet builder (using the shared world)."""

import pytest

from repro.geo.regions import Region
from repro.netsim.ecn import ECN
from repro.netsim.ipv4 import PROTO_TCP, PROTO_UDP
from repro.protocols.ntp.client import query_server
from repro.scenario.internet import SyntheticInternet
from repro.scenario.parameters import scaled_params
from repro.scenario.vantages import VANTAGES


class TestStructure:
    def test_all_vantages_present(self, shared_world):
        assert set(shared_world.vantage_hosts) == {spec.key for spec in VANTAGES}
        assert len(shared_world.vantage_hosts) == 13

    def test_server_population_matches_params(self, shared_world):
        assert len(shared_world.servers) == shared_world.params.servers.total

    def test_region_distribution_matches_params(self, shared_world):
        by_region = {}
        for server in shared_world.servers:
            by_region[server.region] = by_region.get(server.region, 0) + 1
        assert by_region == {
            r: c for r, c in shared_world.params.servers.region_counts.items() if c
        }

    def test_topology_connected(self, shared_world):
        shared_world.topology.validate()

    def test_every_server_runs_ntp(self, shared_world):
        assert all(server.ntp is not None for server in shared_world.servers)

    def test_web_server_fraction(self, shared_world):
        expected = round(
            len(shared_world.servers) * shared_world.params.servers.web_server_fraction
        )
        actual = sum(1 for s in shared_world.servers if s.web is not None)
        assert abs(actual - expected) <= 1

    def test_asmap_knows_every_server(self, shared_world):
        for server in shared_world.servers:
            assert shared_world.as_map.lookup(server.addr) == server.asn

    def test_geo_knows_located_servers(self, shared_world):
        for server in shared_world.servers:
            record = shared_world.geo.lookup(server.addr)
            assert record.region is server.region

    def test_unknown_region_servers_unlocatable(self, shared_world):
        unknowns = [s for s in shared_world.servers if s.region is Region.UNKNOWN]
        assert unknowns
        for server in unknowns:
            assert shared_world.geo.lookup(server.addr).region is Region.UNKNOWN

    def test_deterministic_build(self):
        params = scaled_params(0.02, seed=5)
        first = SyntheticInternet(params)
        second = SyntheticInternet(params)
        assert [s.addr for s in first.servers] == [s.addr for s in second.servers]
        assert first.ground_truth.udp_ect_blocked == second.ground_truth.udp_ect_blocked
        assert first.ground_truth.bleacher_routers == second.ground_truth.bleacher_routers


class TestGroundTruth:
    def test_middlebox_counts(self, shared_world):
        mb = shared_world.params.middleboxes
        truth = shared_world.ground_truth
        assert len(truth.udp_ect_blocked) + len(truth.any_ect_blocked) == (
            mb.udp_ect_blocked_servers
        )
        assert len(truth.flaky_ect_blocked) == mb.flaky_ect_blocked_servers
        assert len(truth.not_ect_blocked) == mb.not_ect_blocked_servers
        assert len(truth.phoenix) == mb.phoenix_servers

    def test_special_servers_never_offline(self, shared_world):
        truth = shared_world.ground_truth
        specials = (
            truth.udp_ect_blocked
            | truth.any_ect_blocked
            | truth.not_ect_blocked
            | truth.phoenix
        )
        assert not specials & truth.offline_batch2

    def test_batch2_offline_superset_of_batch1(self, shared_world):
        truth = shared_world.ground_truth
        assert truth.offline_batch1 <= truth.offline_batch2
        assert len(truth.offline_batch2) > len(truth.offline_batch1)

    def test_blocked_servers_have_udp_scoped_filters(self, shared_world):
        for addr in shared_world.ground_truth.udp_ect_blocked:
            filters = shared_world.server_by_addr(addr).host.inbound_filters
            assert any(f.protocols == frozenset({PROTO_UDP}) for f in filters)

    def test_any_blocked_servers_cover_tcp(self, shared_world):
        for addr in shared_world.ground_truth.any_ect_blocked:
            filters = shared_world.server_by_addr(addr).host.inbound_filters
            assert any(
                f.protocols == frozenset({PROTO_UDP, PROTO_TCP}) for f in filters
            )

    def test_udp_blocked_servers_negotiate_ecn_over_tcp(self, shared_world):
        """The §4.4 design: payload-protocol-discriminating firewalls."""
        for addr in shared_world.ground_truth.udp_ect_blocked:
            server = shared_world.server_by_addr(addr)
            assert server.web_policy is not None
            assert server.web_policy.value == "negotiate"

    def test_bleachers_not_in_special_server_ases(self, shared_world):
        protected_asns = shared_world._special_asns()
        for router_id in shared_world.ground_truth.bleacher_routers:
            assert shared_world.topology.routers[router_id].asn not in protected_asns

    def test_bleachers_only_in_stub_ases(self, shared_world):
        stub_asns = {
            info.asn
            for info in shared_world.autonomous_systems
            if info.kind == "stub"
        }
        for router_id in shared_world.ground_truth.bleacher_routers:
            assert shared_world.topology.routers[router_id].asn in stub_asns


class TestBehaviour:
    def test_blocked_server_drops_ect_udp(self, fresh_world):
        addr = sorted(fresh_world.ground_truth.udp_ect_blocked)[0]
        host = fresh_world.vantage_hosts["ugla-wired"]
        results = []
        query_server(host, addr, ECN.NOT_ECT, results.append, attempts=3)
        fresh_world.network.scheduler.run()
        query_server(host, addr, ECN.ECT_0, results.append, attempts=3)
        fresh_world.network.scheduler.run()
        assert results[0].responded
        assert not results[1].responded

    def test_phoenix_servers_reject_not_ect_from_ec2_only(self, fresh_world):
        addr = sorted(fresh_world.ground_truth.phoenix)[0]
        ec2 = fresh_world.vantage_hosts["ec2-virginia"]
        home = fresh_world.vantage_hosts["perkins-home"]
        results = {}
        for key, host in (("ec2", ec2), ("home", home)):
            got = []
            query_server(host, addr, ECN.NOT_ECT, got.append, attempts=3)
            fresh_world.network.scheduler.run()
            results[key] = got[0].responded
        assert not results["ec2"]
        assert results["home"]

    def test_batch_switch_changes_availability(self, fresh_world):
        truth = fresh_world.ground_truth
        churned = sorted(truth.offline_batch2 - truth.offline_batch1)[0]
        server = fresh_world.server_by_addr(churned)
        fresh_world.enter_batch(1)
        assert server.ntp.online
        fresh_world.enter_batch(2)
        assert not server.ntp.online
        fresh_world.enter_batch(1)
        assert server.ntp.online

    def test_invalid_batch_rejected(self, fresh_world):
        with pytest.raises(ValueError):
            fresh_world.enter_batch(3)

    def test_dns_zones_cover_pool(self, shared_world):
        zones = shared_world.dns_server.zones
        assert "pool.ntp.org" in zones
        global_zone = zones["pool.ntp.org"]
        assert len(global_zone.addresses) == len(shared_world.servers)

    def test_mcquistin_gateway_preferentially_drops_ect_udp(self, shared_world):
        host = shared_world.vantage_hosts["mcquistin-home"]
        assert any(
            box.protocols == frozenset({PROTO_UDP}) and box.probability > 0
            for box in host.outbound_filters
        )

    def test_clean_vantages_have_no_outbound_filters(self, shared_world):
        assert shared_world.vantage_hosts["perkins-home"].outbound_filters == []
        assert shared_world.vantage_hosts["ec2-tokyo"].outbound_filters == []
