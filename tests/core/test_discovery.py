"""Tests for NTP pool discovery via DNS."""

import pytest

from repro.core.discovery import PoolDiscovery


class TestDiscovery:
    def test_converges_on_full_pool(self, fresh_world):
        discovery = PoolDiscovery(
            fresh_world.vantage_hosts["ugla-wired"],
            fresh_world.dns_addr,
            fresh_world.pool.zone_names(),
        )
        report = discovery.run(until_stable_sweeps=2)
        assert len(report) == len(fresh_world.servers)
        assert set(report.addresses) == {s.addr for s in fresh_world.servers}

    def test_single_sweep_finds_partial_pool(self, fresh_world):
        discovery = PoolDiscovery(
            fresh_world.vantage_hosts["ugla-wired"],
            fresh_world.dns_addr,
            ["pool.ntp.org"],
        )
        report = discovery.run(sweeps=1)
        # One query against the global zone returns a 4-address window.
        assert len(report) == 4
        assert report.sweeps == 1

    def test_zone_membership_recorded(self, fresh_world):
        discovery = PoolDiscovery(
            fresh_world.vantage_hosts["ugla-wired"],
            fresh_world.dns_addr,
            fresh_world.pool.zone_names(),
        )
        report = discovery.run(until_stable_sweeps=2)
        # Every discovered server carries at least one zone, and
        # membership is consistent with the pool's ground truth.
        for server in report.servers.values():
            assert server.zones
            (member,) = [
                m for m in fresh_world.pool.members() if m.addr == server.addr
            ]
            assert server.zones <= set(member.zones)

    def test_query_accounting(self, fresh_world):
        zones = fresh_world.pool.zone_names()
        discovery = PoolDiscovery(
            fresh_world.vantage_hosts["ugla-wired"], fresh_world.dns_addr, zones
        )
        report = discovery.run(sweeps=2)
        assert report.queries_sent == 2 * len(zones)
        assert report.queries_answered == report.queries_sent

    def test_first_seen_order(self, fresh_world):
        discovery = PoolDiscovery(
            fresh_world.vantage_hosts["ugla-wired"],
            fresh_world.dns_addr,
            ["pool.ntp.org"],
        )
        report = discovery.run(sweeps=3)
        times = [report.servers[a].first_seen for a in report.addresses]
        assert times == sorted(times)

    def test_requires_zones(self, fresh_world):
        with pytest.raises(ValueError):
            PoolDiscovery(
                fresh_world.vantage_hosts["ugla-wired"], fresh_world.dns_addr, []
            )

    def test_max_sweeps_bounds_runtime(self, fresh_world):
        discovery = PoolDiscovery(
            fresh_world.vantage_hosts["ugla-wired"],
            fresh_world.dns_addr,
            ["pool.ntp.org"],
        )
        report = discovery.run(until_stable_sweeps=10_000, max_sweeps=5)
        assert report.sweeps == 5
