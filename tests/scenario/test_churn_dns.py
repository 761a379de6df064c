"""Tests for pool churn propagating into DNS, and failure injection."""

import pytest

from repro.core.discovery import PoolDiscovery
from repro.protocols.ntp.pool import POOL_DOMAIN


class TestChurnToDNS:
    def test_departed_members_leave_dns(self, fresh_world):
        world = fresh_world
        member = world.pool.members()[0]
        member.in_pool = False
        world.refresh_dns_zones()
        zone = world.dns_server.zone(POOL_DOMAIN)
        assert member.addr not in zone.addresses
        assert len(zone.addresses) == len(world.servers) - 1

    def test_pool_churn_shrinks_discovery(self, fresh_world):
        world = fresh_world
        departed = [m for m in world.pool.members() if world._rng.random() < 0.3]
        assert departed
        for member in departed:
            member.in_pool = False
        world.refresh_dns_zones()
        discovery = PoolDiscovery(
            world.vantage_hosts["ugla-wired"],
            world.dns_addr,
            world.pool.zone_names(),
        )
        report = discovery.run(until_stable_sweeps=2)
        departed_addrs = {m.addr for m in departed}
        assert not departed_addrs & set(report.addresses)
        assert len(report) == len(world.servers) - len(departed)

    def test_departed_hosts_still_answer_ntp(self, fresh_world):
        """Leaving the pool is a DNS event; the daemon keeps running —
        probes against previously discovered addresses still succeed
        (unless the host also went dark)."""
        from repro.core.probes import probe_udp
        from repro.netsim.ecn import ECN

        world = fresh_world
        online = [
            m
            for m in world.pool.members()
            if m.addr not in world.ground_truth.offline_batch1
        ]
        member = online[0]
        member.in_pool = False
        world.refresh_dns_zones()
        host = world.vantage_hosts["ugla-wired"]
        assert probe_udp(host, member.addr, ECN.NOT_ECT).responded


class TestFailureInjection:
    def test_discovery_with_dead_dns_finds_nothing(self, fresh_world):
        world = fresh_world
        # Unbind the DNS service: queries go unanswered.
        world.dns_server._socket.close()
        discovery = PoolDiscovery(
            world.vantage_hosts["ugla-wired"],
            world.dns_addr,
            [POOL_DOMAIN],
        )
        report = discovery.run(sweeps=2)
        assert len(report) == 0
        assert report.queries_answered == 0

    def test_measurement_against_empty_target_list(self, fresh_world):
        from repro.core.measurement import MeasurementApplication

        app = MeasurementApplication(fresh_world, targets=[])
        trace = app.run_trace("ugla-wired", trace_id=0, batch=1)
        assert trace.outcomes == {}
        assert trace.pct_ect_given_plain() is None
