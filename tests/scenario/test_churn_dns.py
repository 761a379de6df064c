"""Failure injection: a dead DNS service and an empty target list."""

import pytest

from repro.core.discovery import PoolDiscovery
from repro.protocols.ntp.pool import POOL_DOMAIN


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
