"""The measurement stack also runs on the hop-by-hop event engine.

The study normally runs in fast mode for throughput; this integration
test runs a complete trace plus traceroutes on a small world in EVENT
mode and checks the same calibrated shapes emerge — demonstrating the
two execution modes are interchangeable at the system level, not just
per packet (which the parity property already covers).
"""

import pytest

from repro.core.measurement import MeasurementApplication
from repro.core.analysis import analyze_campaign
from repro.core.traces import TracerouteCampaign
from repro.netsim.network import EVENT
from repro.scenario.internet import SyntheticInternet
from repro.scenario.parameters import scaled_params


@pytest.fixture(scope="module")
def event_world():
    return SyntheticInternet(scaled_params(0.02, seed=99), mode=EVENT)


class TestEventModeMeasurement:
    def test_trace_shapes(self, event_world):
        world = event_world
        app = MeasurementApplication(world)
        trace = app.run_trace("ec2-ireland", trace_id=0, batch=1)
        total = len(world.servers)
        assert trace.count_udp_plain() > 0.8 * total
        assert trace.pct_ect_given_plain() > 85.0
        negotiated = trace.count_ecn_negotiated()
        reachable_tcp = trace.count_tcp_plain()
        assert reachable_tcp > 0.35 * total
        assert 0.6 * reachable_tcp < negotiated < reachable_tcp

    def test_blocked_servers_blocked_in_event_mode(self, event_world):
        world = event_world
        app = MeasurementApplication(world)
        trace = app.run_trace("perkins-home", trace_id=1, batch=1)
        for addr in world.ground_truth.udp_ect_blocked:
            outcome = trace.outcome_for(addr)
            assert outcome.udp_plain and not outcome.udp_ect

    def test_traceroutes_in_event_mode(self, event_world):
        world = event_world
        app = MeasurementApplication(world)
        campaign = TracerouteCampaign(
            app.run_traceroute_vantage(
                "ugla-wired", targets=[s.addr for s in world.servers[:15]]
            )
        )
        analysis = analyze_campaign(campaign, world.as_map)
        assert analysis.hops_measured > 40
        assert analysis.pct_hops_passing > 80.0
