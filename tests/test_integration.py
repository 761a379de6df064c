"""End-to-end integration: discovery → study → every analysis.

These tests exercise the complete pipeline the way ``ecnudp study``
does, and check the cross-cutting invariants that only hold when all
the pieces cooperate.
"""

import pytest

from repro.core.analysis import (
    DifferentialAnalysis,
    analyze_campaign,
    analyze_correlation,
    analyze_geography,
    analyze_reachability,
    analyze_tcp_ecn,
)
from repro.core.discovery import PoolDiscovery
from repro.scenario.internet import SyntheticInternet
from repro.scenario.parameters import scaled_params
from repro.study import Study

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def pipeline():
    """A small but complete discovery→measurement→analysis pipeline."""
    world = SyntheticInternet(scaled_params(0.02, seed=77))
    discovery = PoolDiscovery(
        world.vantage_hosts["ugla-wired"], world.dns_addr, world.pool.zone_names()
    )
    report = discovery.run()
    study = Study.run(scale=0.02, seed=77, world=world, targets=report.addresses)
    return world, report, study.traces, study.campaign


class TestPipeline:
    def test_discovery_found_whole_pool(self, pipeline):
        world, report, _, _ = pipeline
        assert len(report) == len(world.servers)

    def test_study_has_planned_trace_count(self, pipeline):
        world, _, traces, _ = pipeline
        assert len(traces) == world.params.schedule.total_traces

    def test_reachability_consistent_with_ground_truth(self, pipeline):
        world, _, traces, _ = pipeline
        truth = world.ground_truth
        blocked = truth.udp_ect_blocked | truth.any_ect_blocked
        for trace in traces:
            for addr in blocked:
                outcome = trace.outcome_for(addr)
                # Persistently blocked: never ECT-reachable.
                assert not outcome.udp_ect

    def test_offline_servers_never_respond(self, pipeline):
        world, _, traces, _ = pipeline
        always_offline = world.ground_truth.offline_batch1
        for trace in traces:
            for addr in always_offline:
                outcome = trace.outcome_for(addr)
                assert not outcome.udp_plain
                assert not outcome.udp_ect

    def test_negotiation_only_with_negotiating_policy(self, pipeline):
        from repro.tcp.connection import ECNServerPolicy

        world, _, traces, _ = pipeline
        negotiators = {
            s.addr
            for s in world.servers
            if s.web_policy is ECNServerPolicy.NEGOTIATE
        }
        for trace in traces:
            negotiated = {
                addr for addr, o in trace.outcomes.items() if o.ecn_negotiated
            }
            assert negotiated <= negotiators

    def test_all_analyses_run_cleanly(self, pipeline):
        world, _, traces, campaign = pipeline
        geo = analyze_geography(traces.server_addrs, world.geo)
        reach = analyze_reachability(traces)
        tcp = analyze_tcp_ecn(traces)
        paths = analyze_campaign(campaign, world.noisy_as_map)
        corr = analyze_correlation(traces)
        diff_a = DifferentialAnalysis(traces, "plain-only")
        diff_b = DifferentialAnalysis(traces, "ect-only")
        assert geo.total == len(traces.server_addrs)
        assert reach.avg_pct_ect_given_plain > 80
        assert tcp.pct_negotiated > 60
        assert paths.hops_measured > 0
        assert len(corr.rows) == 13
        assert len(diff_a.fractions_for_vantage("ugla-wired")) == geo.total
        assert len(diff_b.fractions_for_vantage("ugla-wired")) == geo.total

    def test_conclusion_holds(self, pipeline):
        """The paper's bottom line: marking UDP packets ECT(0) does not,
        in general, harm reachability — the reachability deficit is
        small and concentrated in a handful of servers."""
        world, _, traces, _ = pipeline
        reach = analyze_reachability(traces)
        deficit = 100.0 - reach.avg_pct_ect_given_plain
        assert deficit < 7.5
        analysis = DifferentialAnalysis(traces, "plain-only")
        persistent = analysis.servers_above_everywhere(0.5)
        assert len(persistent) <= max(
            4, 2 * world.params.middleboxes.udp_ect_blocked_servers
        )

    def test_network_counters_accumulate(self, pipeline):
        world, _, _, _ = pipeline
        counters = world.network.counters
        assert counters.sent > counters.delivered > 0
        assert counters.ttl_expired > 0  # traceroutes ran
        assert counters.icmp_generated > 0
