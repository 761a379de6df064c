"""Tests for the §4.2 traceroute/strip analysis."""

import pytest

from repro.asmap.mapping import ASMap, UNKNOWN_ASN
from repro.core.analysis.pathanalysis import (
    DOWNSTREAM,
    PASS,
    STRIP,
    analyze_campaign,
    classify_path,
)
from repro.core.traces import HopObservation, PathTrace, TracerouteCampaign
from repro.netsim.ecn import ECN
from repro.netsim.ipv4 import Prefix


class FakeMap:
    """Deterministic addr -> asn mapping for unit tests."""

    def __init__(self, table):
        self.table = table

    def lookup(self, addr):
        return self.table.get(addr, UNKNOWN_ASN)


def path(hop_specs, vantage="v", dst=999):
    """hop_specs: list of (responder, quoted_ecn or None)."""
    trace = PathTrace(vantage_key=vantage, dst_addr=dst, sent_ecn=int(ECN.ECT_0))
    for ttl, (responder, quoted) in enumerate(hop_specs, start=1):
        trace.hops.append(
            HopObservation(
                ttl=ttl,
                responder=responder,
                sent_ecn=int(ECN.ECT_0),
                quoted_ecn=quoted,
            )
        )
    return trace


ECT = int(ECN.ECT_0)
CLEARED = int(ECN.NOT_ECT)


class TestClassifyPath:
    def test_clean_path_all_pass(self):
        classified = classify_path(
            path([(1, ECT), (2, ECT), (3, ECT)]),
            FakeMap({1: 10, 2: 10, 3: 20}),
        )
        assert [h.status for h in classified] == [PASS, PASS, PASS]

    def test_strip_then_downstream(self):
        """Runs of red: first cleared hop is the strip point, the rest
        are downstream."""
        classified = classify_path(
            path([(1, ECT), (2, CLEARED), (3, CLEARED)]),
            FakeMap({1: 10, 2: 20, 3: 20}),
        )
        assert [h.status for h in classified] == [PASS, STRIP, DOWNSTREAM]

    def test_flaky_upstream_recovery(self):
        """A pass after a strip resets attribution (sometimes-strip)."""
        classified = classify_path(
            path([(1, CLEARED), (2, ECT), (3, ECT)]),
            FakeMap({1: 10, 2: 10, 3: 10}),
        )
        assert [h.status for h in classified] == [STRIP, PASS, PASS]

    def test_boundary_annotation(self):
        classified = classify_path(
            path([(1, ECT), (2, CLEARED)]),
            FakeMap({1: 10, 2: 20}),
        )
        strip_hop = classified[1]
        assert strip_hop.status == STRIP
        assert strip_hop.at_as_boundary
        assert strip_hop.boundary_determinate

    def test_interior_strip_not_boundary(self):
        classified = classify_path(
            path([(1, ECT), (2, CLEARED)]),
            FakeMap({1: 10, 2: 10}),
        )
        assert not classified[1].at_as_boundary

    def test_unresponsive_hops_skipped(self):
        classified = classify_path(
            path([(1, ECT), (None, None), (3, ECT)]),
            FakeMap({1: 10, 3: 10}),
        )
        assert len(classified) == 2


class TestCampaignAnalysis:
    def _campaign(self):
        campaign = TracerouteCampaign()
        campaign.add(path([(1, ECT), (2, ECT), (3, ECT)]))          # clean
        campaign.add(path([(1, ECT), (4, CLEARED), (5, CLEARED)]))  # strip at 4
        campaign.add(path([(1, ECT), (4, ECT), (6, ECT)]))          # 4 passes here
        return campaign

    def _map(self):
        return FakeMap({1: 10, 2: 10, 3: 20, 4: 20, 5: 20, 6: 30})

    def test_hop_counts(self):
        analysis = analyze_campaign(self._campaign(), self._map())
        assert analysis.hops_measured == 9
        assert analysis.hops_passing == 7
        assert analysis.strip_events == 1
        assert [hop.status for hop in analysis.hops].count(DOWNSTREAM) == 1
        assert analysis.pct_hops_passing == pytest.approx(700 / 9)

    def test_paths_with_strip(self):
        analysis = analyze_campaign(self._campaign(), self._map())
        assert analysis.paths_total == 3
        assert analysis.paths_with_strip == 1

    def test_strip_locations(self):
        analysis = analyze_campaign(self._campaign(), self._map())
        assert analysis.strip_locations() == {4}

    def test_sometimes_strip_locations(self):
        """Responder 4 strips on one path, passes on another: it is a
        'sometimes strips' location (the paper's 125)."""
        analysis = analyze_campaign(self._campaign(), self._map())
        assert analysis.sometimes_strip_locations() == {4}

    def test_ases_observed(self):
        analysis = analyze_campaign(self._campaign(), self._map())
        assert analysis.ases_observed() == {10, 20, 30}

    def test_boundary_fraction(self):
        analysis = analyze_campaign(self._campaign(), self._map())
        fraction, boundary, determinate = analysis.boundary_strip_fraction()
        assert (boundary, determinate) == (1, 1)
        assert fraction == 1.0


class TestOnMeasuredStudy:
    def test_vast_majority_of_hops_pass(self, study_results):
        """Abstract: ~98% of hops pass ECT(0) unmodified."""
        world, _, campaign = study_results
        analysis = analyze_campaign(campaign, world.as_map)
        assert analysis.pct_hops_passing > 90.0
        assert analysis.strip_events > 0

    def test_strip_locations_confined_to_bleacher_ases(self, study_results):
        """Strip points localise to the bleachers' ASes.

        A *flaky* bleacher smears attribution downstream (the TTL=j
        probe may pass unbleached while the TTL=j+1 probe is bleached,
        so the first cleared quote appears one hop late) — the exact
        attribution ambiguity Malone & Luckie describe — but never
        outside the AS hosting the bleacher.
        """
        world, _, campaign = study_results
        analysis = analyze_campaign(campaign, world.as_map)
        bleacher_asns = {
            world.topology.routers[r].asn
            for r in world.ground_truth.bleacher_routers
        }
        for addr in analysis.strip_locations():
            assert world.as_map.lookup(addr) in bleacher_asns
        # And at least one true bleacher interface shows up directly.
        bleacher_addrs = {
            world.topology.routers[r].interface_addr
            for r in world.ground_truth.bleacher_routers
        }
        assert analysis.strip_locations() & bleacher_addrs

    def test_sometimes_strippers_trace_to_flaky_bleachers(self, study_results):
        """Sometimes-strip locations only arise from flaky bleachers
        (at the bleacher itself or smeared downstream in its AS)."""
        world, _, campaign = study_results
        analysis = analyze_campaign(campaign, world.as_map)
        flaky_asns = {
            world.topology.routers[r].asn
            for r in world.ground_truth.flaky_bleacher_routers
        }
        for addr in analysis.sometimes_strip_locations():
            assert world.as_map.lookup(addr) in flaky_asns

    def test_many_ases_observed(self, study_results):
        world, _, campaign = study_results
        analysis = analyze_campaign(campaign, world.as_map)
        stub_and_transit = sum(
            1
            for info in world.autonomous_systems
            if info.kind in ("transit", "stub", "vantage")
        )
        assert len(analysis.ases_observed()) >= stub_and_transit * 0.5

    def test_noisy_map_close_to_truth(self, study_results):
        """The noisy IP->AS mapping shifts boundary classification only
        modestly — the paper's caveat, quantified.

        Compared over *all* hops rather than just strip points: with a
        handful of strip locations the strip-level fraction is
        all-or-nothing under per-address noise, whereas the hop-level
        rate is statistically stable.
        """
        world, _, campaign = study_results

        def hop_boundary_rate(analysis):
            determinate = [h for h in analysis.hops if h.boundary_determinate]
            boundary = sum(1 for h in determinate if h.at_as_boundary)
            return boundary / len(determinate)

        truth = analyze_campaign(campaign, world.as_map)
        noisy = analyze_campaign(campaign, world.noisy_as_map)
        assert abs(hop_boundary_rate(truth) - hop_boundary_rate(noisy)) < 0.15
