"""Tests for the regional reachability breakdown."""

import pytest

from repro.core.analysis.regional import analyze_regional
from repro.core.traces import ProbeOutcome, Trace, TraceSet
from repro.geo.database import GeoDatabase
from repro.geo.regions import COUNTRIES, Region
from repro.netsim.ipv4 import Prefix, parse_addr


def country_by_code(code):
    return next(country for country in COUNTRIES if country.code == code)


def small_db():
    db = GeoDatabase()
    db.register_country(Prefix(parse_addr("62.0.0.0"), 16), country_by_code("de"))
    db.register_country(Prefix(parse_addr("24.0.0.0"), 16), country_by_code("us"))
    return db


def make_trace_set():
    eu1, eu2 = parse_addr("62.0.0.1"), parse_addr("62.0.0.2")
    na = parse_addr("24.0.0.1")
    ts = TraceSet(server_addrs=[eu1, eu2, na])
    for trace_id in range(2):
        trace = Trace(trace_id=trace_id, vantage_key="v", batch=1, started_at=0.0)
        trace.add(ProbeOutcome(server_addr=eu1, udp_plain=True, udp_ect=True))
        # eu2 is ECT-blocked.
        trace.add(ProbeOutcome(server_addr=eu2, udp_plain=True, udp_ect=False))
        trace.add(ProbeOutcome(server_addr=na, udp_plain=True, udp_ect=True))
        ts.add(trace)
    return ts


class TestRegionalBreakdown:
    def test_rows_in_table1_order(self):
        rows = analyze_regional(make_trace_set(), small_db())
        assert [r.region for r in rows] == [Region.EUROPE, Region.NORTH_AMERICA]

    def test_counts_and_percentages(self):
        rows = analyze_regional(make_trace_set(), small_db())
        europe = rows[0]
        assert europe.servers == 2
        assert europe.avg_plain_reachable == pytest.approx(2.0)
        assert europe.avg_ect_reachable == pytest.approx(1.0)
        assert europe.pct_ect_given_plain == pytest.approx(50.0)
        assert 100.0 - europe.pct_ect_given_plain == pytest.approx(50.0)
        america = rows[1]
        assert america.pct_ect_given_plain == pytest.approx(100.0)
        assert 100.0 - america.pct_ect_given_plain == 0.0

    def test_empty_trace_set(self):
        ts = TraceSet(server_addrs=[parse_addr("62.0.0.1")])
        rows = analyze_regional(ts, small_db())
        assert rows[0].avg_plain_reachable == 0.0
        assert rows[0].pct_ect_given_plain is None


class TestOnMeasuredStudy:
    def test_regions_cover_all_servers(self, study_results):
        world, trace_set, _ = study_results
        rows = analyze_regional(trace_set, world.geo)
        assert sum(r.servers for r in rows) == len(trace_set.server_addrs)

    def test_no_region_shows_extreme_deficit(self, study_results):
        """Blocking follows networks, not continents: every region's
        ECT deficit stays modest."""
        world, trace_set, _ = study_results
        rows = analyze_regional(trace_set, world.geo)
        for row in rows:
            if row.servers >= 5 and row.pct_ect_given_plain is not None:
                assert 100.0 - row.pct_ect_given_plain < 25.0

    def test_overall_consistency_with_global_analysis(self, study_results):
        from repro.core.analysis.reachability import analyze_reachability

        world, trace_set, _ = study_results
        rows = analyze_regional(trace_set, world.geo)
        reach = analyze_reachability(trace_set)
        regional_total = sum(r.avg_plain_reachable for r in rows)
        assert regional_total == pytest.approx(reach.avg_udp_plain, rel=1e-9)
