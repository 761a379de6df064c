"""Tests for the §4.3 / Figures 5-6 TCP/ECN analysis."""

import pytest

from repro.core.analysis.tcp_ecn import (
    HISTORICAL_STUDIES,
    MEASUREMENT_YEAR,
    analyze_tcp_ecn,
    ecn_deployment_series,
    fit_deployment_trend,
    trace_tcp_reachability,
)
from repro.core.traces import ProbeOutcome, Trace, TraceSet


def synthetic_trace(trace_id, vantage, rows):
    """rows: list of (tcp_ok, negotiated)."""
    trace = Trace(trace_id=trace_id, vantage_key=vantage, batch=1, started_at=0.0)
    for addr, (tcp, neg) in enumerate(rows, start=1):
        trace.add(
            ProbeOutcome(
                server_addr=addr,
                tcp_plain=tcp,
                tcp_ecn=tcp,
                ecn_negotiated=neg,
            )
        )
    return trace


class TestTraceQuantities:
    def test_counts(self):
        trace = synthetic_trace(
            0, "v", [(True, True), (True, False), (False, False)]
        )
        record = trace_tcp_reachability(trace)
        assert record.tcp_reachable == 2
        assert record.ecn_negotiated == 1
        assert record.tcp_reachable - record.ecn_negotiated == 1
        assert record.pct_negotiated == pytest.approx(50.0)

    def test_empty_pct_is_none(self):
        record = trace_tcp_reachability(synthetic_trace(0, "v", [(False, False)]))
        assert record.pct_negotiated is None


class TestSummary:
    def test_averages(self):
        ts = TraceSet(server_addrs=[1, 2, 3])
        ts.add(synthetic_trace(0, "a", [(True, True), (True, True), (False, False)]))
        ts.add(synthetic_trace(1, "b", [(True, False), (True, True), (True, True)]))
        summary = analyze_tcp_ecn(ts)
        assert summary.avg_tcp_reachable == pytest.approx(2.5)
        assert summary.avg_ecn_negotiated == pytest.approx(2.0)
        assert summary.pct_negotiated == pytest.approx(80.0)


class TestHistoricalSeries:
    def test_monotone_growth_in_history(self):
        values = [p.pct_negotiated for p in HISTORICAL_STUDIES]
        # Not strictly monotone (Langley 2008 < Medina 2004 is false
        # here), but the overall trend rises strongly.
        assert values[-1] > values[0]
        assert values[-1] == 56.17  # Trammell 2014

    def test_series_appends_measurement(self):
        series = ecn_deployment_series(82.0)
        assert series[-1].label == "measured"
        assert series[-1].year == MEASUREMENT_YEAR
        assert series[-1].pct_negotiated == 82.0
        assert len(series) == len(HISTORICAL_STUDIES) + 1

    def test_trend_fit_predicts_growth(self):
        fit = fit_deployment_trend()
        assert fit.predict(2015.5) > fit.predict(2012.0) > fit.predict(2008.0)

    def test_measured_point_above_but_near_trend(self):
        """§4.3: 'a significant increase ... but on a growth curve that
        looks to be in line with previous results'."""
        fit = fit_deployment_trend()
        residual = fit.residual(MEASUREMENT_YEAR, 82.0)
        assert residual > 0  # above the prior-studies extrapolation
        assert residual < 35  # ... but not absurdly so


class TestOnMeasuredStudy:
    def test_negotiation_rate_matches_paper(self, study_results):
        _, trace_set, _ = study_results
        summary = analyze_tcp_ecn(trace_set)
        # Paper: 82.0%; deployment mix is calibrated to that.
        assert 75.0 < summary.pct_negotiated < 89.0

    def test_tcp_reachability_well_below_udp(self, study_results):
        """Paper: 1334 web servers vs 2253 NTP responders."""
        from repro.core.analysis.reachability import analyze_reachability

        _, trace_set, _ = study_results
        tcp = analyze_tcp_ecn(trace_set)
        udp = analyze_reachability(trace_set)
        assert tcp.avg_tcp_reachable < 0.75 * udp.avg_udp_plain

    def test_little_variation_between_traces(self, study_results):
        """Paper: 'there is little variation in reachability between
        traces' for TCP."""
        _, trace_set, _ = study_results
        summary = analyze_tcp_ecn(trace_set)
        counts = [t.tcp_reachable for t in summary.per_trace]
        spread = max(counts) - min(counts)
        assert spread <= max(3, 0.05 * summary.avg_tcp_reachable)

    def test_web_reachability_fraction(self, study_results):
        world, trace_set, _ = study_results
        summary = analyze_tcp_ecn(trace_set)
        deployed = sum(1 for s in world.servers if s.web is not None)
        # Online web servers respond reliably; offline hosts don't.
        assert summary.avg_tcp_reachable <= deployed
        assert summary.avg_tcp_reachable >= 0.75 * deployed
