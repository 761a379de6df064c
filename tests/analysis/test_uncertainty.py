"""Tests for the bootstrap uncertainty analysis."""

import pytest

from repro.core.analysis.uncertainty import headline_intervals
from repro.core.traces import ProbeOutcome, Trace, TraceSet


def uniform_trace_set(n_traces=8, n_servers=20, ect_fail=1):
    ts = TraceSet(server_addrs=list(range(1, n_servers + 1)))
    for trace_id in range(n_traces):
        trace = Trace(trace_id=trace_id, vantage_key="v", batch=1, started_at=0.0)
        for addr in range(1, n_servers + 1):
            trace.add(
                ProbeOutcome(
                    server_addr=addr,
                    udp_plain=True,
                    udp_ect=addr > ect_fail,
                    tcp_plain=addr % 2 == 0,
                    tcp_ecn=addr % 2 == 0,
                    ecn_negotiated=addr % 4 == 0,
                )
            )
        ts.add(trace)
    return ts


class TestHeadlineIntervals:
    def test_estimates_match_point_statistics(self):
        ts = uniform_trace_set()
        intervals = headline_intervals(ts)
        assert intervals.pct_ect_given_plain.estimate == pytest.approx(95.0)
        assert intervals.udp_plain_reachable.estimate == pytest.approx(20.0)
        assert intervals.pct_ecn_negotiated.estimate == pytest.approx(50.0)

    def test_zero_variance_gives_tight_interval(self):
        ts = uniform_trace_set()
        intervals = headline_intervals(ts)
        ci = intervals.pct_ect_given_plain
        assert ci.low == pytest.approx(ci.high)

    def test_deterministic(self):
        ts = uniform_trace_set()
        a = headline_intervals(ts)
        b = headline_intervals(ts)
        assert a.pct_ecn_negotiated.low == b.pct_ecn_negotiated.low

    def test_summary_lines(self):
        lines = headline_intervals(uniform_trace_set()).summary_lines()
        assert len(lines) == 4
        assert any("ECT-given-plain" in line for line in lines)
        assert all("CI" in line for line in lines)


class TestOnMeasuredStudy:
    def test_intervals_bracket_estimates(self, study_results):
        _, trace_set, _ = study_results
        intervals = headline_intervals(trace_set)
        for ci in (
            intervals.pct_ect_given_plain,
            intervals.pct_plain_given_ect,
            intervals.udp_plain_reachable,
            intervals.pct_ecn_negotiated,
        ):
            assert ci.low <= ci.estimate <= ci.high

    def test_intervals_are_informative(self, study_results):
        """The CI for the 2a percentage stays in the high 90s — the
        paper's conclusion is robust over trace resampling."""
        _, trace_set, _ = study_results
        intervals = headline_intervals(trace_set)
        assert intervals.pct_ect_given_plain.low > 90.0
        assert intervals.pct_ecn_negotiated.low > 70.0
        assert intervals.pct_ecn_negotiated.high < 95.0
