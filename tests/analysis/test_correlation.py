"""Tests for the §4.4 / Table 2 UDP-TCP correlation analysis."""

import pytest

from repro.core.analysis.correlation import analyze_correlation
from repro.core.traces import ProbeOutcome, Trace, TraceSet


def trace_with(trace_id, vantage, rows):
    """rows: (plain, ect, tcp, negotiated) per server."""
    trace = Trace(trace_id=trace_id, vantage_key=vantage, batch=1, started_at=0.0)
    for addr, (plain, ect, tcp, neg) in enumerate(rows, start=1):
        trace.add(
            ProbeOutcome(
                server_addr=addr,
                udp_plain=plain,
                udp_ect=ect,
                tcp_plain=tcp,
                tcp_ecn=tcp,
                ecn_negotiated=neg,
            )
        )
    return trace


class TestRows:
    def test_counts(self):
        ts = TraceSet(server_addrs=[1, 2, 3])
        # Server 1: ECT-blocked but negotiates over TCP.
        # Server 2: ECT-blocked, TCP reachable, refuses ECN.
        # Server 3: fine.
        ts.add(
            trace_with(
                0,
                "v",
                [
                    (True, False, True, True),
                    (True, False, True, False),
                    (True, True, True, True),
                ],
            )
        )
        table = analyze_correlation(ts)
        row = table.row("v")
        assert row.avg_udp_ect_unreachable == pytest.approx(2.0)
        assert row.avg_fail_tcp_ecn == pytest.approx(1.0)
        assert row.avg_negotiate_tcp_ecn == pytest.approx(1.0)
        assert row.avg_fail_tcp_ecn / row.avg_udp_ect_unreachable == pytest.approx(0.5)

    def test_averaging_over_traces(self):
        ts = TraceSet(server_addrs=[1])
        ts.add(trace_with(0, "v", [(True, False, True, False)]))
        ts.add(trace_with(1, "v", [(True, True, True, True)]))
        row = analyze_correlation(ts).row("v")
        assert row.avg_udp_ect_unreachable == pytest.approx(0.5)
        assert row.traces == 2

    def test_missing_vantage(self):
        ts = TraceSet(server_addrs=[1])
        ts.add(trace_with(0, "v", [(True, True, True, True)]))
        assert analyze_correlation(ts).row("other") is None

    def test_overall_fraction(self):
        ts = TraceSet(server_addrs=[1, 2])
        ts.add(
            trace_with(
                0, "a", [(True, False, True, True), (True, False, True, False)]
            )
        )
        table = analyze_correlation(ts)
        assert table.overall_fraction_also_failing == pytest.approx(0.5)


class TestOnMeasuredStudy:
    def test_weak_correlation(self, study_results):
        """§4.4's headline: most ECT-UDP-blocked servers still
        negotiate ECN over TCP."""
        _, trace_set, _ = study_results
        table = analyze_correlation(trace_set)
        assert table.overall_fraction_also_failing < 0.5

    def test_mcquistin_row_dominates(self, study_results):
        """Table 2: McQuistin home has an order of magnitude more
        ECT-unreachable servers than any other vantage."""
        _, trace_set, _ = study_results
        table = analyze_correlation(trace_set)
        mcquistin = table.row("mcquistin-home")
        others = [
            row.avg_udp_ect_unreachable
            for row in table.rows
            if row.vantage_key != "mcquistin-home"
        ]
        assert mcquistin.avg_udp_ect_unreachable > 2.5 * max(others)

    def test_every_vantage_has_a_row(self, study_results):
        world, trace_set, _ = study_results
        table = analyze_correlation(trace_set)
        assert {row.vantage_key for row in table.rows} == set(world.vantage_hosts)

    def test_majority_negotiate_despite_udp_block(self, study_results):
        _, trace_set, _ = study_results
        table = analyze_correlation(trace_set)
        negotiating = sum(r.avg_negotiate_tcp_ecn * r.traces for r in table.rows)
        failing = sum(r.avg_fail_tcp_ecn * r.traces for r in table.rows)
        assert negotiating > failing
