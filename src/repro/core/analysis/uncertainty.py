"""Uncertainty quantification for the headline numbers.

The paper reports point averages over its 210 traces (98.97 %, 82.0 %,
...).  With the trace set in hand we can do slightly better than the
paper did: percentile-bootstrap confidence intervals over traces,
which is the right resampling unit because traces are the independent
repetitions of the experiment (servers within a trace share fate
through the vantage's access network).
"""

from __future__ import annotations

from dataclasses import dataclass

from ...stats.summaries import ConfidenceInterval, bootstrap_ci
from .reachability import analyze_reachability
from .tcp_ecn import analyze_tcp_ecn
from ..traces import TraceSet


@dataclass(frozen=True)
class HeadlineIntervals:
    """Bootstrap CIs for the abstract's four scalars (per-trace units)."""

    pct_ect_given_plain: ConfidenceInterval
    pct_plain_given_ect: ConfidenceInterval
    udp_plain_reachable: ConfidenceInterval
    pct_ecn_negotiated: ConfidenceInterval

    def summary_lines(self) -> list[str]:
        """Human-readable rendering for reports."""

        def fmt(name: str, ci: ConfidenceInterval, unit: str = "%") -> str:
            return (
                f"{name}: {ci.estimate:.2f}{unit} "
                f"[{ci.low:.2f}, {ci.high:.2f}] ({ci.confidence:.0%} CI)"
            )

        return [
            fmt("ECT-given-plain reachability", self.pct_ect_given_plain),
            fmt("plain-given-ECT reachability", self.pct_plain_given_ect),
            fmt("servers reachable (not-ECT)", self.udp_plain_reachable, unit=""),
            fmt("TCP ECN negotiation", self.pct_ecn_negotiated),
        ]


def headline_intervals(trace_set: TraceSet) -> HeadlineIntervals:
    """Bootstrap 95 % intervals for the four headline statistics over traces."""
    reach = analyze_reachability(trace_set)
    tcp = analyze_tcp_ecn(trace_set)

    pct_a = [
        t.pct_ect_given_plain
        for t in reach.per_trace
        if t.pct_ect_given_plain is not None
    ]
    pct_b = [
        t.pct_plain_given_ect
        for t in reach.per_trace
        if t.pct_plain_given_ect is not None
    ]
    plain_counts = [float(t.udp_plain) for t in reach.per_trace]
    pct_neg = [
        t.pct_negotiated for t in tcp.per_trace if t.pct_negotiated is not None
    ]
    return HeadlineIntervals(
        pct_ect_given_plain=bootstrap_ci(pct_a, seed=0),
        pct_plain_given_ect=bootstrap_ci(pct_b, seed=1),
        udp_plain_reachable=bootstrap_ci(plain_counts, seed=2),
        pct_ecn_negotiated=bootstrap_ci(pct_neg, seed=3),
    )
