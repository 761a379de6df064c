"""§4.1 / Figure 2: UDP reachability with and without ECT(0).

Computes, per trace, the two percentages plotted in Figure 2 (of the
servers reachable with not-ECT marked packets, how many are also
reachable with ECT(0); and the converse), and the study-wide averages
the paper headlines: 98.97 %, 99.45 %, and 2253 of 2500 servers
reachable on average.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..traces import Trace, TraceSet


@dataclass(frozen=True)
class TraceReachability:
    """The Figure 2 quantities for one trace."""

    trace_id: int
    vantage_key: str
    batch: int
    udp_plain: int
    udp_ect: int
    udp_both: int

    @property
    def pct_ect_given_plain(self) -> float | None:
        """Figure 2a bar height."""
        return 100.0 * self.udp_both / self.udp_plain if self.udp_plain else None

    @property
    def pct_plain_given_ect(self) -> float | None:
        """Figure 2b bar height."""
        return 100.0 * self.udp_both / self.udp_ect if self.udp_ect else None


@dataclass
class ReachabilitySummary:
    """Study-wide aggregates for §4.1."""

    per_trace: list[TraceReachability]
    total_servers: int

    @property
    def avg_udp_plain(self) -> float:
        """Paper: 'an average of 2253 servers ... are reachable'."""
        return _mean([t.udp_plain for t in self.per_trace])

    @property
    def avg_pct_ect_given_plain(self) -> float:
        """Paper headline: 98.97 %."""
        return _mean(
            [t.pct_ect_given_plain for t in self.per_trace if t.pct_ect_given_plain is not None]
        )

    @property
    def avg_pct_plain_given_ect(self) -> float:
        """Paper: 99.45 %."""
        return _mean(
            [t.pct_plain_given_ect for t in self.per_trace if t.pct_plain_given_ect is not None]
        )

    @property
    def min_pct_ect_given_plain(self) -> float:
        """The paper notes the 2a fraction 'is always above 90 %'."""
        return min(
            t.pct_ect_given_plain for t in self.per_trace if t.pct_ect_given_plain is not None
        )

    def by_vantage(self) -> dict[str, list[TraceReachability]]:
        """Per-vantage trace lists, in first-appearance order."""
        grouped: dict[str, list[TraceReachability]] = {}
        for record in self.per_trace:
            grouped.setdefault(record.vantage_key, []).append(record)
        return grouped

    def vantage_avg_pct(self, which: str = "a") -> dict[str, float]:
        """Per-vantage mean of the 2a (or 2b) percentage."""
        result: dict[str, float] = {}
        for key, records in self.by_vantage().items():
            values = [
                (r.pct_ect_given_plain if which == "a" else r.pct_plain_given_ect)
                for r in records
            ]
            values = [v for v in values if v is not None]
            if values:
                result[key] = _mean(values)
        return result

    def batch_avg_reachable(self) -> dict[int, float]:
        """Mean not-ECT reachability per batch.

        The paper observes the early (batch 1) traces reach more
        servers than the July/August ones, attributing the gap to pool
        churn; this lets callers check the same effect.
        """
        result: dict[int, float] = {}
        for batch in sorted({t.batch for t in self.per_trace}):
            counts = [t.udp_plain for t in self.per_trace if t.batch == batch]
            result[batch] = _mean(counts)
        return result


def trace_reachability(trace: Trace) -> TraceReachability:
    """Compute the Figure 2 quantities for one trace."""
    return TraceReachability(
        trace_id=trace.trace_id,
        vantage_key=trace.vantage_key,
        batch=trace.batch,
        udp_plain=trace.count_udp_plain(),
        udp_ect=trace.count_udp_ect(),
        udp_both=trace.count_udp_both(),
    )


def analyze_reachability(trace_set: TraceSet) -> ReachabilitySummary:
    """Run the §4.1 analysis over a whole study."""
    return ReachabilitySummary(
        per_trace=[trace_reachability(trace) for trace in trace_set],
        total_servers=len(trace_set.server_addrs),
    )


def _mean(values: list[float]) -> float:
    if not values:
        raise ValueError("mean of empty list")
    return sum(values) / len(values)
