"""§4.4 / Table 2: correlating UDP and TCP failures under ECN.

For each vantage: the average number of servers per trace that are
reachable with not-ECT UDP but not with ECT(0) UDP, and of those, how
many are reachable over TCP yet do not negotiate ECN.  The paper finds
the correlation weak — most ECT-UDP-blocked servers happily negotiate
ECN with TCP — which is its evidence for middleboxes that discriminate
on the transport protocol above the IP/ECN field.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..traces import TraceSet


@dataclass(frozen=True)
class CorrelationRow:
    """One row of Table 2."""

    vantage_key: str
    traces: int
    #: Average per-trace count of servers reachable via not-ECT UDP
    #: but not via ECT(0) UDP (column 2 of Table 2).
    avg_udp_ect_unreachable: float
    #: Of those, average count also reachable via TCP but unwilling to
    #: negotiate ECN (column 3).
    avg_fail_tcp_ecn: float
    #: Of those, average count that *do* negotiate ECN over TCP — the
    #: paper's "majority can be reached using ECN with TCP".
    avg_negotiate_tcp_ecn: float


@dataclass
class CorrelationTable:
    """The full Table 2."""

    rows: list[CorrelationRow]

    def row(self, vantage_key: str) -> CorrelationRow | None:
        for row in self.rows:
            if row.vantage_key == vantage_key:
                return row
        return None

    @property
    def overall_fraction_also_failing(self) -> float:
        """Pooled share of UDP-ECT-blocked servers refusing TCP ECN.

        Weak correlation means this stays well below one half.
        """
        unreachable = sum(r.avg_udp_ect_unreachable * r.traces for r in self.rows)
        failing = sum(r.avg_fail_tcp_ecn * r.traces for r in self.rows)
        return failing / unreachable if unreachable else 0.0


def analyze_correlation(trace_set: TraceSet) -> CorrelationTable:
    """Build Table 2 from a study."""
    rows: list[CorrelationRow] = []
    for vantage_key in trace_set.vantage_keys():
        traces = trace_set.by_vantage(vantage_key)
        unreachable_counts: list[int] = []
        failing_counts: list[int] = []
        negotiating_counts: list[int] = []
        for trace in traces:
            unreachable = [
                o
                for o in trace.outcomes.values()
                if o.udp_plain and not o.udp_ect
            ]
            unreachable_counts.append(len(unreachable))
            failing_counts.append(
                sum(1 for o in unreachable if o.tcp_plain and not o.ecn_negotiated)
            )
            negotiating_counts.append(
                sum(1 for o in unreachable if o.ecn_negotiated)
            )
        count = len(traces)
        rows.append(
            CorrelationRow(
                vantage_key=vantage_key,
                traces=count,
                avg_udp_ect_unreachable=sum(unreachable_counts) / count,
                avg_fail_tcp_ecn=sum(failing_counts) / count,
                avg_negotiate_tcp_ecn=sum(negotiating_counts) / count,
            )
        )
    return CorrelationTable(rows=rows)
