"""§4.3 / Figures 5 & 6: TCP reachability and ECN negotiation.

Figure 5 plots, per trace, how many of the pool hosts answer HTTP over
TCP and how many of those negotiate ECN when asked (paper averages:
1334 reachable, 1095 negotiating = 82.0 %).  Figure 6 places that
negotiation rate on the historical deployment curve from Medina (2000)
through Trammell (2014); :data:`HISTORICAL_STUDIES` encodes the prior
measurements the paper plots, and :func:`ecn_deployment_series`
appends our measured point.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...stats.timeseries import LogisticFit, fit_logistic
from ..traces import Trace, TraceSet


@dataclass(frozen=True)
class TraceTCPReachability:
    """The Figure 5 quantities for one trace."""

    trace_id: int
    vantage_key: str
    batch: int
    tcp_reachable: int
    ecn_negotiated: int

    @property
    def pct_negotiated(self) -> float | None:
        if self.tcp_reachable == 0:
            return None
        return 100.0 * self.ecn_negotiated / self.tcp_reachable


@dataclass
class TCPECNSummary:
    """Study-wide §4.3 aggregates."""

    per_trace: list[TraceTCPReachability]
    total_servers: int

    @property
    def avg_tcp_reachable(self) -> float:
        """Paper: 'on average, we are able to reach 1334 web servers'."""
        return _mean([t.tcp_reachable for t in self.per_trace])

    @property
    def avg_ecn_negotiated(self) -> float:
        """Paper: 'the average number ... was 1095'."""
        return _mean([t.ecn_negotiated for t in self.per_trace])

    @property
    def pct_negotiated(self) -> float:
        """Paper headline: 82.0 % of those reachable using TCP."""
        reachable = self.avg_tcp_reachable
        return 100.0 * self.avg_ecn_negotiated / reachable if reachable else 0.0

    def by_vantage(self) -> dict[str, list[TraceTCPReachability]]:
        grouped: dict[str, list[TraceTCPReachability]] = {}
        for record in self.per_trace:
            grouped.setdefault(record.vantage_key, []).append(record)
        return grouped


def trace_tcp_reachability(trace: Trace) -> TraceTCPReachability:
    """Compute the Figure 5 quantities for one trace."""
    return TraceTCPReachability(
        trace_id=trace.trace_id,
        vantage_key=trace.vantage_key,
        batch=trace.batch,
        tcp_reachable=trace.count_tcp_plain(),
        ecn_negotiated=trace.count_ecn_negotiated(),
    )


def analyze_tcp_ecn(trace_set: TraceSet) -> TCPECNSummary:
    """Run the §4.3 analysis over a whole study."""
    return TCPECNSummary(
        per_trace=[trace_tcp_reachability(trace) for trace in trace_set],
        total_servers=len(trace_set.server_addrs),
    )


# ----------------------------------------------------------------------
# Figure 6: the deployment time series
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HistoricalStudy:
    """One prior measurement of TCP servers willing to negotiate ECN."""

    year: float
    pct_negotiated: float
    label: str


#: The prior studies Figure 6 plots, as cited in §4.3 / §5.
HISTORICAL_STUDIES: tuple[HistoricalStudy, ...] = (
    HistoricalStudy(2000.5, 0.1, "Medina"),
    HistoricalStudy(2004.5, 1.1, "Medina"),
    HistoricalStudy(2008.7, 1.0, "Langley"),
    HistoricalStudy(2011.8, 17.2, "Bauer"),
    HistoricalStudy(2012.3, 25.16, "Kuhlewind"),
    HistoricalStudy(2012.6, 29.48, "Kuhlewind"),
    HistoricalStudy(2014.7, 56.17, "Trammell"),
)

#: When the paper's own measurement was taken.
MEASUREMENT_YEAR = 2015.5


def ecn_deployment_series(
    measured_pct: float,
    measured_year: float = MEASUREMENT_YEAR,
) -> list[HistoricalStudy]:
    """The Figure 6 point set: history plus our measured value."""
    return list(HISTORICAL_STUDIES) + [
        HistoricalStudy(measured_year, measured_pct, "measured")
    ]


def fit_deployment_trend(
    series: list[HistoricalStudy] | None = None,
) -> LogisticFit:
    """Fit a logistic adoption curve to the deployment series.

    The paper eyeballs that its measurement sits "on a growth curve
    that looks to be in line with previous results"; the fit makes
    that checkable: tests assert the measured point's residual is
    within the curve's tolerance band.
    """
    points = series if series is not None else list(HISTORICAL_STUDIES)
    years = [p.year for p in points]
    values = [p.pct_negotiated for p in points]
    return fit_logistic(years, values, ceiling=100.0)


def _mean(values: list[float]) -> float:
    if not values:
        raise ValueError("mean of empty list")
    return sum(values) / len(values)
