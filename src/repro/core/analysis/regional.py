"""Regional breakdown of ECN reachability (extension analysis).

The paper reports reachability pooled over all servers; with Table 1's
regional classification in hand, the same measurements split by
continent — does ECT(0) blocking concentrate geographically?  In the
calibrated scenario (as, plausibly, in the wild) blocking follows
specific networks rather than regions, so regional deficits stay
small everywhere; this analysis makes that checkable and gives the
reporting layer a Table-1-shaped view of §4.1.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...geo.database import GeoDatabase
from ...geo.regions import Region
from ..traces import TraceSet


@dataclass(frozen=True)
class RegionalReachability:
    """§4.1 quantities restricted to one region's servers."""

    region: Region
    servers: int
    #: Mean per-trace count of this region's servers reachable via
    #: not-ECT UDP.
    avg_plain_reachable: float
    #: Mean per-trace count reachable via ECT(0) UDP.
    avg_ect_reachable: float
    #: Of the plain-reachable, the share also ECT-reachable (pooled).
    pct_ect_given_plain: float | None


def analyze_regional(
    trace_set: TraceSet, database: GeoDatabase
) -> list[RegionalReachability]:
    """Split the §4.1 reachability analysis by region.

    Regions with no servers are omitted; rows come back in Table 1
    order.
    """
    region_of = {addr: database.lookup(addr).region for addr in trace_set.server_addrs}
    members: dict[Region, int] = {}
    for region in region_of.values():
        members[region] = members.get(region, 0) + 1

    plain_counts: dict[Region, int] = {}
    ect_counts: dict[Region, int] = {}
    both_counts: dict[Region, int] = {}
    for trace in trace_set:
        for outcome in trace.outcomes.values():
            region = region_of.get(outcome.server_addr)
            if region is None:
                continue
            if outcome.udp_plain:
                plain_counts[region] = plain_counts.get(region, 0) + 1
                if outcome.udp_ect:
                    both_counts[region] = both_counts.get(region, 0) + 1
            if outcome.udp_ect:
                ect_counts[region] = ect_counts.get(region, 0) + 1

    n_traces = max(len(trace_set), 1)
    rows = []
    for region in Region.ordered():
        if region not in members:
            continue
        plain = plain_counts.get(region, 0)
        both = both_counts.get(region, 0)
        rows.append(
            RegionalReachability(
                region=region,
                servers=members[region],
                avg_plain_reachable=plain / n_traces,
                avg_ect_reachable=ect_counts.get(region, 0) / n_traces,
                pct_ect_given_plain=(100.0 * both / plain) if plain else None,
            )
        )
    return rows
