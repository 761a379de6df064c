"""Assembles the paper's tables and figures as text reports.

Every ``render_*`` function takes the corresponding analysis output
and produces the text artefact; :func:`full_report` strings them all
together — this is what ``python -m repro report`` prints and what
EXPERIMENTS.md quotes.
"""

from __future__ import annotations

from ..core.analysis.correlation import CorrelationTable
from ..core.analysis.differential import DifferentialAnalysis
from ..core.analysis.geographic import GeographicDistribution
from ..core.analysis.pathanalysis import PathAnalysis
from ..core.analysis.quic_ecn import QUICECNSummary
from ..core.analysis.reachability import ReachabilitySummary
from ..core.analysis.tcp_ecn import (
    TCPECNSummary,
    ecn_deployment_series,
    fit_deployment_trend,
)
from ..core.traces import TracerouteCampaign
from ..scenario.vantages import VANTAGES
from .figures import (
    bar_chart,
    per_trace_bars,
    spike_plot,
    time_series,
    traceroute_tree,
    world_map,
)
from .tables import render_table

#: Paper-order vantage keys and their short figure labels.
_VANTAGE_LABELS = {spec.key: spec.table_label for spec in VANTAGES}


def _ordered_keys(present: list[str]) -> list[str]:
    """Vantages in the paper's figure order, filtered to those present."""
    ordered = [spec.key for spec in VANTAGES if spec.key in present]
    extras = [key for key in present if key not in ordered]
    return ordered + extras


def render_table1(geo: GeographicDistribution) -> str:
    """Table 1: geographic distribution of NTP pool servers."""
    return render_table(
        ("Region", "NTP Server Count"),
        geo.table_rows(),
        title="Table 1: Geographic distribution of NTP pool servers",
        align_right=(1,),
    )


def render_figure1(geo: GeographicDistribution) -> str:
    """Figure 1: world map of server locations."""
    points = [(p.latitude, p.longitude) for p in geo.points]
    return (
        "Figure 1: Geographic locations of NTP pool servers\n"
        + world_map(points)
    )


def render_figure2(summary: ReachabilitySummary) -> str:
    """Figure 2: per-vantage UDP reachability percentages."""
    keys = _ordered_keys(list(summary.by_vantage().keys()))
    avg_a = summary.vantage_avg_pct("a")
    avg_b = summary.vantage_avg_pct("b")
    labels = [_VANTAGE_LABELS.get(key, key) for key in keys]
    part_a = bar_chart(
        labels,
        [avg_a.get(key, 0.0) for key in keys],
        unit="%",
        floor=90.0,
        ceiling=100.0,
    )
    part_b = bar_chart(
        labels,
        [avg_b.get(key, 0.0) for key in keys],
        unit="%",
        floor=90.0,
        ceiling=100.0,
    )
    grouped = summary.by_vantage()
    trace_groups = [
        (
            _VANTAGE_LABELS.get(key, key),
            [
                record.pct_ect_given_plain
                for record in grouped[key]
                if record.pct_ect_given_plain is not None
            ],
        )
        for key in keys
    ]
    per_trace = per_trace_bars(trace_groups)
    return (
        "Figure 2a: % of not-ECT-reachable servers also reachable with ECT(0)\n"
        f"{part_a}\n\n"
        "Figure 2a, one bar per trace (paper rendering):\n"
        f"{per_trace}\n\n"
        "Figure 2b: % of ECT(0)-reachable servers also reachable with not-ECT\n"
        f"{part_b}"
    )


def render_figure3(
    analysis_a: DifferentialAnalysis, analysis_b: DifferentialAnalysis
) -> str:
    """Figure 3: per-server differential reachability spike plots."""
    lines = ["Figure 3a: reachable by not-ECT but not ECT(0) (one column per server)"]
    for key in _ordered_keys(analysis_a.vantage_keys):
        lines.append(
            spike_plot(
                analysis_a.fractions_for_vantage(key),
                height_label=f"{_VANTAGE_LABELS.get(key, key):>18}",
            )
        )
    lines.append("")
    lines.append("Figure 3b: reachable by ECT(0) but not by not-ECT")
    for key in _ordered_keys(analysis_b.vantage_keys):
        lines.append(
            spike_plot(
                analysis_b.fractions_for_vantage(key),
                height_label=f"{_VANTAGE_LABELS.get(key, key):>18}",
            )
        )
    return "\n".join(lines)


def render_figure4(campaign: TracerouteCampaign, analysis: PathAnalysis) -> str:
    """Figure 4: sample traceroutes with strip runs, plus §4.2 stats."""
    sample = []
    # Prefer paths that show a strip (the figure's point), then fill
    # with clean paths.
    with_strip = [p for p in campaign if p.first_strip_ttl() is not None]
    clean = [p for p in campaign if p.first_strip_ttl() is None]
    for path in (with_strip + clean)[:24]:
        sample.append(
            [
                (hop.responder, bool(hop.mark_preserved))
                for hop in path.responding_hops()
            ]
        )
    fraction, boundary, determinate = analysis.boundary_strip_fraction()
    stats = (
        f"hops measured: {analysis.hops_measured}, "
        f"passing ECT(0): {analysis.hops_passing} ({analysis.pct_hops_passing:.2f}%)\n"
        f"strip events: {analysis.strip_events} at "
        f"{len(analysis.strip_locations())} locations "
        f"({len(analysis.sometimes_strip_locations())} only sometimes strip)\n"
        f"strip locations at AS boundaries: {fraction:.1%} "
        f"({boundary}/{determinate} determinate)\n"
        f"ASes observed: {len(analysis.ases_observed())}"
    )
    return (
        "Figure 4: sample traceroutes (o = ECT(0) intact, X = mark missing)\n"
        + traceroute_tree(sample)
        + "\n\n"
        + stats
    )


def render_figure5(summary: TCPECNSummary) -> str:
    """Figure 5: TCP reachability and ECN negotiation per vantage."""
    keys = _ordered_keys(list(summary.by_vantage().keys()))
    grouped = summary.by_vantage()
    labels = [_VANTAGE_LABELS.get(key, key) for key in keys]
    reachable = [
        sum(t.tcp_reachable for t in grouped[key]) / len(grouped[key]) for key in keys
    ]
    negotiated = [
        sum(t.ecn_negotiated for t in grouped[key]) / len(grouped[key]) for key in keys
    ]
    ceiling = float(summary.total_servers)
    part_reach = bar_chart(labels, reachable, floor=0.0, ceiling=ceiling)
    part_neg = bar_chart(labels, negotiated, floor=0.0, ceiling=ceiling)
    return (
        "Figure 5: web servers reachable using TCP (top) and negotiating ECN (bottom)\n"
        f"{part_reach}\n\n{part_neg}\n\n"
        f"average reachable: {summary.avg_tcp_reachable:.0f} of {summary.total_servers}; "
        f"negotiating ECN: {summary.avg_ecn_negotiated:.0f} "
        f"({summary.pct_negotiated:.1f}% of TCP-reachable)"
    )


def render_figure6(measured_pct: float) -> str:
    """Figure 6: ECN TCP capability trend, history plus our point."""
    series = ecn_deployment_series(measured_pct)
    fit = fit_deployment_trend()
    plotted = [(p.year, p.pct_negotiated, p.label) for p in series]
    residual = fit.residual(series[-1].year, measured_pct)
    return (
        "Figure 6: Trends in ECN TCP capability (letters = study initials)\n"
        + time_series(plotted)
        + f"\nlogistic trend (fit on prior studies): midpoint {fit.midpoint:.1f}, "
        f"rate {fit.rate:.2f}; measured 2015 point sits {residual:+.1f} pp "
        "versus the extrapolated curve"
    )


def render_table2(table: CorrelationTable) -> str:
    """Table 2: UDP vs TCP reachability correlation."""
    rows = []
    for key in _ordered_keys([row.vantage_key for row in table.rows]):
        row = table.row(key)
        if row is None:
            continue
        rows.append(
            (
                _VANTAGE_LABELS.get(key, key),
                f"{row.avg_udp_ect_unreachable:.0f}",
                f"{row.avg_fail_tcp_ecn:.0f}",
            )
        )
    return render_table(
        ("Location", "Avg unreachable UDP w/ECT", "Fail to negotiate ECN w/TCP"),
        rows,
        title="Table 2: Correlation between UDP and TCP reachability",
        align_right=(1, 2),
    )


def render_quic_table(summary: QUICECNSummary) -> str:
    """Extension table: QUIC §13.4 validation vs raw-UDP reachability.

    One row per validation state, cross-tabulated with how often the
    *same* probe pair found the server reachable with raw ECT(0) UDP —
    the column that shows bleaching is invisible to reachability-only
    probing while blackholing is the one failure it can see.
    """

    def pct(value: float | None) -> str:
        return f"{value:.2f}" if value is not None else "-"

    rows = [
        (
            row.state,
            row.observations,
            f"{row.pct_of_total:.2f}",
            pct(row.raw_ect_reachable_pct),
            pct(row.raw_plain_reachable_pct),
            row.servers_dominant,
        )
        for row in summary.rows
    ]
    table = render_table(
        (
            "Validation state",
            "Probes",
            "% of probes",
            "Raw ECT reach %",
            "Raw plain reach %",
            "Servers (dominant)",
        ),
        rows,
        title="Extension: QUIC ECN validation (RFC 9000 §13.4) vs raw UDP",
        align_right=(1, 2, 3, 4, 5),
    )
    dominance = (
        "bleaching dominates blackholing"
        if summary.bleaching_dominates
        else "blackholing is at least as common as bleaching"
    )
    return (
        f"{table}\n"
        f"ECN usable after validation: {summary.pct_ecn_usable:.2f}% of probes\n"
        f"bleached {summary.pct_bleached:.2f}% vs blackholed "
        f"{summary.pct_blackholed:.2f}%: {dominance}"
    )


def full_report(
    geo: GeographicDistribution,
    reachability: ReachabilitySummary,
    differential_a: DifferentialAnalysis,
    differential_b: DifferentialAnalysis,
    tcp: TCPECNSummary,
    campaign: TracerouteCampaign,
    paths: PathAnalysis,
    correlation: CorrelationTable,
    quic: QUICECNSummary | None = None,
) -> str:
    """Every artefact, in the paper's order.

    ``quic`` appends the QUIC validation extension table when the
    study ran that probe family; ``None`` (the default) reproduces the
    legacy report byte for byte.
    """
    sections = [
        render_table1(geo),
        render_figure1(geo),
        render_figure2(reachability),
        render_figure3(differential_a, differential_b),
        render_figure4(campaign, paths),
        render_figure5(tcp),
        render_figure6(tcp.pct_negotiated),
        render_table2(correlation),
        "Headline (paper vs reproduced):\n"
        f"  avg servers reachable (not-ECT UDP): paper 2253/2500; "
        f"here {reachability.avg_udp_plain:.0f}/{reachability.total_servers}\n"
        f"  Fig 2a average: paper 98.97%; here {reachability.avg_pct_ect_given_plain:.2f}%\n"
        f"  Fig 2b average: paper 99.45%; here {reachability.avg_pct_plain_given_ect:.2f}%\n"
        f"  hops passing ECT(0): paper ~98%; here {paths.pct_hops_passing:.2f}%\n"
        f"  TCP servers negotiating ECN: paper 82.0%; here {tcp.pct_negotiated:.1f}%",
    ]
    if quic is not None:
        sections.append(render_quic_table(quic))
    return ("\n\n" + "=" * 78 + "\n\n").join(sections)
