"""Trend extraction and rendering for longitudinal campaigns.

A campaign generalises the paper's Figure 6 from one curve (negotiation
over 2000-2015, from external measurements) to the full drift picture
the synthetic Internet can re-measure per simulated year: mark
survival, bleach vs blackhole shares, negotiation rate, reachability.
Each epoch contributes one **trend point** distilled from its
``summary.json``; :func:`render_trend_report` lays the points out as a
per-year table plus an overlaid ASCII time series in the style of the
Figure 6 renderer.
"""

from __future__ import annotations

from ..reporting.figures import time_series
from ..stats.timeseries import linear_trend
from .archive import CampaignArchive, CheckpointRecord
from .watch import evaluate_rules


def trend_point(record: CheckpointRecord, summary: dict) -> dict:
    """Distill one epoch's summary into a trend point.

    Pure in its inputs — the trend file stays byte-identical across
    interrupted and uninterrupted runs because nothing here looks at a
    clock or the filesystem.
    """
    s41 = summary.get("section_4_1", {})
    s42 = summary.get("section_4_2", {})
    s43 = summary.get("section_4_3", {})
    return {
        "epoch": record.epoch,
        "year": round(record.year, 3),
        "mark_survival_pct": s42.get("pct_hops_passing", 0.0),
        "strip_events": s42.get("strip_events", 0),
        "negotiation_pct": s43.get("pct_negotiated", 0.0),
        # "Blackhole share": the average fraction of plain-reachable
        # servers that ECT probes could NOT reach (§4.1's complement).
        "udp_blackhole_pct": round(
            100.0 - s41.get("avg_pct_ect_given_plain", 100.0), 6
        ),
        "servers_reached": s41.get("avg_udp_plain_reachable", 0.0),
    }


def render_trend_report(archive: CampaignArchive) -> str:
    """Render the campaign's trend as a text report (Figure 6 style)."""
    points = archive.trend_points()
    spec, study = archive.spec, archive.spec.study
    # No directory name in the header: the report participates in the
    # byte-identity contract, and archives must survive being renamed
    # or relocated without their derived artefacts changing.
    lines = [
        f"Longitudinal ECN campaign ({spec.timeline} timeline)",
        "=" * 60,
        (
            f"timeline={spec.timeline}  scale={study.scale}  seed={study.seed}  "
            f"cadence={spec.cadence_years}y  pool_churn={'on' if spec.pool_churn else 'off'}"
        ),
        f"epochs merged: {len(points)} / target {archive.target_epochs}"
        + (f"  chaos={study.faults}" if study.faults else ""),
        "",
    ]
    if not points:
        lines.append("(no epochs merged yet)")
        return "\n".join(lines) + "\n"

    header = (
        f"{'year':>8}  {'epoch':>5}  {'mark-survival%':>14}  "
        f"{'strips':>6}  {'negotiation%':>12}  {'ect-blackhole%':>14}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for p in points:
        lines.append(
            f"{p['year']:>8.2f}  {p['epoch']:>5d}  {p['mark_survival_pct']:>14.2f}  "
            f"{p['strip_events']:>6d}  {p['negotiation_pct']:>12.2f}  "
            f"{p['udp_blackhole_pct']:>14.2f}"
        )

    lines.append("")
    lines.append("Trend (M = mark survival %, N = negotiation %):")
    chart_points = [
        (p["year"], p["mark_survival_pct"], "mark") for p in points
    ] + [(p["year"], p["negotiation_pct"], "negotiation") for p in points]
    lines.append(time_series(chart_points))

    if len(points) >= 2:
        years = [p["year"] for p in points]
        mark_slope, _ = linear_trend(years, [p["mark_survival_pct"] for p in points])
        neg_slope, _ = linear_trend(years, [p["negotiation_pct"] for p in points])
        hole_slope, _ = linear_trend(years, [p["udp_blackhole_pct"] for p in points])
        lines.append("")
        lines.append(
            f"least-squares drift per simulated year: "
            f"mark survival {mark_slope:+.2f} pp, "
            f"negotiation {neg_slope:+.2f} pp, "
            f"ECT blackholing {hole_slope:+.2f} pp"
        )

    # Recomputed, not read from alerts.jsonl: the report is a pure
    # function of the trend points, and both artefacts derive from the
    # same rule evaluation, so they can never disagree.
    alerts = evaluate_rules(points, spec.timeline_obj)
    if alerts:
        lines.append("")
        lines.append(f"SLO watchdog: {len(alerts)} breach(es)")
        for alert in alerts:
            # baseline-ratio deltas are percent-of-baseline, the other
            # modes percentage points.
            unit = "%" if alert["mode"] == "baseline-ratio" else " pp"
            lines.append(
                f"  epoch {alert['epoch']:>3d} ({alert['year']:.2f})  "
                f"{alert['rule']}: {alert['metric']} {alert['value']:.2f} "
                f"vs {alert['reference']:.2f} "
                f"(delta {alert['delta_pp']:+.2f}{unit}, "
                f"threshold {alert['threshold_pp']:g}{unit})"
            )
    return "\n".join(lines) + "\n"


def campaign_status(archive: CampaignArchive) -> dict:
    """Machine-readable campaign state for ``campaign status --json``."""
    records = archive.checkpoints()
    merged = {p.get("epoch") for p in archive.trend_points()} if (
        archive.trend_path.exists()
    ) else set()
    alerts = archive.alerts() if archive.alerts_path.exists() else []
    by_rule: dict[str, int] = {}
    for alert in alerts:
        rule = alert.get("rule", "?")
        by_rule[rule] = by_rule.get(rule, 0) + 1
    return {
        "directory": str(archive.directory),
        "spec": archive.spec.to_dict(),
        "target_epochs": archive.target_epochs,
        "completed_epochs": len(records),
        "merged_epochs": len(merged),
        "complete": len(records) >= archive.target_epochs,
        "next_epoch": len(records) if len(records) < archive.target_epochs else None,
        "years": [round(r.year, 3) for r in records],
        "alerts": len(alerts),
        "alerts_by_rule": {rule: by_rule[rule] for rule in sorted(by_rule)},
    }
