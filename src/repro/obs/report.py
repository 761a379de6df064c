"""Run dashboards: one page summarising a saved study's run artefacts.

``ecnudp report --dashboard`` folds the observability outputs of a
study directory — ``summary.json``, ``metrics.json``,
``telemetry.json``, ``spans.json``, any ``flight-*.json`` crash dumps
— into a single self-contained document: a per-phase timing table, a
slowest-shard flame summary, the chaos event timeline, and the ECN
mark-survival breakdown the paper's §4 is about.  Everything degrades
gracefully: a study saved without ``--metrics`` or ``--record`` still
renders, with the missing sections noted rather than omitted silently.

Two renderers share one data model (:class:`RunArtifacts` →
:func:`dashboard_sections`): markdown for terminals and commit
comments, HTML (inline CSS, zero external assets) for browsers.
"""

from __future__ import annotations

import html
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .events import FLIGHT_FORMAT, parse_events_jsonl
from .prom import render_histogram_rows

#: Span kinds shown in the per-phase timing table, coarse to fine.
_PHASE_KINDS = ("shard", "trace", "sweep", "probe", "phase")

#: Most recent events shown in the dashboard's event-log section.
_EVENT_TAIL_ROWS = 20


@dataclass
class RunArtifacts:
    """Everything the dashboard knows about one saved study."""

    study_dir: Path
    manifest: dict = field(default_factory=dict)
    summary: dict | None = None
    metrics: dict | None = None
    telemetry: dict | None = None
    spans: list[dict] | None = None
    #: Parsed ``flight-*.json`` dumps, sorted by file name.
    flights: list[dict] = field(default_factory=list)
    #: When the directory is a campaign archive: its ``campaign.json``
    #: manifest and merged ``trend.json`` points.  Read structurally
    #: (plain JSON) so the dashboard stays import-cycle-free.
    campaign: dict | None = None
    trend_points: list[dict] = field(default_factory=list)
    #: Parsed ``events.jsonl`` (structured event log), oldest first.
    events: list[dict] = field(default_factory=list)
    #: Parsed campaign ``alerts.jsonl`` (SLO watchdog breaches).
    alerts: list[dict] = field(default_factory=list)


def _read(path: Path) -> str:
    """The file's text; a missing or undecodable file reads as empty."""
    try:
        return path.read_text()
    except (OSError, ValueError):
        return ""


def _load_json(path: Path):
    try:
        return json.loads(_read(path))
    except (ValueError, RecursionError):
        return None


def _load_jsonl(path: Path) -> list[dict]:
    """Best-effort JSONL load — the dashboard degrades, never raises."""
    try:
        return parse_events_jsonl(_read(path))
    except ValueError:
        return []


def _object(value) -> dict | None:
    return value if isinstance(value, dict) else None


def _objects(value) -> list[dict]:
    """The object entries of a list; anything else reads as empty."""
    if not isinstance(value, list):
        return []
    return [entry for entry in value if isinstance(entry, dict)]


def _is_number(value) -> bool:
    """Whether ``value`` is a finite number a float can hold."""
    if not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _number(value) -> float:
    """``value`` as a float; anything else reads as 0."""
    return float(value) if _is_number(value) else 0.0


def _is_histogram(entry) -> bool:
    """Whether ``entry`` is a snapshot histogram the renderer can read."""
    return (
        isinstance(entry, dict)
        and all(_is_number(entry.get(key, 0)) for key in ("count", "sum_fp"))
        and all(entry.get(key) is None or _is_number(entry[key]) for key in ("min", "max"))
    )


def _with_histograms(document: dict | None, key: str) -> dict | None:
    """``document``, unless its ``key`` is not an object of histograms."""
    histograms = (document or {}).get(key, {})
    if not isinstance(histograms, dict) or not all(map(_is_histogram, histograms.values())):
        return None
    return document


def load_run_artifacts(study_dir: str | Path) -> RunArtifacts:
    """Gather whatever observability artefacts the directory holds.

    An unreadable document, and one of the wrong shape, reads as
    absent; list entries that are not objects are skipped, and so is a
    ``flight-*.json`` whose ``format`` is not a flight dump's.
    """
    directory = Path(study_dir)
    artifacts = RunArtifacts(study_dir=directory)
    artifacts.manifest = _object(_load_json(directory / "manifest.json")) or {}
    artifacts.summary = _object(_load_json(directory / "summary.json"))
    artifacts.metrics = _with_histograms(
        _object(_load_json(directory / "metrics.json")), "histograms"
    )
    telemetry = _with_histograms(
        _object(_load_json(directory / "telemetry.json")), "wall_histograms"
    )
    if telemetry is not None:
        telemetry["shards"] = _objects(telemetry.get("shards"))
    artifacts.telemetry = telemetry
    spans_doc = _object(_load_json(directory / "spans.json")) or {}
    if isinstance(spans_doc.get("spans"), list):
        artifacts.spans = _objects(spans_doc["spans"])
    for path in sorted(directory.glob("flight-*.json")):
        dump = _load_json(path)
        if isinstance(dump, dict) and dump.get("format") == FLIGHT_FORMAT:
            dump.setdefault("file", path.name)
            artifacts.flights.append(dump)
    artifacts.events = _load_jsonl(directory / "events.jsonl")
    campaign_doc = _object(_load_json(directory / "campaign.json")) or {}
    if str(campaign_doc.get("format", "")).startswith(
        "ecn-udp-campaign/"
    ) and isinstance(campaign_doc.get("spec", {}), dict):
        artifacts.campaign = campaign_doc
        trend_doc = _object(_load_json(directory / "trend.json")) or {}
        artifacts.trend_points = _objects(trend_doc.get("points"))
        artifacts.alerts = _load_jsonl(directory / "alerts.jsonl")
    return artifacts


# ----------------------------------------------------------------------
# Data model: sections of (title, table | lines)
# ----------------------------------------------------------------------
def _fmt(value, digits: int = 2) -> str:
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def _header_rows(artifacts: RunArtifacts) -> list[tuple[str, str]]:
    rows = [
        ("study", str(artifacts.study_dir)),
        ("scale", _fmt(artifacts.manifest.get("scale", "?"), 3)),
        ("seed", str(artifacts.manifest.get("seed", "?"))),
    ]
    telemetry = artifacts.telemetry
    if telemetry:
        rows.append(("workers", str(telemetry.get("workers", 0))))
        rows.append(("wall seconds", _fmt(telemetry.get("wall_seconds", 0.0), 3)))
        rows.append(("shards", str(len(telemetry.get("shards", [])))))
        rows.append(("retries", str(telemetry.get("total_retries", 0))))
    chaos = _object(artifacts.manifest.get("chaos"))
    if chaos:
        rows.append(
            (
                "chaos",
                f"profile={chaos.get('profile')} seed={chaos.get('chaos_seed')} "
                f"events={chaos.get('events')}",
            )
        )
    if artifacts.flights:
        rows.append(("flight dumps", ", ".join(str(d["file"]) for d in artifacts.flights)))
    return rows


def _phase_table(spans: list[dict]) -> list[list[str]]:
    """Per-kind timing: count, total simulated time, total wall time."""
    totals: dict[str, list[float]] = {}
    for span in spans:
        kind = span.get("kind")
        if kind not in _PHASE_KINDS:
            continue
        entry = totals.setdefault(kind, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += max(_number(span.get("sim_end")) - _number(span.get("sim_start")), 0.0)
        entry[2] += _number(span.get("wall_ms"))
    rows = []
    for kind in _PHASE_KINDS:
        if kind not in totals:
            continue
        count, sim, wall = totals[kind]
        rows.append([kind, str(int(count)), f"{sim:.1f}", f"{wall:.1f}"])
    return rows


def _shard_id(value) -> int:
    return value if isinstance(value, int) else -1


def _flame_rows(artifacts: RunArtifacts, count: int = 5) -> list[list[str]]:
    """Slowest shards with a proportional wall-time bar.

    Prefers telemetry's worker-side timings; falls back to span wall
    times when the study ran without ``--metrics``.
    """
    shards: list[tuple[int, float, int, str]] = []
    telemetry = artifacts.telemetry
    if telemetry and telemetry.get("shards"):
        for record in telemetry["shards"]:
            shards.append(
                (
                    _shard_id(record.get("shard_id")),
                    _number(record.get("elapsed")) * 1000.0,
                    record.get("attempts", 1),
                    record.get("label", "?"),
                )
            )
    elif artifacts.spans:
        for span in artifacts.spans:
            if span.get("kind") != "shard":
                continue
            shard_id = (_object(span.get("attrs")) or {}).get("shard_id")
            shards.append(
                (_shard_id(shard_id), _number(span.get("wall_ms")), 1, span.get("name", "?"))
            )
    shards.sort(key=lambda item: (-item[1], item[0]))
    top = shards[:count]
    peak = max((wall for _, wall, _, _ in top), default=0.0)
    rows = []
    for shard_id, wall, attempts, label in top:
        bar = "#" * max(1, round(20 * wall / peak)) if peak > 0 else ""
        rows.append([str(shard_id), f"{wall:.1f}", f"x{attempts}", str(label), bar])
    return rows


def _chaos_rows(artifacts: RunArtifacts) -> list[list[str]]:
    """Fault events in simulated-time order, from span point events."""
    rows = []
    for span in artifacts.spans or []:
        for event in _objects(span.get("events", [])):
            if event.get("name") != "fault":
                continue
            attrs = _object(event.get("attrs")) or {}
            rows.append(
                [
                    f"{_number(event.get('sim_time')):.1f}",
                    str(attrs.get("epoch", "?")),
                    str(attrs.get("kind", "?")),
                    str(attrs.get("target", "?")),
                    _fmt(attrs.get("magnitude", "")),
                ]
            )
    rows.sort(key=lambda row: float(row[0]))
    return rows


def _survival_rows(summary: dict) -> list[list[str]]:
    """§4 headline numbers: where ECT-marked traffic survives."""
    s41 = _object(summary.get("section_4_1")) or {}
    s42 = _object(summary.get("section_4_2")) or {}
    s43 = _object(summary.get("section_4_3")) or {}
    rows = [
        [
            "UDP servers reachable plain (avg)",
            _fmt(s41.get("avg_udp_plain_reachable", 0.0), 1),
        ],
        [
            "% reachable with ECT given plain",
            _fmt(s41.get("avg_pct_ect_given_plain", 0.0), 2),
        ],
        [
            "% reachable plain given ECT",
            _fmt(s41.get("avg_pct_plain_given_ect", 0.0), 2),
        ],
        [
            "hops passing ECT / measured",
            f"{s42.get('hops_passing', 0)} / {s42.get('hops_measured', 0)} "
            f"({_fmt(s42.get('pct_hops_passing', 0.0), 2)}%)",
        ],
        ["mark-strip events observed", str(s42.get("strip_events", 0))],
        [
            "strips at AS boundaries",
            _fmt(100.0 * _number(s42.get("boundary_fraction")), 1) + "%",
        ],
        [
            "TCP ECN negotiated (avg)",
            f"{_fmt(s43.get('avg_ecn_negotiated', 0.0), 1)} of "
            f"{_fmt(s43.get('avg_tcp_reachable', 0.0), 1)} "
            f"({_fmt(s43.get('pct_negotiated', 0.0), 2)}%)",
        ],
    ]
    return rows


def _histogram_rows(artifacts: RunArtifacts) -> list[list[str]]:
    """Deterministic sim-time histograms plus wall-clock telemetry ones."""
    rows = [
        ["sim", *row]
        for row in render_histogram_rows(artifacts.metrics or {})
    ]
    wall = (artifacts.telemetry or {}).get("wall_histograms")
    if wall:
        rows.extend(
            ["wall", *row] for row in render_histogram_rows({"histograms": wall})
        )
    return rows


def _event_rows(events: list[dict], limit: int = _EVENT_TAIL_ROWS) -> list[list[str]]:
    """The most recent structured events, one row each."""
    rows = []
    for event in events[-limit:]:
        detail = " ".join(
            f"{key}={event[key]}"
            for key in sorted(event)
            if key not in ("seq", "shard", "level", "kind", "wall", "span_id")
        )
        rows.append(
            [
                str(event.get("shard", "-")),
                str(event.get("seq", "?")),
                str(event.get("level", "?")),
                str(event.get("kind", "?")),
                detail,
            ]
        )
    return rows


def _alert_rows(alerts: list[dict]) -> list[list[str]]:
    """SLO watchdog breaches, one row each."""
    return [
        [
            str(alert.get("epoch", "?")),
            _fmt(alert.get("year", 0.0), 2),
            str(alert.get("rule", "?")),
            str(alert.get("metric", "?")),
            _fmt(alert.get("value", 0.0), 2),
            _fmt(alert.get("reference", 0.0), 2),
            f"{_number(alert.get('delta_pp')):+.2f}",
        ]
        for alert in alerts
    ]


#: A dashboard section: (title, column headers, rows, empty-note).
Section = tuple[str, list[str], list[list[str]], str]


def _campaign_sections(artifacts: RunArtifacts) -> list[Section]:
    """Sections for a campaign archive: spec plus the epoch time series."""
    campaign = artifacts.campaign or {}
    spec = campaign.get("spec", {})
    checkpoints = artifacts.study_dir / "checkpoints.jsonl"
    completed = sum(1 for line in _read(checkpoints).splitlines() if line.strip())
    field_rows = [
        ["campaign", str(artifacts.study_dir)],
        ["timeline", str(spec.get("timeline", "?"))],
        ["scale", _fmt(spec.get("scale", "?"), 3)],
        ["seed", str(spec.get("seed", "?"))],
        [
            "cadence",
            f"{_fmt(spec.get('cadence_years', '?'), 2)} simulated years/epoch",
        ],
        [
            "epochs",
            f"{completed} / {campaign.get('target_epochs', '?')} complete, "
            f"{len(artifacts.trend_points)} merged",
        ],
    ]
    if spec.get("chaos"):
        field_rows.append(
            ["chaos", f"profile={spec['chaos']} seed={spec.get('chaos_seed', 0)}"]
        )
    sections: list[Section] = [("Campaign", ["field", "value"], field_rows, "")]
    trend_rows = [
        [
            _fmt(point.get("year", 0.0), 2),
            str(point.get("epoch", "?")),
            _fmt(point.get("mark_survival_pct", 0.0), 2),
            str(point.get("strip_events", 0)),
            _fmt(point.get("negotiation_pct", 0.0), 2),
            _fmt(point.get("udp_blackhole_pct", 0.0), 2),
        ]
        for point in artifacts.trend_points
    ]
    sections.append(
        (
            "Longitudinal trend",
            [
                "year",
                "epoch",
                "mark survival %",
                "strip events",
                "negotiation %",
                "UDP ECT blackhole %",
            ],
            trend_rows,
            "" if trend_rows else "no epochs merged into trend.json yet",
        )
    )
    alert_rows = _alert_rows(artifacts.alerts)
    sections.append(
        (
            "SLO alerts",
            ["epoch", "year", "rule", "metric", "value", "reference", "delta pp"],
            alert_rows,
            "" if alert_rows else "no SLO breaches recorded in alerts.jsonl",
        )
    )
    return sections


def dashboard_sections(artifacts: RunArtifacts) -> list[Section]:
    """The renderer-independent dashboard content."""
    if artifacts.campaign is not None:
        # A campaign archive holds per-epoch studies, not top-level
        # study artefacts — the study sections would all be empty.
        return _campaign_sections(artifacts)
    sections: list[Section] = [
        (
            "Run",
            ["field", "value"],
            [list(row) for row in _header_rows(artifacts)],
            "",
        )
    ]
    if artifacts.spans:
        sections.append(
            (
                "Phase timing",
                ["phase", "count", "sim time total", "wall ms total"],
                _phase_table(artifacts.spans),
                "",
            )
        )
    else:
        sections.append(
            (
                "Phase timing",
                [],
                [],
                "no spans.json — re-run with `ecnudp study --record`",
            )
        )
    flame = _flame_rows(artifacts)
    sections.append(
        (
            "Slowest shards",
            ["shard", "wall ms", "attempts", "label", ""],
            flame,
            "" if flame else "no telemetry.json or spans.json with shard timings",
        )
    )
    chaos_rows = _chaos_rows(artifacts)
    if chaos_rows or artifacts.manifest.get("chaos"):
        sections.append(
            (
                "Chaos timeline",
                ["sim time", "epoch", "fault", "target", "magnitude"],
                chaos_rows,
                "" if chaos_rows else "chaotic run, but no spans captured fault events",
            )
        )
    hist_rows = _histogram_rows(artifacts)
    if hist_rows or artifacts.metrics is not None:
        sections.append(
            (
                "Histograms",
                ["domain", "histogram", "count", "mean", "min", "max"],
                hist_rows,
                "" if hist_rows else "metrics captured, but no histogram observations",
            )
        )
    if artifacts.events:
        sections.append(
            (
                "Event log (tail)",
                ["shard", "seq", "level", "kind", "detail"],
                _event_rows(artifacts.events),
                "",
            )
        )
    if artifacts.summary:
        sections.append(
            (
                "ECN mark survival",
                ["measure", "value"],
                _survival_rows(artifacts.summary),
                "",
            )
        )
    else:
        sections.append(
            ("ECN mark survival", [], [], "no summary.json in the study directory")
        )
    return sections


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------
def _markdown_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [
        max(len(header), *(len(row[i]) for row in rows))
        for i, header in enumerate(headers)
    ]
    lines = [
        "| " + " | ".join(h.ljust(w) for h, w in zip(headers, widths)) + " |",
        "|" + "|".join("-" * (w + 2) for w in widths) + "|",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |"
        )
    return lines


def render_dashboard_markdown(artifacts: RunArtifacts) -> str:
    """Render the dashboard as GitHub-flavoured markdown."""
    lines = ["# ECN/UDP study run dashboard", ""]
    for title, headers, rows, note in dashboard_sections(artifacts):
        lines.append(f"## {title}")
        lines.append("")
        if rows:
            lines.extend(_markdown_table(headers, rows))
        else:
            lines.append(f"_{note or 'nothing to show'}_")
        lines.append("")
    return "\n".join(lines)


_HTML_STYLE = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2rem auto;
       max-width: 60rem; color: #1a1a2e; }
h1 { border-bottom: 2px solid #1a1a2e; padding-bottom: .3rem; }
table { border-collapse: collapse; margin: .5rem 0 1.5rem; }
th, td { border: 1px solid #c8c8d8; padding: .25rem .6rem; text-align: left;
         font-size: .9rem; }
th { background: #eef; }
td:last-child { font-family: monospace; color: #364fc7; }
.note { color: #666; font-style: italic; }
""".strip()


def render_dashboard_html(artifacts: RunArtifacts) -> str:
    """Render the dashboard as one self-contained HTML page."""
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        "<title>ECN/UDP study run dashboard</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        "<h1>ECN/UDP study run dashboard</h1>",
    ]
    for title, headers, rows, note in dashboard_sections(artifacts):
        parts.append(f"<h2>{html.escape(title)}</h2>")
        if rows:
            parts.append("<table><tr>")
            parts.extend(f"<th>{html.escape(h)}</th>" for h in headers)
            parts.append("</tr>")
            for row in rows:
                parts.append(
                    "<tr>"
                    + "".join(f"<td>{html.escape(c)}</td>" for c in row)
                    + "</tr>"
                )
            parts.append("</table>")
        else:
            parts.append(f"<p class='note'>{html.escape(note or 'nothing to show')}</p>")
    parts.append("</body></html>")
    return "\n".join(parts)


def write_dashboard(study_dir: str | Path, out_path: str | Path) -> Path:
    """Render the dashboard for ``study_dir``; format chosen by suffix.

    ``.md`` / ``.markdown`` produce markdown; anything else (``.html``
    by convention) produces the self-contained HTML page.  Returns the
    written path.
    """
    artifacts = load_run_artifacts(study_dir)
    out = Path(out_path)
    if out.suffix.lower() in (".md", ".markdown"):
        text = render_dashboard_markdown(artifacts)
    else:
        text = render_dashboard_html(artifacts)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    return out
