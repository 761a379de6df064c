"""repro.obs — the simulation observability layer.

All of it is disabled by default and cheap when off:

* :class:`MetricsRegistry` — deterministic counters, high-water gauges
  and fixed-bucket histograms, updated along the packet path, the
  event engine and the runner; shard snapshots merge bit-identically
  (:func:`merge_snapshots`) and render as Prometheus exposition.
* :class:`EventLog` — the one record stream: leveled, rate-limited
  events and the span timeline.  ``events.jsonl``, ``spans.json`` /
  ``trace.json``, crash flight dumps and ``GET /events`` are its views.
* :class:`PathTracer` — opt-in per-packet causality log for packets
  matching a tcpdump-flavoured filter (:func:`parse_filter`).
* :class:`RunTelemetry` — per-shard timing, retries and the merged
  metric snapshot of one run; :mod:`~repro.obs.report` folds every
  saved artefact into one run dashboard.

Instrumented call sites are truthiness-gated (``if metrics: ...``), so
with observability off every hot path pays one predicate and the
archival output stays byte-identical to an uninstrumented build; see
DESIGN.md's observability section for the overhead contract.
"""

from __future__ import annotations

from .events import (
    EVENTS_FORMAT,
    LEVELS,
    EventLog,
    canonical_events,
    level_rank,
    parse_events_jsonl,
    render_events_jsonl,
)
from .metrics import (
    DURATION_BOUNDS,
    RTT_BOUNDS,
    MetricsRegistry,
    empty_snapshot,
    histogram_sum,
    merge_snapshots,
    proto_name,
)
from .prom import (
    METRIC_PREFIX,
    PROM_CONTENT_TYPE,
    ExpositionError,
    metric_name,
    render_histogram_rows,
    render_prometheus,
    validate_exposition,
)
from .spans import (
    DETAIL_EPOCH,
    DETAIL_PROBE,
    ROOT_SPAN_ID,
    chrome_trace_events,
    export_chrome_trace,
    span_id,
)
from .report import (
    RunArtifacts,
    dashboard_sections,
    load_run_artifacts,
    render_dashboard_html,
    render_dashboard_markdown,
    write_dashboard,
)
from .tracing import (
    FilterError,
    PathEvent,
    PathTracer,
    parse_filter,
)
from .telemetry import RunTelemetry, ShardRecord, render_metrics_report

__all__ = [
    "DETAIL_EPOCH",
    "DETAIL_PROBE",
    "DURATION_BOUNDS",
    "EVENTS_FORMAT",
    "EventLog",
    "ExpositionError",
    "FilterError",
    "LEVELS",
    "METRIC_PREFIX",
    "MetricsRegistry",
    "PROM_CONTENT_TYPE",
    "PathEvent",
    "PathTracer",
    "ROOT_SPAN_ID",
    "RTT_BOUNDS",
    "RunArtifacts",
    "RunTelemetry",
    "ShardRecord",
    "canonical_events",
    "chrome_trace_events",
    "dashboard_sections",
    "empty_snapshot",
    "export_chrome_trace",
    "histogram_sum",
    "level_rank",
    "load_run_artifacts",
    "merge_snapshots",
    "metric_name",
    "parse_events_jsonl",
    "parse_filter",
    "proto_name",
    "render_dashboard_html",
    "render_dashboard_markdown",
    "render_events_jsonl",
    "render_histogram_rows",
    "render_metrics_report",
    "render_prometheus",
    "span_id",
    "validate_exposition",
    "write_dashboard",
]
