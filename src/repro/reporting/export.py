"""Machine-readable exports of study results (JSON / CSV).

The paper archives its dataset at a DOI; these helpers serve the same
role for reproduced studies — everything needed to re-run the analyses
without re-running the measurement.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from ..core.analysis.correlation import CorrelationTable
from ..core.analysis.geographic import GeographicDistribution
from ..core.analysis.pathanalysis import PathAnalysis
from ..core.analysis.quic_ecn import QUICECNSummary
from ..core.analysis.reachability import ReachabilitySummary
from ..core.analysis.tcp_ecn import TCPECNSummary
from ..core.traces import TraceSet
from ..ioutil import atomic_open, atomic_write_text


def export_summary_json(
    path: str | Path,
    geo: GeographicDistribution,
    reachability: ReachabilitySummary,
    tcp: TCPECNSummary,
    paths: PathAnalysis,
    correlation: CorrelationTable,
    quic: QUICECNSummary | None = None,
) -> dict:
    """Write the headline numbers of every experiment; returns the dict.

    ``quic`` adds a ``quic_validation`` key when the study ran the
    QUIC probe family; the default ``None`` leaves the legacy payload
    byte-identical.
    """
    fraction, boundary, determinate = paths.boundary_strip_fraction()
    payload = {
        "table1": {
            "regions": {name: count for name, count in geo.table_rows()[:-1]},
            "total": geo.total,
        },
        "section_4_1": {
            "avg_udp_plain_reachable": reachability.avg_udp_plain,
            "avg_pct_ect_given_plain": reachability.avg_pct_ect_given_plain,
            "avg_pct_plain_given_ect": reachability.avg_pct_plain_given_ect,
            "min_pct_ect_given_plain": reachability.min_pct_ect_given_plain,
            "batch_avg_reachable": {
                str(batch): value
                for batch, value in reachability.batch_avg_reachable().items()
            },
        },
        "section_4_2": {
            "hops_measured": paths.hops_measured,
            "hops_passing": paths.hops_passing,
            "pct_hops_passing": paths.pct_hops_passing,
            "strip_events": paths.strip_events,
            "strip_locations": len(paths.strip_locations()),
            "sometimes_strip_locations": len(paths.sometimes_strip_locations()),
            "boundary_fraction": fraction,
            "ases_observed": len(paths.ases_observed()),
        },
        "section_4_3": {
            "avg_tcp_reachable": tcp.avg_tcp_reachable,
            "avg_ecn_negotiated": tcp.avg_ecn_negotiated,
            "pct_negotiated": tcp.pct_negotiated,
        },
        "table2": [
            {
                "vantage": row.vantage_key,
                "avg_udp_ect_unreachable": row.avg_udp_ect_unreachable,
                "avg_fail_tcp_ecn": row.avg_fail_tcp_ecn,
                "avg_negotiate_tcp_ecn": row.avg_negotiate_tcp_ecn,
            }
            for row in correlation.rows
        ],
    }
    if quic is not None:
        payload["quic_validation"] = {
            "total_probes": quic.total,
            "pct_ecn_usable": quic.pct_ecn_usable,
            "pct_bleached": quic.pct_bleached,
            "pct_blackholed": quic.pct_blackholed,
            "bleaching_dominates": quic.bleaching_dominates,
            "states": [
                {
                    "state": row.state,
                    "observations": row.observations,
                    "pct_of_total": row.pct_of_total,
                    "raw_ect_reachable_pct": row.raw_ect_reachable_pct,
                    "raw_plain_reachable_pct": row.raw_plain_reachable_pct,
                    "servers_dominant": row.servers_dominant,
                }
                for row in quic.rows
            ],
        }
    atomic_write_text(path, json.dumps(payload, indent=2))
    return payload


def export_figure_data(
    directory: str | Path,
    reachability: ReachabilitySummary,
    tcp: TCPECNSummary,
    differential_a,
    differential_b,
    measured_pct_negotiated: float,
) -> list[Path]:
    """Write per-figure CSVs for external plotting tools.

    Produces ``figure2.csv`` (per-trace percentages), ``figure3a.csv``
    / ``figure3b.csv`` (per-vantage per-server differential fractions)
    and ``figure6.csv`` (the deployment time series including the
    measured point).  Returns the written paths.
    """
    from ..core.analysis.tcp_ecn import ecn_deployment_series

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    figure2 = directory / "figure2.csv"
    with atomic_open(figure2, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ("trace_id", "vantage", "batch", "pct_2a", "pct_2b", "tcp_reachable", "ecn_negotiated")
        )
        tcp_by_id = {t.trace_id: t for t in tcp.per_trace}
        for record in reachability.per_trace:
            tcp_record = tcp_by_id.get(record.trace_id)
            writer.writerow(
                (
                    record.trace_id,
                    record.vantage_key,
                    record.batch,
                    f"{record.pct_ect_given_plain:.4f}" if record.pct_ect_given_plain is not None else "",
                    f"{record.pct_plain_given_ect:.4f}" if record.pct_plain_given_ect is not None else "",
                    tcp_record.tcp_reachable if tcp_record else "",
                    tcp_record.ecn_negotiated if tcp_record else "",
                )
            )
    written.append(figure2)

    for name, analysis in (("figure3a", differential_a), ("figure3b", differential_b)):
        path = directory / f"{name}.csv"
        with atomic_open(path, newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("vantage", "server_addr", "fraction"))
            for vantage_key in analysis.vantage_keys:
                fractions = analysis.fractions_for_vantage(vantage_key)
                for addr, fraction in zip(analysis.server_addrs, fractions):
                    writer.writerow((vantage_key, addr, f"{fraction:.4f}"))
        written.append(path)

    figure6 = directory / "figure6.csv"
    with atomic_open(figure6, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("year", "pct_negotiated", "study"))
        for point in ecn_deployment_series(measured_pct_negotiated):
            writer.writerow((point.year, point.pct_negotiated, point.label))
    written.append(figure6)
    return written


def export_metrics_json(path: str | Path, snapshot: dict) -> dict:
    """Write a metric snapshot (counters + gauges); returns the dict.

    Snapshots from :meth:`repro.obs.MetricsRegistry.snapshot` and
    :func:`repro.obs.merge_snapshots` are already key-sorted, so the
    serialised bytes are stable across runs and shard orderings.
    """
    atomic_write_text(path, json.dumps(snapshot, indent=2))
    return snapshot


def export_telemetry_json(path: str | Path, telemetry) -> dict:
    """Write a :class:`repro.obs.RunTelemetry` document; returns it."""
    payload = telemetry.to_dict()
    atomic_write_text(path, json.dumps(payload, indent=2))
    return payload


def export_spans_json(path: str | Path, spans: list[dict]) -> dict:
    """Write an assembled span list (study root first); returns the doc.

    The payload wraps the spans in a version-tagged envelope so loaders
    can reject foreign files, mirroring the shard wire format and the
    flight dump format.
    """
    payload = {"format": "ecn-udp-spans/1", "spans": spans}
    atomic_write_text(path, json.dumps(payload, indent=2))
    return payload


def export_traces_csv(path: str | Path, trace_set: TraceSet) -> int:
    """Flatten a trace set to CSV (one row per server per trace).

    When any outcome carries QUIC validation data, eight ``quic_*``
    columns are appended to the header and every row (blank for
    outcomes without the probe); a legacy trace set writes the legacy
    twelve-column file byte for byte.  Returns the number of data rows
    written.
    """
    has_quic = any(
        outcome.quic is not None
        for trace in trace_set
        for outcome in trace.outcomes.values()
    )
    rows = 0
    with atomic_open(path, newline="") as handle:
        writer = csv.writer(handle)
        header = [
            "trace_id",
            "vantage",
            "batch",
            "server_addr",
            "udp_plain",
            "udp_ect",
            "udp_plain_attempts",
            "udp_ect_attempts",
            "tcp_plain",
            "tcp_ecn",
            "ecn_negotiated",
            "http_status",
        ]
        if has_quic:
            header += [
                "quic_state",
                "quic_handshake_ok",
                "quic_handshake_attempts",
                "quic_packets_sent",
                "quic_packets_acked",
                "quic_ect0_echoed",
                "quic_ect1_echoed",
                "quic_ce_echoed",
            ]
        writer.writerow(header)
        for trace in trace_set:
            for outcome in trace.outcomes.values():
                row = [
                    trace.trace_id,
                    trace.vantage_key,
                    trace.batch,
                    outcome.server_addr,
                    int(outcome.udp_plain),
                    int(outcome.udp_ect),
                    outcome.udp_plain_attempts,
                    outcome.udp_ect_attempts,
                    int(outcome.tcp_plain),
                    int(outcome.tcp_ecn),
                    int(outcome.ecn_negotiated),
                    outcome.http_status if outcome.http_status is not None else "",
                ]
                if has_quic:
                    quic = outcome.quic
                    if quic is not None:
                        row += [
                            quic.state,
                            int(quic.handshake_ok),
                            quic.handshake_attempts,
                            quic.packets_sent,
                            quic.packets_acked,
                            quic.ect0_echoed,
                            quic.ect1_echoed,
                            quic.ce_echoed,
                        ]
                    else:
                        row += [""] * 8
                writer.writerow(row)
                rows += 1
    return rows
