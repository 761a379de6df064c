"""Run telemetry: what a campaign cost, shard by shard.

While :mod:`repro.obs.metrics` answers *what happened inside the
simulation* (and must merge bit-identically across any sharding),
telemetry answers *how the run itself behaved*: per-shard wall-clock
timing, retry counts, runner-level recovery events, and the merged
metric snapshot, all bundled into one :class:`RunTelemetry` object
that :meth:`repro.study.Study.save` exports alongside the archival
JSON.

The two halves have different determinism contracts, kept deliberately
separate in the exported document:

* ``metrics`` — deterministic; identical between ``workers=0`` and
  ``workers=N`` for the same ``(scale, seed)``.
* ``shards`` / ``wall_seconds`` — wall-clock facts about *this* run;
  meaningful for performance work, never for result comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .metrics import (
    DURATION_BOUNDS,
    MetricsRegistry,
    empty_snapshot,
    histogram_sum,
    merge_snapshots,
)


@dataclass(frozen=True)
class ShardRecord:
    """Timing and retry facts for one completed shard."""

    shard_id: int
    kind: str
    label: str
    #: Executions this shard needed (1 = no retries).
    attempts: int
    #: Worker-side wall-clock seconds for the successful execution.
    elapsed: float
    #: Progress units the shard contributed (traces or probes).
    units: int

    def to_dict(self) -> dict:
        # Wall-clock exports round to the millisecond: sub-ms digits
        # are timer noise that churns diffs between otherwise-equal
        # runs.  Only the export rounds — in-memory values keep full
        # precision so accumulated sums don't drift.
        return {
            "shard_id": self.shard_id,
            "kind": self.kind,
            "label": self.label,
            "attempts": self.attempts,
            "elapsed": round(self.elapsed, 3),
            "units": self.units,
        }


@dataclass
class RunTelemetry:
    """Everything observable about one campaign execution."""

    workers: int = 0
    wall_seconds: float = 0.0
    shards: list[ShardRecord] = field(default_factory=list)
    #: Deterministic simulation metrics, merged across shards.
    metrics: dict = field(default_factory=empty_snapshot)
    #: Parent-side runner counters (dispatched/retried/recovered).
    runner: dict = field(default_factory=dict)
    #: Audit summary of the fault plan applied, when the run was
    #: chaotic (:meth:`repro.faults.FaultPlan.summary`); ``None`` for
    #: an unimpaired run.
    chaos: dict | None = None

    def record_shard(self, record: ShardRecord) -> None:
        self.shards.append(record)

    def merge_metrics(self, snapshots) -> None:
        """Install the deterministic merge of per-shard snapshots."""
        self.metrics = merge_snapshots(snapshots)

    def wall_histograms(self) -> dict:
        """Wall-clock distribution of shard execution times.

        Derived from the shard records at export time, in shard-id
        order, so the same records always produce the same document —
        but the *values* are wall clocks: these histograms live in the
        telemetry half of the export, never in ``metrics``, and are
        excluded from every determinism contract.
        """
        if not self.shards:
            return {}
        registry = MetricsRegistry()
        for record in sorted(self.shards, key=lambda r: r.shard_id):
            registry.observe(
                "runner.shard_wall_seconds", record.elapsed, DURATION_BOUNDS
            )
        return registry.snapshot().get("histograms", {})

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def total_retries(self) -> int:
        return sum(max(0, record.attempts - 1) for record in self.shards)

    def slowest_shards(self) -> list[ShardRecord]:
        """The five longest-running shards (stable on ties)."""
        return sorted(
            self.shards, key=lambda r: (-r.elapsed, r.shard_id)
        )[:5]

    def to_dict(self) -> dict:
        """JSON-safe document, shards in shard-id order."""
        document = {
            "workers": self.workers,
            "wall_seconds": round(self.wall_seconds, 3),
            "total_retries": self.total_retries,
            "runner": {name: self.runner[name] for name in sorted(self.runner)},
            "shards": [
                record.to_dict()
                for record in sorted(self.shards, key=lambda r: r.shard_id)
            ],
            "metrics": self.metrics,
        }
        histograms = self.wall_histograms()
        if histograms:
            document["wall_histograms"] = histograms
        if self.chaos is not None:
            document["chaos"] = self.chaos
        return document

    def summary_lines(self) -> list[str]:
        """The human-readable timing section (benchmark / CLI output)."""
        lines = [
            f"workers={self.workers} wall={self.wall_seconds:.2f}s "
            f"shards={len(self.shards)} retries={self.total_retries}"
        ]
        if self.chaos is not None:
            by_kind = self.chaos.get("by_kind", {})
            kinds = " ".join(f"{kind}={by_kind[kind]}" for kind in sorted(by_kind))
            lines.append(
                f"  chaos profile={self.chaos.get('profile')} "
                f"seed={self.chaos.get('chaos_seed')} "
                f"events={self.chaos.get('events')} ({kinds})"
            )
        for name in sorted(self.runner):
            lines.append(f"  {name} = {self.runner[name]}")
        busy = sum(record.elapsed for record in self.shards)
        if self.shards:
            lines.append(f"  shard time total={busy:.2f}s")
            for record in self.slowest_shards():
                lines.append(
                    f"    {record.elapsed:6.2f}s  x{record.attempts}  "
                    f"{record.label}"
                )
        return lines


def histogram_lines(histograms: dict) -> list[str]:
    """Human-readable one-liners for snapshot histograms."""
    lines = []
    for name in sorted(histograms):
        hist = histograms[name]
        count = hist.get("count", 0)
        mean = histogram_sum(hist) / count if count else 0.0
        lo = hist.get("min")
        hi = hist.get("max")
        lines.append(
            f"  {name}  n={count} mean={mean:.4f}"
            + ("" if lo is None else f" min={lo:.4f}")
            + ("" if hi is None else f" max={hi:.4f}")
        )
    return lines


def render_metrics_report(snapshot: dict, telemetry: RunTelemetry | None = None) -> str:
    """Format a metric snapshot (and optional telemetry) as a report."""
    lines = ["== Simulation metrics =="]
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    if not counters and not gauges:
        lines.append("  (no metrics recorded)")
    width = max((len(name) for name in (*counters, *gauges)), default=0)
    for name in sorted(counters):
        lines.append(f"  {name:<{width}}  {counters[name]}")
    for name in sorted(gauges):
        lines.append(f"  {name:<{width}}  {gauges[name]:g} (gauge)")
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("")
        lines.append("== Histograms (sim-time seconds) ==")
        lines.extend(histogram_lines(histograms))
    if telemetry is not None:
        lines.append("")
        lines.append("== Run telemetry ==")
        lines.extend(telemetry.summary_lines())
        wall = telemetry.wall_histograms()
        if wall:
            lines.append("")
            lines.append("== Histograms (wall-clock seconds) ==")
            lines.extend(histogram_lines(wall))
    return "\n".join(lines)
