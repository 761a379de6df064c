"""Shard planning: partition a study into independent units of work.

A **shard** is the dispatch unit of the parallel runner: one
``(vantage, batch)`` slice of the trace schedule, or one vantage's
traceroute sweep.  Shards are deliberately coarser than measurement
epochs (every trace inside a shard still runs in its own hermetic
epoch — see :meth:`SyntheticInternet.begin_epoch`), so the grouping
affects only scheduling and transport overhead, never results: any
partition of the epoch set merges to the same study.

The ``(vantage, batch)`` granularity mirrors how real distributed ECN
campaigns operate — per-vantage probing agents reporting to a central
collector — and yields 16-26 trace shards plus 13 traceroute shards,
comfortably more than typical worker counts without drowning in
per-shard world-build overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.measurement import PlannedTrace, trace_plan
from ..scenario.parameters import TraceScheduleParams
from ..scenario.vantages import VANTAGES

#: Shard kinds.
KIND_TRACES = "traces"
KIND_TRACEROUTES = "traceroutes"


@dataclass(frozen=True)
class Shard:
    """One independently executable slice of a study.

    ``trace_ids`` is populated for :data:`KIND_TRACES` shards and holds
    the schedule's trace ids in ascending order; a traceroute shard
    covers every target from ``vantage_key`` and carries no ids.
    """

    shard_id: int
    kind: str
    vantage_key: str
    batch: int = 0
    trace_ids: tuple[int, ...] = ()

    def planned_traces(self) -> list[PlannedTrace]:
        """Rehydrate this shard's slice of the trace plan."""
        return [
            PlannedTrace(trace_id, self.vantage_key, self.batch)
            for trace_id in self.trace_ids
        ]

    def units(self, target_count: int) -> int:
        """Progress weight: traces for trace shards, probes-per-vantage
        (one unit per target) for traceroute shards."""
        if self.kind == KIND_TRACES:
            return len(self.trace_ids)
        return target_count

    def label(self) -> str:
        if self.kind == KIND_TRACES:
            return f"{self.vantage_key} (batch {self.batch})"
        return f"{self.vantage_key} (traceroutes)"


def plan_shards(
    schedule: TraceScheduleParams,
    traceroutes: bool = True,
) -> list[Shard]:
    """Partition a study schedule into shards.

    Trace shards group the plan by ``(vantage, batch)`` in
    first-appearance order; traceroute shards follow, one per vantage
    in the paper's figure order (the same order the sequential
    campaign walks).
    """
    grouped: dict[tuple[str, int], list[int]] = {}
    for planned in trace_plan(schedule):
        grouped.setdefault((planned.vantage_key, planned.batch), []).append(
            planned.trace_id
        )
    shards = [
        Shard(
            shard_id=shard_id,
            kind=KIND_TRACES,
            vantage_key=vantage_key,
            batch=batch,
            trace_ids=tuple(trace_ids),
        )
        for shard_id, ((vantage_key, batch), trace_ids) in enumerate(grouped.items())
    ]
    if traceroutes:
        offset = len(shards)
        shards.extend(
            Shard(
                shard_id=offset + index,
                kind=KIND_TRACEROUTES,
                vantage_key=spec.key,
            )
            for index, spec in enumerate(VANTAGES)
        )
    return shards
