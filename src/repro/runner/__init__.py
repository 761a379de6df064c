"""repro.runner — sharded parallel campaign execution.

Every study runs through this package.  It partitions the trace
schedule into independent **shards** — one per ``(vantage, batch)``
slice of the trace plan, plus one per-vantage traceroute sweep — and
executes them across a pool of worker processes, or in-process on the
caller's world when ``workers=0``.  Each worker deterministically
rebuilds the synthetic Internet from the study spec and runs its
shards inside hermetic measurement epochs, so the merged study is
**bit-identical** for any worker count, shard ordering, or
mid-campaign retries.

Layout:

- :mod:`~repro.runner.shard` — partition a schedule into shards
- :mod:`~repro.runner.worker` — execute one shard (worker or inline)
- :mod:`~repro.runner.scheduler` — dispatch, retries, pool recovery
- :mod:`~repro.runner.merge` — wire codec + deterministic reassembly
- :mod:`~repro.runner.progress` — fold shard completions into the
  ``ProgressFn`` channel

The high-level entry point is :func:`run_study_parallel`, which
``Study.run`` and ``ecnudp study`` call for every ``workers`` value.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Mapping, Sequence

from ..core.measurement import ProgressFn, trace_plan
from ..core.traces import TraceSet, TracerouteCampaign
from ..obs import EventLog, MetricsRegistry, RunTelemetry, ShardRecord
from ..scenario.internet import SyntheticInternet
from ..spec import StudySpec
from .merge import (
    MergeError,
    WIRE_FORMAT,
    decode_path,
    encode_path,
    merge_campaign,
    merge_traces,
)
from .pool import SharedWorkerPool
from .progress import ProgressAggregator
from .scheduler import RetryPolicy, ShardExecutionError, ShardScheduler
from .shard import KIND_TRACEROUTES, KIND_TRACES, Shard, plan_shards
from .worker import (
    FAULT_EXIT,
    FAULT_HANG,
    FAULT_RAISE,
    FaultSpec,
    InjectedShardFault,
    ShardJob,
    execute_shard,
)

__all__ = [
    "FAULT_EXIT",
    "FAULT_HANG",
    "FAULT_RAISE",
    "FaultSpec",
    "InjectedShardFault",
    "KIND_TRACEROUTES",
    "KIND_TRACES",
    "MergeError",
    "ProgressAggregator",
    "RetryPolicy",
    "Shard",
    "ShardExecutionError",
    "ShardJob",
    "ShardScheduler",
    "SharedWorkerPool",
    "WIRE_FORMAT",
    "decode_path",
    "encode_path",
    "execute_shard",
    "merge_campaign",
    "merge_traces",
    "plan_shards",
    "run_study_parallel",
]


def run_study_parallel(
    spec: StudySpec,
    workers: int,
    targets: Sequence[int] | None = None,
    world: SyntheticInternet | None = None,
    progress: ProgressFn | None = None,
    retry: RetryPolicy | None = None,
    shard_timeout: float | None = None,
    faults: Mapping[int, "FaultSpec"] | None = None,
    telemetry: RunTelemetry | None = None,
    observe: bool | None = None,
    record: str | None = None,
    event_log=None,
    flight_dir: str | Path | None = None,
    profile_dir: str | Path | None = None,
    pool: SharedWorkerPool | None = None,
) -> tuple[TraceSet, TracerouteCampaign]:
    """Execute a full study as shards and merge the results.

    The parent builds (or receives) the world and the probe-target
    list — discovery runs exactly once, in the parent — then ships
    only ``(spec, targets, shard)`` to each worker.  ``workers=0`` with
    no ``pool`` runs the same jobs in this process on ``world`` itself,
    with the spec's fault plan installed for the run and removed
    afterwards.
    Returns ``(TraceSet, TracerouteCampaign)``, bit-identical for any
    ``workers`` value.

    ``spec`` (:class:`~repro.spec.StudySpec`) decides what runs.  A
    chaos-profile name in it is expanded into its
    :class:`~repro.faults.FaultPlan` here, against the parent's world;
    the plan then ships inside every :class:`ShardJob` and joins the
    worker's world-cache key (:meth:`~repro.spec.StudySpec.world_key`),
    so each worker installs the identical plan and rebuilds the
    identical (possibly drifted) world — the merged study stays
    bit-identical to an inline run.

    Passing a :class:`~repro.obs.RunTelemetry` turns observation on:
    every shard runs under a fresh worker-side metrics registry, and
    the telemetry object is filled in place with per-shard timing,
    runner counters, and the deterministic merge of all shard metric
    snapshots (deduplicated by shard id, so retries and recovery
    cannot double-count).  ``observe=False`` keeps the timing and
    runner counters but skips the worker-side registries — what the
    speedup benchmark wants, since per-packet counting is not free.

    ``faults`` maps shard ids to :class:`FaultSpec` and exists for the
    fault-tolerance tests; production callers never pass it.

    ``workers=N`` runs the shards on a
    :class:`~repro.runner.pool.SharedWorkerPool` of
    ``min(N, shards)`` processes built for this study alone and shut
    down before it returns or raises.  ``pool`` runs them on a pool
    the caller owns instead — the study server's path, where many
    concurrent studies multiplex one pool and reuse each worker's
    per-process world cache across studies with the same world key;
    ``workers`` then only fills :attr:`~repro.obs.RunTelemetry.workers`.

    ``event_log`` is the parent's :class:`~repro.obs.EventLog`: the
    scheduler narrates shard lifecycle into it — dispatch, completions,
    retries, gang recoveries, pool rebuilds.  ``record`` (a span detail
    level) turns on per-shard recording: each worker records its
    shard's events and spans (no wall stamps), the streams ship back in
    the wire results, and ``event_log`` absorbs them (deduplicated by
    shard) — its :meth:`~repro.obs.EventLog.events` and
    :meth:`~repro.obs.EventLog.spans` views are the same for any
    ``workers`` value.  ``flight_dir`` arms crash flight dumps on both
    sides of the process boundary: workers dump
    ``flight-shard-<id>.json`` when a shard execution dies, and the
    parent dumps its log's tail to ``flight-parent.json`` on any
    scheduler recovery path (gang retry after a hang or pool loss,
    retry-budget exhaustion); without an ``event_log`` the parent
    keeps a fresh one for the purpose.  ``profile_dir`` captures one
    cProfile stats file per shard execution.
    """
    if record is not None and event_log is None:
        raise ValueError("record= needs an event_log to absorb the shard records")
    if world is None:
        world = spec.build_world()
    spec = spec.with_fault_plan(world)
    if targets is None:
        targets = [server.addr for server in world.servers]
    target_tuple = tuple(targets)
    schedule = world.params.schedule
    plan = trace_plan(schedule)
    shards = plan_shards(schedule, traceroutes=spec.traceroutes)
    fault_map = dict(faults) if faults else {}
    if observe is None:
        observe = telemetry is not None
    flight_path = str(flight_dir) if flight_dir is not None else None
    profile_path = str(profile_dir) if profile_dir is not None else None
    jobs = [
        ShardJob(
            spec=spec,
            targets=target_tuple,
            shard=shard,
            fault=fault_map.get(shard.shard_id),
            observe=observe,
            record=record,
            flight_dir=flight_path,
            profile_dir=profile_path,
        )
        for shard in shards
    ]
    aggregator = ProgressAggregator(
        progress, sum(shard.units(len(target_tuple)) for shard in shards)
    )
    log = event_log
    if log is None and flight_path is not None:
        log = EventLog()

    def on_complete(job: ShardJob, result: dict) -> None:
        aggregator.shard_completed(job.shard, job.shard.units(len(target_tuple)))
        if log:
            log.emit(
                "shard-complete",
                "debug",
                shard=job.shard.shard_id,
                attempts=job.attempt + 1,
            )
        if telemetry is not None:
            telemetry.record_shard(
                ShardRecord(
                    shard_id=job.shard.shard_id,
                    kind=job.shard.kind,
                    label=job.shard.label(),
                    attempts=job.attempt + 1,
                    elapsed=float(result.get("elapsed", 0.0)),
                    units=job.shard.units(len(target_tuple)),
                )
            )

    runner_metrics = MetricsRegistry() if telemetry is not None else None
    owned = None
    if pool is None and workers > 0:
        pool = owned = SharedWorkerPool(min(workers, len(jobs)))
    scheduler = ShardScheduler(
        retry=retry,
        shard_timeout=shard_timeout,
        metrics=runner_metrics,
        log=log,
        flight_dir=flight_path,
        pool=pool,
    )
    started = time.perf_counter()
    try:
        results = scheduler.run(jobs, on_complete=on_complete, world=world)
    finally:
        if owned is not None:
            owned.shutdown()
    if telemetry is not None:
        # Inline execution is one process.
        telemetry.workers = max(workers, 1)
        telemetry.wall_seconds = time.perf_counter() - started
        telemetry.runner = runner_metrics.snapshot()["counters"]
        if spec.plan is not None:
            telemetry.chaos = spec.plan.summary()
        # Completion order must not influence the merged metrics, and
        # a shard observed twice (gang recovery races) must count once.
        by_shard = {}
        for result in results:
            if "metrics" in result:
                by_shard.setdefault(result["shard_id"], result["metrics"])
        telemetry.merge_metrics(
            by_shard[shard_id] for shard_id in sorted(by_shard)
        )
    if record is not None:
        # Same dedup-by-shard discipline as metrics: the views run over
        # one stream per shard whatever executed it.
        for result in results:
            if "record" in result:
                event_log.absorb(result["shard_id"], result["record"])
    traces = merge_traces(
        (r for r in results if r["kind"] == KIND_TRACES),
        server_addrs=list(target_tuple),
        description=(
            "ECN/UDP reachability study: "
            f"{len(plan)} traces x {len(target_tuple)} servers"
        ),
    )
    campaign = (
        merge_campaign(
            (r for r in results if r["kind"] == KIND_TRACEROUTES),
            vantage_order=list(world.vantage_hosts),
        )
        if spec.traceroutes
        else TracerouteCampaign()
    )
    return traces, campaign
