"""Shard execution, in a worker process or inline.

A worker receives a :class:`ShardJob` — everything needed to rebuild
the study context from scratch: the :class:`~repro.spec.StudySpec`
(with its fault plan already expanded by the parent) to rebuild the
synthetic Internet, the probe target list (discovery runs once, in the
parent), and the shard to execute.  Worlds are cached per process, so
a worker pays the build cost once and then runs any number of shards
against it; hermetic measurement epochs guarantee the execution order
across shards cannot influence results.  Inline execution (a
sequential study) passes the caller's world instead, so no second
world is built.

Observability rides along per job: ``observe`` installs a fresh
metrics registry, ``profile_dir`` wraps the measurement in
:mod:`cProfile`, and ``record`` / ``flight_dir`` give the job its own
:class:`~repro.obs.EventLog`.  With ``record`` the log records the
shard's events and spans (its stream ships back in the wire result);
with ``flight_dir`` the log's tail — lifecycle, fault and span records
of exactly this job — is dumped to ``flight-shard-<id>.json`` when the
shard execution dies.

Fault injection (:class:`FaultSpec`) exists for the scheduler's
retry-path tests: a job can be told to raise — or hard-kill its worker
process — while its attempt counter is below a threshold, which
exercises exactly the recovery machinery a real crashed worker would.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

from ..core.measurement import MeasurementApplication
from ..obs.events import EventLog
from ..obs.metrics import MetricsRegistry
from ..scenario.internet import SyntheticInternet
from ..spec import StudySpec
from .merge import WIRE_FORMAT, encode_path
from .shard import KIND_TRACES, Shard

#: Fault kinds understood by :func:`execute_shard`.
FAULT_RAISE = "raise"
FAULT_EXIT = "exit"
FAULT_HANG = "hang"


class InjectedShardFault(RuntimeError):
    """Deliberate failure raised by a :class:`FaultSpec` (tests only)."""


@dataclass(frozen=True)
class FaultSpec:
    """Fail a shard's first ``attempts`` executions (tests only).

    ``kind=FAULT_HANG`` sleeps ``hang_seconds`` before failing, wedging
    the worker long enough to trip the scheduler's global
    ``shard_timeout`` — the gang-recovery path a crashed worker never
    reaches (its future resolves immediately).
    """

    kind: str = FAULT_RAISE
    attempts: int = 1
    hang_seconds: float = 30.0


@dataclass(frozen=True)
class ShardJob:
    """A self-contained unit of work shipped to a worker process."""

    #: What to run; its ``faults`` is a ready FaultPlan or ``None``.
    spec: StudySpec
    targets: tuple[int, ...]
    shard: Shard
    attempt: int = 0
    fault: FaultSpec | None = None
    #: When True the worker installs a fresh metrics registry around
    #: this shard and ships its snapshot (plus timing) in the result.
    observe: bool = False
    #: Span detail level (:data:`repro.obs.DETAIL_EPOCH` /
    #: :data:`~repro.obs.DETAIL_PROBE`) the worker records the shard's
    #: events and spans at, shipped back under the wire result's
    #: ``record`` key; ``None`` records nothing.
    record: str | None = None
    #: Directory for crash flight dumps; ``None`` disarms.
    flight_dir: str | None = None
    #: Directory for per-shard cProfile dumps; ``None`` disables.
    profile_dir: str | None = None


#: Per-process world cache: building a synthetic Internet dominates
#: small-shard runtime, and every shard of a study shares one.  The
#: cache is a small LRU rather than single-entry: a long-lived shared
#: pool (``ecnudp serve``) interleaves shards of *different* studies on
#: one worker, and clearing on every key change would rebuild worlds
#: per shard instead of per study.  Insertion order is the LRU order.
_WORLD_CACHE: dict[tuple, SyntheticInternet] = {}

#: Worlds kept per worker process.  Small on purpose: a full-scale
#: world is large, and a server mixing more than this many distinct
#: world keys at once should pay rebuilds, not RAM.
WORLD_CACHE_SIZE = 4


def _world_for(spec: StudySpec) -> SyntheticInternet:
    key = spec.world_key()
    world = _WORLD_CACHE.get(key)
    if world is None:
        # Evict least-recently-used worlds so long-lived pools don't
        # accumulate topologies beyond the budget.
        while len(_WORLD_CACHE) >= WORLD_CACHE_SIZE:
            _WORLD_CACHE.pop(next(iter(_WORLD_CACHE)))
        world = spec.build_world()
        if spec.plan is not None:
            world.install_fault_plan(spec.plan)
        _WORLD_CACHE[key] = world
    else:
        # Move-to-end marks the key most recently used.
        _WORLD_CACHE[key] = _WORLD_CACHE.pop(key)
    return world


def _dump_flight(log: EventLog, job: ShardJob, reason: str) -> None:
    """Dump the job's log tail as this shard's black box (if armed)."""
    if job.flight_dir is not None:
        log.dump(
            job.flight_dir,
            reason,
            label=f"shard-{job.shard.shard_id}",
            shard_id=job.shard.shard_id,
            shard_label=job.shard.label(),
            attempt=job.attempt,
        )


def execute_shard(job: ShardJob, world: SyntheticInternet | None = None) -> dict:
    """Run one shard to completion and return its wire-format result.

    ``world`` is the world to measure on, its fault plan installed —
    the caller's, on the inline path; ``None`` (a pool worker) takes
    this process's cached world for the job's spec.
    """
    shard = job.shard
    log = None
    if job.record is not None or job.flight_dir is not None:
        # One log per job: a crash dump narrates exactly the shard that
        # triggered it.  Its one-entry context map attributes the
        # shard's epochs, and so its span ids and event seqs, to it.
        context = (shard.kind, shard.vantage_key, shard.batch)
        log = EventLog(
            stamp_wall=False, detail=job.record, context_map={context: shard.shard_id}
        )
        log.emit(
            "shard-start",
            "debug",
            shard=shard.shard_id,
            label=shard.label(),
            attempt=job.attempt,
        )
    try:
        return _execute_shard(job, log, world)
    except BaseException as exc:
        if log is not None:
            log.emit("shard-crash", "alert", shard=shard.shard_id, error=repr(exc))
            _dump_flight(log, job, reason=f"{type(exc).__name__}: {exc}")
        raise


def _execute_shard(
    job: ShardJob, log: EventLog | None, world: SyntheticInternet | None
) -> dict:
    if job.fault is not None and job.attempt < job.fault.attempts:
        if log is not None:
            if job.fault.kind == FAULT_EXIT:
                log.emit("shard-killed", "alert", shard=job.shard.shard_id)
            log.emit(
                "fault-injected",
                "warning",
                shard=job.shard.shard_id,
                fault=job.fault.kind,
                attempt=job.attempt,
            )
        if job.fault.kind == FAULT_EXIT:
            # Simulate a crashed/killed worker: bypass all exception
            # handling, including the executor's own bookkeeping.  The
            # flight dump is written first — standing in for the
            # persistent ring file a production recorder would keep,
            # which is exactly what survives a real SIGKILL.
            if log is not None:
                _dump_flight(log, job, reason="injected hard kill (os._exit)")
            os._exit(1)
        if job.fault.kind == FAULT_HANG:
            # Simulate a wedged worker.  The parent abandons the pool
            # when its hang budget expires; once the sleep ends this
            # raise lands in the abandoned executor and frees the
            # process, so tests don't leak sleeping workers past exit.
            time.sleep(job.fault.hang_seconds)
        raise InjectedShardFault(
            f"injected failure for shard {job.shard.shard_id} "
            f"(attempt {job.attempt})"
        )
    if world is None:
        world = _world_for(job.spec)
    app = MeasurementApplication(
        world, targets=list(job.targets), **job.spec.probe_families()
    )
    shard = job.shard
    result: dict = {
        "format": WIRE_FORMAT,
        "shard_id": shard.shard_id,
        "kind": shard.kind,
    }
    # A fresh registry per shard, installed only around the measurement
    # itself, makes per-shard snapshots partition the study's counters
    # exactly: summing them reproduces a whole-study count bit for bit.
    # Worlds outlive shards, so always uninstall.
    registry = MetricsRegistry() if job.observe else None
    if registry is not None:
        world.network.set_metrics(registry)
    # Likewise the job's log records this shard only: its records carry
    # no wall stamps (they are part of the determinism contract), and a
    # retried shard re-records from scratch.
    recorder = log if job.record is not None else None
    if recorder is not None:
        world.set_log(recorder)
    profiler = None
    if job.profile_dir is not None:
        import cProfile

        profiler = cProfile.Profile()
    started = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        if shard.kind == KIND_TRACES:
            traces = app.run_planned(shard.planned_traces())
            result["traces"] = [trace.to_dict() for trace in traces]
        else:
            paths = app.run_traceroute_vantage(shard.vantage_key)
            result["paths"] = [encode_path(path) for path in paths]
    finally:
        if profiler is not None:
            profiler.disable()
        if registry is not None:
            world.network.set_metrics(None)
        if recorder is not None:
            world.set_log(None)
    result["elapsed"] = time.perf_counter() - started
    if registry is not None:
        result["metrics"] = registry.snapshot()
    if recorder is not None:
        result["record"] = recorder.stream(shard.shard_id)
    if profiler is not None:
        directory = Path(job.profile_dir)
        directory.mkdir(parents=True, exist_ok=True)
        profiler.dump_stats(directory / f"profile-shard-{shard.shard_id}.pstats")
    return result
