"""Shard execution inside a worker process.

A worker receives a :class:`ShardJob` — everything needed to rebuild
the study context from scratch: the :class:`~repro.spec.StudySpec`
(with its fault plan already expanded by the parent) to rebuild the
synthetic Internet, the probe target list (discovery runs once, in the
parent), and the shard to execute.  Worlds are cached per process, so
a worker pays the build cost once and then runs any number of shards
against it; hermetic measurement epochs guarantee the execution order
across shards cannot influence results.

Observability rides along per job: ``observe`` installs a fresh
metrics registry, ``span_detail`` a fresh span recorder (its subtree
ships back in the wire result), ``profile_dir`` wraps the measurement
in :mod:`cProfile`, and ``flight_dir`` arms the process-wide crash
flight recorder — a bounded ring of span/fault/lifecycle events dumped
to ``flight-shard-<id>.json`` when a shard execution dies.

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
from ..obs.flight import FlightRecorder
from ..obs.metrics import MetricsRegistry
from ..obs.spans import SpanRecorder
from ..scenario.internet import SyntheticInternet
from ..spec import StudySpec
from .merge import WIRE_FORMAT, encode_path, encode_trace
from .shard import KIND_TRACES, Shard, shard_context_map

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
    #: :data:`~repro.obs.DETAIL_PROBE`); ``None`` records no spans.
    span_detail: str | None = None
    #: When True the worker buffers structured events (epoch starts,
    #: chaos installations) in a fresh per-shard EventLog and ships
    #: them back under the wire result's ``events`` key.
    events: bool = False
    #: Directory for crash flight-recorder dumps; ``None`` disarms.
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

#: Lifetime cache hits/misses for this worker process (observability
#: and the serve dedupe tests; not part of the shard wire format).
_WORLD_CACHE_STATS = {"hits": 0, "misses": 0}

#: Per-process flight recorder: the black box this worker dumps when a
#: shard execution dies.  One ring per process (not per shard) so the
#: tail can span a world rebuild or an earlier shard's spans.
_FLIGHT: FlightRecorder | None = None


def _world_for(spec: StudySpec) -> SyntheticInternet:
    key = spec.world_key()
    world = _WORLD_CACHE.get(key)
    if world is None:
        _WORLD_CACHE_STATS["misses"] += 1
        # Evict least-recently-used worlds so long-lived pools don't
        # accumulate topologies beyond the budget.
        while len(_WORLD_CACHE) >= WORLD_CACHE_SIZE:
            _WORLD_CACHE.pop(next(iter(_WORLD_CACHE)))
        world = spec.build_world()
        if spec.plan is not None:
            world.install_fault_plan(spec.plan)
        _WORLD_CACHE[key] = world
    else:
        _WORLD_CACHE_STATS["hits"] += 1
        # Move-to-end marks the key most recently used.
        _WORLD_CACHE[key] = _WORLD_CACHE.pop(key)
    return world


def world_cache_stats() -> dict:
    """This process's world-cache hit/miss counters (a copy)."""
    return dict(_WORLD_CACHE_STATS)


def _flight_recorder() -> FlightRecorder:
    global _FLIGHT
    if _FLIGHT is None:
        _FLIGHT = FlightRecorder(label="worker")
    return _FLIGHT


def _dump_flight(flight: FlightRecorder, job: ShardJob, reason: str) -> None:
    """Dump the worker's ring as this shard's black box."""
    flight.label = f"shard-{job.shard.shard_id}"
    flight.dump(
        job.flight_dir,
        reason=reason,
        shard_id=job.shard.shard_id,
        shard_label=job.shard.label(),
        attempt=job.attempt,
    )


def execute_shard(job: ShardJob) -> dict:
    """Run one shard to completion and return its wire-format result."""
    flight = _flight_recorder() if job.flight_dir is not None else None
    if flight:
        flight.record(
            "shard-start",
            shard=job.shard.shard_id,
            label=job.shard.label(),
            attempt=job.attempt,
        )
    try:
        result = _execute_shard(job, flight)
    except BaseException as exc:
        if flight is not None:
            flight.record(
                "shard-crash", shard=job.shard.shard_id, error=repr(exc)
            )
            _dump_flight(flight, job, reason=f"{type(exc).__name__}: {exc}")
        raise
    if flight:
        flight.record(
            "shard-done",
            shard=job.shard.shard_id,
            elapsed=round(result.get("elapsed", 0.0), 3),
        )
    return result


def _execute_shard(job: ShardJob, flight: FlightRecorder | None) -> dict:
    if job.fault is not None and job.attempt < job.fault.attempts:
        if flight is not None:
            # The injected crash fires before the measurement builds
            # its per-shard event log, so narrate the injection into a
            # fresh shard-scoped log first: the crash dump's event tail
            # then describes the *triggering* shard, never whatever
            # shard this worker process happened to run last.
            crash_log = None
            if job.events:
                crash_log = EventLog(stamp_wall=False, shard=job.shard.shard_id)
                crash_log.emit(
                    "fault-injected",
                    "warning",
                    fault=job.fault.kind,
                    attempt=job.attempt,
                )
            flight.attach_events(crash_log)
        if job.fault.kind == FAULT_EXIT:
            # Simulate a crashed/killed worker: bypass all exception
            # handling, including the executor's own bookkeeping.  The
            # flight recorder flushes first — standing in for the
            # persistent ring file a production recorder would keep,
            # which is exactly what survives a real SIGKILL.
            if flight is not None:
                flight.record("shard-killed", shard=job.shard.shard_id)
                _dump_flight(flight, job, reason="injected hard kill (os._exit)")
            os._exit(1)
        if job.fault.kind == FAULT_HANG:
            # Simulate a wedged worker.  The parent abandons the pool
            # when its hang budget expires; once the sleep ends this
            # raise lands in the abandoned executor and frees the
            # process, so tests don't leak sleeping workers past exit.
            if flight is not None:
                flight.record(
                    "shard-hang",
                    shard=job.shard.shard_id,
                    hang_seconds=job.fault.hang_seconds,
                )
            time.sleep(job.fault.hang_seconds)
        raise InjectedShardFault(
            f"injected failure for shard {job.shard.shard_id} "
            f"(attempt {job.attempt})"
        )
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
    # itself, makes per-shard snapshots partition the sequential run's
    # counters exactly: summing them reproduces the sequential totals
    # bit for bit.  Cached worlds outlive shards, so always uninstall.
    registry = MetricsRegistry() if job.observe else None
    if registry is not None:
        world.network.set_observability(registry)
    # Likewise a fresh span recorder and event log per shard: spans ship
    # back in the result, events carry no wall stamps (they are part of
    # the determinism contract), and both resolve epochs through the
    # full context map, so sequential and sharded runs mint identical
    # ids and (shard, seq) pairs.  A retried shard re-records from
    # scratch.
    context_map = None
    if job.span_detail is not None or job.events:
        context_map = shard_context_map(world.params.schedule)
    spans = None
    if job.span_detail is not None:
        spans = SpanRecorder(
            detail=job.span_detail, context_map=context_map, flight=flight
        )
        world.set_span_recorder(spans)
    event_log = None
    if job.events:
        event_log = EventLog(stamp_wall=False, context_map=context_map)
        world.set_event_log(event_log)
    if flight is not None:
        # (Re)attach per job — also detaches a previous shard's log
        # when this job runs without events, so a crash dump never
        # carries a stale tail.  Not detached in the finally below:
        # the crash dump happens *after* that finally runs.
        flight.attach_events(event_log)
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
            result["traces"] = [encode_trace(trace) for trace in traces]
        else:
            paths = app.run_traceroute_vantage(shard.vantage_key)
            result["paths"] = [encode_path(path) for path in paths]
    finally:
        if profiler is not None:
            profiler.disable()
        if registry is not None:
            world.network.set_observability(None)
        if spans is not None:
            world.set_span_recorder(None)
        if event_log is not None:
            world.set_event_log(None)
    result["elapsed"] = time.perf_counter() - started
    if registry is not None:
        result["metrics"] = registry.snapshot()
    if spans is not None:
        result["spans"] = spans.shard_exports()
    if event_log is not None:
        result["events"] = event_log.export()
    if profiler is not None:
        directory = Path(job.profile_dir)
        directory.mkdir(parents=True, exist_ok=True)
        profiler.dump_stats(directory / f"profile-shard-{shard.shard_id}.pstats")
    return result
