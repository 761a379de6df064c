"""Concurrent study execution behind the queue.

The scheduler owns the execution side of the server: it drains the
:class:`~repro.serve.queue.StudyQueue` into at most ``max_concurrent``
studies in flight, runs each study in a worker thread (the event loop
never blocks on simulation work), multiplexes every sharded study over
one :class:`~repro.runner.SharedWorkerPool`, and fans per-study
progress back into async-consumable :class:`RunHandle` feeds that the
HTTP layer streams.

Two caches make the multi-tenant case cheap:

* the **parent world cache** here — a spec's
  :meth:`~repro.spec.StudySpec.world_key` to a built fault-free
  synthetic Internet *plus its first-discovery target list*.  The pair
  matters: DNS pool rotation is stateful, so only the first discovery
  against a world matches a fresh ``Study.run``; caching world and
  targets together keeps served runs bit-identical to direct ones.
* the **per-process world cache** inside pool workers
  (:mod:`repro.runner.worker`), shared across studies because the pool
  itself is shared.

Sequential execution (no pool) takes a per-world lock — a world is
mutated while a sequential study runs on it, so same-key studies
serialise; pooled studies only read the parent world and run
lock-free.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..core.discovery import PoolDiscovery
from ..obs import DURATION_BOUNDS, MetricsRegistry
from ..scenario.internet import SyntheticInternet
from ..spec import StudySpec
from ..study import Study
from .index import (
    STATUS_CANCELLED,
    STATUS_COMPLETE,
    STATUS_FAILED,
    STATUS_QUEUED,
    STATUS_RUNNING,
    StudyIndex,
    register_campaign,
)
from .queue import StudyQueue, Submission

logger = logging.getLogger("repro.serve")

#: Parent-side worlds kept; small — worlds are the big allocation.
PARENT_WORLD_CACHE_SIZE = 4


@dataclass
class RunHandle:
    """Live state of one submitted run, consumable from the loop.

    ``events`` only grows; stream consumers remember their offset and
    wait on ``changed`` for more.  All mutation happens on the event
    loop thread (worker threads post through ``call_soon_threadsafe``),
    so readers on the loop never see torn state.
    """

    submission: Submission
    status: str = STATUS_QUEUED
    error: str | None = None
    events: list[dict] = field(default_factory=list)
    changed: asyncio.Event = field(default_factory=asyncio.Event)
    #: Monotonic stamp of admission; queue-wait = started_at - queued_at.
    queued_at: float = field(default_factory=time.monotonic)
    started_at: float | None = None
    finished_at: float | None = None

    @property
    def run_id(self) -> str:
        return self.submission.run_id

    @property
    def done(self) -> bool:
        return self.status in (STATUS_COMPLETE, STATUS_FAILED, STATUS_CANCELLED)

    def post(self, event: dict) -> None:
        """Append an event and wake streamers (loop thread only)."""
        self.events.append(event)
        self.changed.set()
        self.changed = asyncio.Event() if not self.done else self.changed

    def describe(self) -> dict:
        payload = {
            "run_id": self.run_id,
            "tenant": self.submission.tenant,
            "priority": self.submission.priority,
            "status": self.status,
            "params": self.submission.params(),
            "events": len(self.events),
        }
        if self.error is not None:
            payload["error"] = self.error
        if self.started_at is not None and self.finished_at is not None:
            payload["elapsed_seconds"] = round(self.finished_at - self.started_at, 3)
        return payload


class _RunEventView:
    """A per-run face of the server's event log.

    Folds the run's correlation fields (``run_id``, ``tenant``) into
    every emission before forwarding to the shared log — the runner's
    :class:`~repro.runner.ShardScheduler` narrates through one of
    these, so concurrent studies stay distinguishable in ``/events``
    without rebinding the shared log's context (which would race).
    """

    __slots__ = ("_log", "_context")

    def __init__(self, log, **context) -> None:
        self._log = log
        self._context = {k: v for k, v in context.items() if v is not None}

    def __bool__(self) -> bool:
        return bool(self._log)

    def emit(self, kind: str, level: str = "info", /, **fields):
        return self._log.emit(kind, level, **{**self._context, **fields})


@dataclass
class _WorldEntry:
    world: SyntheticInternet
    targets: list[int]
    #: Exclusive access for sequential runs (which mutate the world).
    lock: threading.Lock = field(default_factory=threading.Lock)


class WorldCache:
    """Thread-safe LRU of built worlds + first-discovery targets."""

    def __init__(self, metrics=None) -> None:
        self.metrics = metrics
        self._lock = threading.Lock()
        self._entries: dict[tuple, _WorldEntry] = {}
        #: One build lock per key being built: a second request for a
        #: world under construction waits for it instead of building a
        #: duplicate, so misses count distinct worlds, not races.
        self._building: dict[tuple, threading.Lock] = {}

    def _cached(self, key: tuple) -> _WorldEntry | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries[key] = self._entries.pop(key)  # mark MRU
                if self.metrics:
                    self.metrics.incr("serve.world_cache.hits")
            return entry

    def entry_for(self, spec: StudySpec) -> _WorldEntry:
        key = spec.world_key()
        entry = self._cached(key)
        if entry is not None:
            return entry
        with self._lock:
            building = self._building.setdefault(key, threading.Lock())
        # Build outside the cache lock: worlds take real time and two
        # distinct keys must be able to build concurrently.
        with building:
            entry = self._cached(key)
            if entry is not None:
                return entry
            if self.metrics:
                self.metrics.incr("serve.world_cache.misses")
            world = spec.build_world()
            targets = PoolDiscovery(
                world.vantage_hosts["ugla-wired"],
                world.dns_addr,
                world.pool.zone_names(),
            ).run().addresses
            entry = _WorldEntry(world=world, targets=list(targets))
            with self._lock:
                while len(self._entries) >= PARENT_WORLD_CACHE_SIZE:
                    self._entries.pop(next(iter(self._entries)))
                self._entries[key] = entry
                del self._building[key]
        return entry


class StudyScheduler:
    """Drain the queue into concurrently executing studies."""

    def __init__(
        self,
        queue: StudyQueue,
        index: StudyIndex,
        studies_dir: str | Path,
        pool=None,
        max_concurrent: int = 2,
        metrics: MetricsRegistry | None = None,
        events=None,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1: {max_concurrent!r}")
        self.queue = queue
        self.index = index
        self.studies_dir = Path(studies_dir)
        #: Shared :class:`~repro.runner.SharedWorkerPool`; ``None``
        #: runs every study sequentially in its thread.
        self.pool = pool
        self.max_concurrent = max_concurrent
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Server-wide live :class:`~repro.obs.EventLog` (wall-clock
        #: side — never part of any determinism contract); ``None``
        #: disables serve-layer event narration.
        self.events = events
        self.worlds = WorldCache(metrics=self.metrics)
        self.runs: dict[str, RunHandle] = {}
        self._tasks: set[asyncio.Task] = set()
        self._wakeup = asyncio.Event()
        self._draining = False
        self._loop: asyncio.AbstractEventLoop | None = None
        #: Recent run durations feeding the queue's Retry-After hint.
        self._durations: list[float] = []

    # ------------------------------------------------------------------
    # Run registry
    # ------------------------------------------------------------------
    def track(self, submission: Submission, status: str = STATUS_QUEUED) -> RunHandle:
        handle = RunHandle(submission=submission, status=status)
        self.runs[submission.run_id] = handle
        return handle

    def handle(self, run_id: str) -> RunHandle | None:
        return self.runs.get(run_id)

    def kick(self) -> None:
        """Wake the dispatch loop (new submission, freed slot...)."""
        self._wakeup.set()

    @property
    def running_count(self) -> int:
        return len(self._tasks)

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------
    async def run_forever(self) -> None:
        """Dispatch until cancelled; owned by the server's lifetime."""
        self._loop = asyncio.get_running_loop()
        while True:
            self._dispatch_ready()
            self._wakeup.clear()
            await self._wakeup.wait()

    def _dispatch_ready(self) -> None:
        while not self._draining and len(self._tasks) < self.max_concurrent:
            submission = self.queue.pop()
            if submission is None:
                return
            handle = self.runs.get(submission.run_id)
            if handle is None:
                handle = self.track(submission)
            handle.status = STATUS_RUNNING
            handle.started_at = time.monotonic()
            queue_wait = handle.started_at - handle.queued_at
            self.metrics.observe(
                "serve.queue_wait_seconds", queue_wait, DURATION_BOUNDS
            )
            if self.events:
                self.events.emit(
                    "run-start",
                    "info",
                    run_id=submission.run_id,
                    tenant=submission.tenant,
                    queue_wait=round(queue_wait, 3),
                )
            handle.post({"type": "started", "run_id": submission.run_id})
            try:
                self.index.set_status(submission.run_id, STATUS_RUNNING)
            except KeyError:
                pass
            task = asyncio.create_task(self._run_one(handle))
            self._tasks.add(task)
            task.add_done_callback(self._task_finished)

    def _task_finished(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        if not task.cancelled() and task.exception() is not None:
            logger.exception("study task died", exc_info=task.exception())
        self.kick()

    async def _run_one(self, handle: RunHandle) -> None:
        submission = handle.submission
        loop = asyncio.get_running_loop()

        def progress(done: int, total: int, label: str) -> None:
            # Called from the study thread: hop to the loop before
            # touching the handle.
            loop.call_soon_threadsafe(
                handle.post,
                {"type": "progress", "done": done + 1, "total": total, "label": label},
            )

        try:
            outcome = await asyncio.to_thread(self._execute, submission, progress)
        except Exception as exc:  # noqa: BLE001 - per-run failure boundary
            logger.warning("run %s failed: %s", submission.run_id, exc)
            handle.status = STATUS_FAILED
            handle.error = f"{type(exc).__name__}: {exc}"
            self.metrics.incr("serve.failed")
            if self.events:
                self.events.emit(
                    "run-failed",
                    "warning",
                    run_id=submission.run_id,
                    tenant=submission.tenant,
                    error=handle.error,
                )
            try:
                self.index.set_status(submission.run_id, STATUS_FAILED, error=handle.error)
            except KeyError:
                pass
        else:
            handle.status = STATUS_COMPLETE
            self.metrics.incr("serve.completed")
            if self.events:
                self.events.emit(
                    "run-complete",
                    "info",
                    run_id=submission.run_id,
                    tenant=submission.tenant,
                )
            # Register completion here, on the loop thread: the index
            # follows a single-writer discipline per root (lost updates
            # otherwise — a second instance's flush would revert other
            # runs' statuses from its stale cache), so the save path
            # below deliberately archives without touching the index.
            entry = dict(
                scale=submission.spec.scale,
                seed=submission.spec.seed,
                status=STATUS_COMPLETE,
                tenant=submission.tenant,
            )
            if outcome is not None and outcome.get("kind") == "campaign":
                campaign_dir = Path(outcome["directory"])
                register_campaign(
                    self.index, campaign_dir, outcome["epochs"], adopt=False, **entry
                )
                if campaign_dir.name != submission.run_id:
                    # The submission itself still resolves: point the
                    # minted run id at the campaign archive too.
                    self.index.register(
                        submission.run_id,
                        campaign_dir,
                        **entry,
                        kind="campaign",
                        campaign=campaign_dir.name,
                    )
            else:
                self.index.register(
                    submission.run_id, self.studies_dir / submission.run_id, **entry
                )
        finally:
            handle.finished_at = time.monotonic()
            if handle.started_at is not None:
                self._durations.append(handle.finished_at - handle.started_at)
                del self._durations[:-20]
                self.queue.avg_run_seconds = sum(self._durations) / len(self._durations)
            self.queue.finish(submission.run_id)
            handle.post(
                {
                    "type": "finished",
                    "run_id": submission.run_id,
                    "status": handle.status,
                    **({"error": handle.error} if handle.error else {}),
                }
            )
            self.kick()

    # ------------------------------------------------------------------
    # Study execution (worker thread)
    # ------------------------------------------------------------------
    def _run_events(self, submission: Submission):
        """The run-scoped event view, or ``None`` with events off."""
        if not self.events:
            return None
        return _RunEventView(
            self.events, run_id=submission.run_id, tenant=submission.tenant
        )

    def _execute(self, submission: Submission, progress) -> dict | None:
        if submission.campaign is not None:
            return self._execute_campaign(submission, progress)
        spec = submission.spec
        entry = self.worlds.entry_for(spec)
        run_dir = self.studies_dir / submission.run_id
        common = dict(
            vars(spec), progress=progress, world=entry.world, targets=entry.targets
        )
        if self.pool is not None:
            study = Study.run(
                pool=self.pool, event_log=self._run_events(submission), **common
            )
        else:
            # Sequential runs mutate the world: same-world studies
            # serialise on the world's lock, distinct worlds
            # run concurrently.
            with entry.lock:
                study = Study.run(**common)
        # _run_one registers the completed archive through the
        # server's index instance (the root's single writer).
        study.save(run_dir)
        return None

    def _execute_campaign(self, submission: Submission, progress) -> dict:
        """Run (or extend) a campaign archive under the studies root.

        A campaign with an explicit ``id`` is the recurring-job case:
        the first submission creates the archive, later ones resume it
        and raise the epoch target by another batch — the driver's
        resume validation (checkpoints, digests, crash cleanup) runs on
        every extension.  A submission whose spec disagrees with the
        existing archive's spec fails loudly instead of silently
        measuring a different world under the same name.

        Campaign epochs run drifted worlds, which the parent world
        cache does not hold — the driver builds each epoch's world
        itself (workers still reuse theirs through the drift-aware
        per-process cache).
        """
        from ..campaign import CampaignArchive, CampaignDriver

        spec = submission.campaign
        directory = self.studies_dir / (submission.campaign_id or submission.run_id)
        if (directory / "campaign.json").exists():
            existing = CampaignArchive.load(directory)
            if existing.spec != spec:
                raise ValueError(
                    f"campaign {directory.name!r} already exists with a "
                    f"different spec; submit under a new campaign id"
                )
            driver = CampaignDriver.resume(
                directory,
                target_epochs=existing.target_epochs + submission.epochs,
                pool=self.pool,
                progress=progress,
                events=self._run_events(submission),
            )
        else:
            driver = CampaignDriver.create(
                directory,
                spec,
                target_epochs=submission.epochs,
                pool=self.pool,
                progress=progress,
                events=self._run_events(submission),
            )
        driver.run()
        return {
            "kind": "campaign",
            "directory": str(directory),
            "epochs": [path.name for path in driver.archive.epoch_dirs()],
        }

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Stop dispatching and wait for in-flight studies to finish."""
        self._draining = True
        while self._tasks:
            await asyncio.wait(set(self._tasks))
