"""A process pool shared by many concurrently running studies.

The :class:`~repro.runner.scheduler.ShardScheduler` normally owns its
executor outright: one study, one pool, torn down when the campaign
ends.  A long-lived study server inverts that — many studies in flight
at once, all multiplexed over **one** pool of worker processes so the
per-process world cache (:mod:`repro.runner.worker`) keeps paying off
across studies that share a world key
(:meth:`~repro.spec.StudySpec.world_key`).

:class:`SharedWorkerPool` provides that shared executor with the same
degradation and recovery semantics the owned path has:

* creation is lazy and capability-probed — on platforms where worker
  processes cannot start the pool acquires to ``None`` and every
  scheduler falls back to inline execution;
* a wedged or broken pool is *invalidated*, which tears the executor
  down and lets the next acquirer rebuild it.  Invalidation is keyed
  by the executor instance, so two studies discovering the same dead
  pool concurrently trigger exactly one rebuild;
* shards are pure functions of their job, so a rebuild that cancels
  another study's in-flight shards only costs that study a gang retry,
  never its determinism.
"""

from __future__ import annotations

import logging
import threading
import time

logger = logging.getLogger("repro.runner")


def _probe_worker() -> bool:
    """Trivial task proving worker processes actually start."""
    return True


class SharedWorkerPool:
    """One ``ProcessPoolExecutor`` multiplexed across studies.

    ``workers`` fixes the pool width for the pool's whole life; unlike
    the owned path the width is *not* clamped per campaign, because the
    pool serves many campaigns at once.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"a shared pool needs at least one worker: {workers!r}")
        self.workers = workers
        self._lock = threading.Lock()
        self._executor = None
        self._closed = False
        #: ``True`` once pool creation has failed terminally (platform
        #: cannot start worker processes); acquirers then get ``None``
        #: immediately instead of re-probing per study.
        self._unavailable = False
        #: Executors retired by :meth:`invalidate`; rebuilds count here.
        self.rebuilds = 0
        #: Monotonic stamp of the last successful :meth:`acquire`,
        #: ``None`` until the pool first hands out an executor.
        self._last_acquire: float | None = None

    # ------------------------------------------------------------------
    def acquire(self):
        """Return the live shared executor, or ``None`` when worker
        processes are unavailable on this platform (callers then run
        inline, exactly as the owned scheduler path degrades)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("shared worker pool is shut down")
            if self._unavailable:
                return None
            if self._executor is None:
                self._executor = self._build()
                if self._executor is None:
                    self._unavailable = True
            if self._executor is not None:
                self._last_acquire = time.monotonic()
            return self._executor

    def invalidate(self, executor) -> None:
        """Retire a dead/wedged executor so the next acquire rebuilds.

        Idempotent per executor instance: concurrent studies that both
        diagnose the same dead pool cause one teardown, one rebuild.
        """
        with self._lock:
            if executor is None or executor is not self._executor:
                return
            self._executor = None
            self.rebuilds += 1
        executor.shutdown(wait=False, cancel_futures=True)

    def describe(self) -> dict:
        """Liveness snapshot for health endpoints.

        ``workers_alive`` counts the executor's worker processes that
        are actually running right now; a lazily-unstarted pool reports
        ``started: False`` with zero alive, which is healthy (the first
        study will build it), while ``lost: True`` means the pool can
        no longer execute shards: the platform probe failed terminally,
        the pool was shut down, or every started worker process died.
        """
        with self._lock:
            executor = self._executor
            closed = self._closed
            unavailable = self._unavailable
            rebuilds = self.rebuilds
            last_acquire = self._last_acquire
        alive = 0
        started = executor is not None
        if started:
            # ProcessPoolExecutor keeps its worker Process objects in
            # `_processes`; private, but stable across the supported
            # CPythons and the only window into per-worker liveness.
            processes = getattr(executor, "_processes", None) or {}
            alive = sum(1 for process in processes.values() if process.is_alive())
        lost = closed or unavailable or (started and alive == 0)
        document = {
            "workers": self.workers,
            "workers_alive": alive,
            "started": started,
            "rebuilds": rebuilds,
            "lost": lost,
        }
        if last_acquire is not None:
            document["last_acquire_age_seconds"] = round(
                time.monotonic() - last_acquire, 3
            )
        return document

    def shutdown(self) -> None:
        """Tear the pool down for good (server shutdown path)."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------------
    @staticmethod
    def _context():
        """A start method whose workers do not inherit the parent's
        descriptors.

        The shared pool lives inside a serving process: plain ``fork``
        would copy every accepted client socket into the workers, which
        then hold those connections open long after the handler closes
        them (clients never see EOF), and forking a threaded asyncio
        process is unsafe anyway.  ``forkserver`` (and ``spawn``) start
        workers from a freshly exec'd process instead.
        """
        import multiprocessing

        try:
            context = multiprocessing.get_context("forkserver")
            # Preload the shard worker so forks start hot.  (As with any
            # spawn-family context, the embedding __main__ must be
            # import-safe; the capability probe degrades to inline
            # execution when it is not.)
            context.set_forkserver_preload(["repro.runner.worker"])
            return context
        except ValueError:  # pragma: no cover - platform-dependent
            return multiprocessing.get_context("spawn")

    def _build(self):
        try:
            from concurrent.futures import ProcessPoolExecutor
        except ImportError as exc:  # pragma: no cover - exotic platforms
            logger.warning("process pools unavailable (%s); running inline", exc)
            return None
        try:
            executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=self._context()
            )
            # Same fail-fast capability probe as the owned path: surface
            # sandboxes without multiprocessing semaphores here, not in
            # the middle of somebody's campaign.
            executor.submit(_probe_worker).result(timeout=60)
            return executor
        except Exception as exc:  # noqa: BLE001 - capability probe
            logger.warning("cannot start worker processes (%s); running inline", exc)
            return None
