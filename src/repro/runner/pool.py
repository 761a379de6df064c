"""The worker pool every sharded study runs on.

:class:`SharedWorkerPool` is the one executor lifecycle of
:mod:`repro.runner`.  :func:`~repro.runner.run_study_parallel` builds
one for a single study when it is asked for ``workers=N`` and shuts it
down when the study ends; a long-lived study server builds one at
start-up and multiplexes **every** study over it, so the per-process
world cache (:mod:`repro.runner.worker`) keeps paying off across
studies that share a world key (:meth:`~repro.spec.StudySpec.world_key`).
Either way the :class:`~repro.runner.scheduler.ShardScheduler` only
acquires and invalidates; the pool's owner shuts it down.

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
    """One ``ProcessPoolExecutor``, shared by every study run on it.

    ``workers`` fixes the pool width for the pool's whole life.
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
        inline)."""
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
        """Tear the pool down for good; the owner calls it once."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------------
    @staticmethod
    def _context():
        """The start method for the calling process.

        ``fork`` starts a pool in milliseconds, but it copies only the
        calling thread and every open descriptor.  A process running one
        thread (the CLI, library callers, campaigns) has nothing to
        lose, so it gets the platform default.  A threaded process — the
        study server, whose studies acquire from ``asyncio.to_thread``
        threads — would hand its workers half-copied locks and every
        accepted client socket (peers never see EOF after the handler
        closes them), so its workers start from a freshly exec'd
        ``forkserver`` (or ``spawn``) process instead.
        """
        import multiprocessing

        if threading.active_count() == 1:
            return multiprocessing.get_context()
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
            # Fail fast on platforms where pool *creation* succeeds but
            # workers cannot start (missing semaphores, locked-down
            # sandboxes): surface it here, not mid-campaign.
            executor.submit(_probe_worker).result(timeout=60)
            return executor
        except Exception as exc:  # noqa: BLE001 - capability probe
            logger.warning("cannot start worker processes (%s); running inline", exc)
            return None
