"""Fault-tolerant shard scheduling over a shared worker pool.

The scheduler owns the lifecycle of a campaign's shards, not of the
processes that run them: it acquires an executor from a
:class:`~repro.runner.pool.SharedWorkerPool`, dispatches every shard to
it, collects results in completion order, and recovers when a shard
fails or its worker dies outright.  Failures are retried with capped
exponential backoff up to a per-shard attempt budget; a broken pool (a
worker killed hard enough to take the executor down —
``BrokenProcessPool``) or a wedged one is invalidated, a fresh executor
acquired, and every shard still owed resubmitted.  Because every shard
is a pure function of ``(params, shard)``, a retry cannot produce a
different result, so recovery never threatens the determinism
contract — it only threatens wall-clock time.

Without a pool (a sequential study), or when the pool cannot start
worker processes on this platform (no ``multiprocessing`` semaphores in
a sandbox, for instance), the scheduler runs the same jobs in-process
with the same retry policy, on the caller's world when it has one —
the results are the same, just without the parallelism.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .worker import ShardJob, execute_shard

logger = logging.getLogger("repro.runner")

#: Completion callback: (job, wire-format result dict).
CompletionFn = Callable[[ShardJob, dict], None]


class ShardExecutionError(RuntimeError):
    """A shard kept failing after exhausting its retry budget."""


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before declaring a shard dead."""

    #: Total executions allowed per shard (first try included).
    max_attempts: int = 3
    #: Base delay before a retry; doubles per attempt.
    backoff: float = 0.25
    #: Upper bound on any single backoff delay.
    backoff_cap: float = 2.0

    def delay(self, attempt: int) -> float:
        return min(self.backoff * (2.0 ** max(attempt - 1, 0)), self.backoff_cap)


class ShardScheduler:
    """Run shard jobs on a worker pool, retrying failures."""

    def __init__(
        self,
        retry: RetryPolicy | None = None,
        shard_timeout: float | None = None,
        metrics=None,
        log=None,
        flight_dir=None,
        pool=None,
    ) -> None:
        self.retry = retry if retry is not None else RetryPolicy()
        #: :class:`~repro.runner.pool.SharedWorkerPool` to execute on;
        #: ``None`` runs every shard inline.  The scheduler never tears
        #: the executor down itself — a dead/wedged one is
        #: *invalidated* (one rebuild even if many concurrent studies
        #: diagnose it) and the pool's owner shuts it down.
        self.pool = pool
        #: Seconds of *global* inactivity (no shard completing) after
        #: which the pool is presumed hung, torn down, and all
        #: in-flight shards resubmitted.  ``None`` disables the check.
        self.shard_timeout = shard_timeout
        #: Parent-side :mod:`repro.obs` registry for runner counters
        #: (``runner.shards_dispatched`` etc.); falsey when disabled.
        self.metrics = metrics
        #: Parent-side :class:`~repro.obs.EventLog` the scheduler
        #: narrates shard lifecycle into (dispatch, retries, gang
        #: recoveries, pool rebuilds); falsey when disabled.  Its tail
        #: is dumped to ``flight_dir`` whenever a recovery path fires,
        #: so even a run that ultimately succeeds leaves a black box of
        #: every brush with failure.  These records never join a shard
        #: stream, so they stay out of the merge contract.
        self.log = log
        self.flight_dir = flight_dir

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(
        self,
        jobs: Sequence[ShardJob],
        on_complete: CompletionFn | None = None,
        world=None,
    ) -> list[dict]:
        """Execute every job; returns results in completion order.

        ``world`` is the caller's world: in-process execution measures
        on it instead of building its own (pool workers never see it).
        """
        if not jobs:
            return []
        if self.metrics:
            self.metrics.incr("runner.shards_dispatched", len(jobs))
        executor = self.pool.acquire() if self.pool is not None else None
        if self.log:
            width = self.pool.workers if executor is not None else 0
            self.log.emit("dispatch", "info", shards=len(jobs), workers=width)
        if executor is None:
            return self._run_inline(jobs, on_complete, world)
        return self._run_pooled(jobs, executor, on_complete)

    # ------------------------------------------------------------------
    # Inline path: same jobs, same retry policy, one process
    # ------------------------------------------------------------------
    def _run_inline(
        self,
        jobs: Sequence[ShardJob],
        on_complete: CompletionFn | None,
        world,
    ) -> list[dict]:
        if world is not None:
            # The jobs share one spec.  Its plan is installed for the
            # run only, so a retained world stays pristine.
            world.install_fault_plan(jobs[0].spec.plan)
        results = []
        try:
            for job in jobs:
                while True:
                    try:
                        result = execute_shard(job, world)
                    except Exception as exc:  # noqa: BLE001 - retry boundary
                        job = self._next_attempt(job, exc)
                        continue
                    break
                results.append(result)
                if on_complete is not None:
                    on_complete(job, result)
        finally:
            if world is not None:
                world.install_fault_plan(None)
        return results

    # ------------------------------------------------------------------
    # Pooled path
    # ------------------------------------------------------------------
    def _run_pooled(
        self,
        jobs: Sequence[ShardJob],
        executor,
        on_complete: CompletionFn | None,
    ) -> list[dict]:
        from concurrent.futures import FIRST_COMPLETED, CancelledError, wait
        from concurrent.futures.process import BrokenProcessPool

        results: list[dict] = []
        pending: dict = {}
        executor = self._submit_batch(executor, pending, list(jobs))
        while pending:
            done, _ = wait(
                pending, timeout=self.shard_timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                # Nothing completed within the hang budget: the pool is
                # wedged.  Abandon it and start over with the shards
                # still owed.
                executor = self._recover(
                    executor, pending, [], TimeoutError("no shard completed in time")
                )
                continue
            completed: list[tuple[ShardJob, dict]] = []
            failed: list[tuple[ShardJob, Exception]] = []
            crashed: list[ShardJob] = []
            pool_error: Exception | None = None
            for future in done:
                job = pending.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool as exc:
                    crashed.append(job)
                    pool_error = exc
                except CancelledError as exc:
                    # Only a pool teardown cancels in-flight futures
                    # (this scheduler never cancels its own): a sibling
                    # study's recovery tore the shared executor down
                    # under us.  Same treatment as a broken pool — gang
                    # retry on a fresh one.
                    crashed.append(job)
                    pool_error = exc
                except Exception as exc:  # noqa: BLE001 - retry boundary
                    failed.append((job, exc))
                else:
                    completed.append((job, result))
            for job, result in completed:
                results.append(result)
                if on_complete is not None:
                    on_complete(job, result)
            if crashed:
                # A worker died hard and took the pool with it.  The
                # executor cannot say which job it was running, so every
                # uncollected shard is charged one attempt and
                # resubmitted on a fresh pool: the guilty shard is
                # guaranteed to burn budget, and a fault that keeps
                # killing workers exhausts everyone and aborts.
                owed = crashed + [job for job, _ in failed]
                executor = self._recover(executor, pending, owed, pool_error)
            else:
                retries = [self._next_attempt(job, exc) for job, exc in failed]
                executor = self._submit_batch(executor, pending, retries)
        return results

    def _submit_batch(self, executor, pending, batch):
        """Submit jobs, surviving the shared executor dying mid-submit.

        A sibling study's recovery may shut the executor down between
        our ``wait`` and this submit, which raises ``RuntimeError``; the
        unsubmitted remainder plus everything already in flight is then
        gang-retried on a fresh executor.  Returns the (possibly
        replaced) executor.
        """
        for index, job in enumerate(batch):
            try:
                pending[executor.submit(execute_shard, job)] = job
            except RuntimeError as exc:
                return self._recover(executor, pending, batch[index:], exc)
        return executor

    def _recover(self, executor, pending: dict, owed: list, cause: Exception):
        """Retire a dead executor and gang-retry on a fresh one.

        Used when failure cannot be attributed to a single shard (dead
        pool, global hang): every shard still owed — ``owed`` plus all
        of ``pending`` — is charged one attempt, and after one shared
        backoff all are resubmitted.  Refills ``pending`` in place and
        returns the fresh executor.
        """
        owed = owed + list(pending.values())
        pending.clear()
        self.pool.invalidate(executor)
        if self.metrics:
            self.metrics.incr("runner.pool_rebuilds")
        if self.log:
            self.log.emit("pool-rebuild", "warning")
        executor = self.pool.acquire()
        if executor is None:
            self._dump_flight("worker pool died and could not be rebuilt")
            raise ShardExecutionError("worker pool died and could not be rebuilt")
        if self.log:
            self.log.emit(
                "gang-recovery",
                "warning",
                cause=repr(cause),
                shards=[job.shard.shard_id for job in owed],
            )
        self._dump_flight(f"gang recovery: {cause}")
        retries = [self._next_attempt(job, cause, sleep=False) for job in owed]
        if self.metrics:
            self.metrics.incr("runner.shards_recovered", len(retries))
        delay = max(
            (self.retry.delay(retry.attempt) for retry in retries), default=0.0
        )
        if delay > 0:
            time.sleep(delay)
        pending.update(
            (executor.submit(execute_shard, retry), retry) for retry in retries
        )
        return executor

    def _dump_flight(self, reason: str) -> None:
        """Dump the parent black box (no-op when not armed)."""
        if self.log and self.flight_dir is not None:
            self.log.dump(self.flight_dir, reason)

    # ------------------------------------------------------------------
    # Retry bookkeeping
    # ------------------------------------------------------------------
    def _next_attempt(
        self, job: ShardJob, exc: Exception, sleep: bool = True
    ) -> ShardJob:
        attempt = job.attempt + 1
        if attempt >= self.retry.max_attempts:
            if self.log:
                self.log.emit(
                    "budget-exhausted",
                    "alert",
                    shard=job.shard.shard_id,
                    error=repr(exc),
                )
            self._dump_flight(f"shard {job.shard.shard_id} exhausted its retry budget")
            raise ShardExecutionError(
                f"shard {job.shard.shard_id} ({job.shard.label()}) failed "
                f"after {attempt} attempts: {exc}"
            ) from exc
        if self.metrics:
            self.metrics.incr("runner.shards_retried")
        if self.log:
            self.log.emit(
                "shard-retry",
                "warning",
                shard=job.shard.shard_id,
                attempt=attempt,
                error=repr(exc),
            )
        delay = self.retry.delay(attempt)
        logger.warning(
            "shard %d (%s) failed (%s); retry %d/%d in %.2fs",
            job.shard.shard_id,
            job.shard.label(),
            exc,
            attempt,
            self.retry.max_attempts - 1,
            delay,
        )
        if sleep and delay > 0:
            time.sleep(delay)
        return dataclasses.replace(job, attempt=attempt)
