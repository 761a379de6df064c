"""Tests for the worker pool every sharded study runs on."""

import multiprocessing
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.runner import (
    FAULT_HANG,
    FAULT_RAISE,
    FaultSpec,
    RetryPolicy,
    ShardExecutionError,
    ShardScheduler,
    SharedWorkerPool,
    run_study_parallel,
)
from repro.spec import StudySpec
from repro.study import Study


class TestPoolLifecycle:
    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            SharedWorkerPool(0)

    def test_invalidate_unknown_executor_is_noop(self):
        pool = SharedWorkerPool(1)
        pool.invalidate(None)
        pool.invalidate(object())  # stale handle from a rebuilt pool
        assert pool.rebuilds == 0
        pool.shutdown()

    def test_shutdown_then_acquire_raises(self):
        pool = SharedWorkerPool(1)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.acquire()

    def test_shutdown_before_build_is_clean(self):
        SharedWorkerPool(2).shutdown()

    def test_single_threaded_process_uses_the_platform_default(self):
        # The CLI, library callers and campaigns run one thread, so the
        # pool starts with the platform default (fork where it exists).
        probe = (
            "import multiprocessing\n"
            "from repro.runner import SharedWorkerPool\n"
            "method = SharedWorkerPool._context().get_start_method()\n"
            "print(method == multiprocessing.get_start_method())\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        )
        assert done.stdout.strip() == "True"

    def test_threaded_process_avoids_fork(self):
        # Workers must not inherit a threaded process's descriptors:
        # plain fork would keep the server's accepted client sockets
        # open in the workers (peers never see EOF after close).
        methods = []
        thread = threading.Thread(
            target=lambda: methods.append(
                SharedWorkerPool._context().get_start_method()
            )
        )
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert methods[0] in ("forkserver", "spawn")


@pytest.mark.slow
class TestSharedExecution:
    def test_pooled_runs_are_bit_identical_and_share_the_executor(self, tmp_path):
        scale, seed = 0.02, 11
        sequential = Study.run(scale=scale, seed=seed)
        pool = SharedWorkerPool(2)
        try:
            first = Study.run(scale=scale, seed=seed, workers=2, pool=pool)
            second = Study.run(scale=scale, seed=seed, workers=2, pool=pool)
            assert pool.rebuilds == 0
        finally:
            pool.shutdown()
        for study in (first, second):
            assert study.report() == sequential.report()

        def export(study, name):
            directory = tmp_path / name
            study.save(directory)
            return {
                artifact: (directory / artifact).read_bytes()
                for artifact in ("traces.json", "traceroutes.json", "summary.json")
            }

        baseline = export(sequential, "seq")
        assert export(first, "first") == baseline
        assert export(second, "second") == baseline

    def test_invalidate_recovers_with_a_fresh_executor(self):
        pool = SharedWorkerPool(2)
        try:
            executor = pool.acquire()
            if executor is None:
                pytest.skip("platform cannot start worker processes")
            pool.invalidate(executor)
            pool.invalidate(executor)  # idempotent per instance
            assert pool.rebuilds == 1
            rebuilt = pool.acquire()
            assert rebuilt is not None and rebuilt is not executor
            # The rebuilt pool still executes work.
            study = Study.run(scale=0.002, seed=3, workers=2, pool=pool)
            assert study.traces is not None
        finally:
            pool.shutdown()


@pytest.mark.slow
@pytest.mark.chaos
class TestOneStudyPool:
    """``run_study_parallel(workers=N)`` shuts the pool it builds down on
    every exit path: no worker process it started outlives the call.
    (Children that earlier tests left behind, such as a hung worker
    still sleeping off its fault, are not this call's.)"""

    SPEC = StudySpec(scale=0.002, seed=3)

    def test_no_worker_outlives_a_completed_study(self):
        before = set(multiprocessing.active_children())
        run_study_parallel(self.SPEC, workers=2)
        assert set(multiprocessing.active_children()) - before == set()

    def test_no_worker_outlives_an_exhausted_retry_budget(self):
        before = set(multiprocessing.active_children())
        with pytest.raises(ShardExecutionError, match="failed after 3 attempts"):
            run_study_parallel(
                self.SPEC,
                workers=2,
                retry=RetryPolicy(max_attempts=3, backoff=0.01, backoff_cap=0.05),
                faults={0: FaultSpec(kind=FAULT_RAISE, attempts=99)},
            )
        assert set(multiprocessing.active_children()) - before == set()

    def test_error_does_not_wait_for_a_hung_sibling(self):
        # Shard 0 fails for good while shard 1 sleeps 8 s in its worker:
        # the error reaches the caller at once and the sleeper is killed.
        before = set(multiprocessing.active_children())
        started = time.monotonic()
        with pytest.raises(ShardExecutionError, match="failed after 2 attempts"):
            run_study_parallel(
                self.SPEC,
                workers=2,
                retry=RetryPolicy(max_attempts=2, backoff=0.01, backoff_cap=0.05),
                faults={
                    0: FaultSpec(kind=FAULT_RAISE, attempts=99),
                    1: FaultSpec(kind=FAULT_HANG, attempts=1, hang_seconds=8.0),
                },
            )
        assert time.monotonic() - started < 4.0
        assert set(multiprocessing.active_children()) - before == set()

    def test_interrupt_kills_running_workers(self, monkeypatch):
        # Ctrl-C while a shard runs: no worker outlives the call.
        def interrupted(scheduler, jobs, on_complete, world=None):
            scheduler.pool.acquire().submit(time.sleep, 30)
            raise KeyboardInterrupt

        monkeypatch.setattr(ShardScheduler, "run", interrupted)
        before = set(multiprocessing.active_children())
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_study_parallel(self.SPEC, workers=2)
        assert time.monotonic() - started < 10.0
        assert set(multiprocessing.active_children()) - before == set()
