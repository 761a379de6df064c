"""Fault tolerance: retried shards, killed workers, budget exhaustion.

Injected faults (:class:`FaultSpec`) make a shard raise — or hard-kill
its worker process with ``os._exit`` — until its attempt counter
passes a threshold, exercising exactly the recovery paths a flaky real
worker would: ordinary retry, ``BrokenProcessPool`` rebuild, and the
in-process fallback.  Every recovered study must still be
bit-identical to the fault-free sequential run.
"""

import pytest

from repro.obs import RunTelemetry
from repro.runner import (
    FAULT_EXIT,
    FAULT_HANG,
    FAULT_RAISE,
    FaultSpec,
    RetryPolicy,
    ShardExecutionError,
    run_study_parallel,
)
from repro.spec import StudySpec
from repro.study import Study

pytestmark = [pytest.mark.slow, pytest.mark.chaos]

SCALE = 0.02
SEED = 11

#: Fast retries: these tests exercise the machinery, not the waiting.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff=0.01, backoff_cap=0.05)


@pytest.fixture(scope="module")
def sequential():
    return Study.run(scale=SCALE, seed=SEED)


def _run(sequential, workers, faults):
    return run_study_parallel(
        StudySpec(scale=SCALE, seed=SEED),
        workers=workers,
        targets=sequential.traces.server_addrs,
        retry=FAST_RETRY,
        faults=faults,
    )


def test_raising_shards_retried_to_completion(sequential):
    traces, campaign = _run(
        sequential,
        workers=2,
        faults={
            0: FaultSpec(kind=FAULT_RAISE, attempts=2),
            3: FaultSpec(kind=FAULT_RAISE, attempts=1),
        },
    )
    assert traces.to_dict() == sequential.traces.to_dict()
    assert campaign.to_dict() == sequential.campaign.to_dict()


def test_killed_worker_pool_rebuilt(sequential):
    # os._exit(1) in a worker breaks the whole ProcessPoolExecutor;
    # the scheduler must rebuild it and re-run every shard still owed.
    traces, campaign = _run(
        sequential, workers=2, faults={1: FaultSpec(kind=FAULT_EXIT, attempts=1)}
    )
    assert traces.to_dict() == sequential.traces.to_dict()
    assert campaign.to_dict() == sequential.campaign.to_dict()


def test_retry_budget_exhaustion_raises(sequential):
    with pytest.raises(ShardExecutionError, match="failed after 3 attempts"):
        _run(
            sequential,
            workers=2,
            faults={0: FaultSpec(kind=FAULT_RAISE, attempts=99)},
        )


def test_inline_fallback_retries_too(sequential):
    # workers=0 degrades to in-process execution with the same retry
    # policy and the same results.
    traces, campaign = _run(
        sequential, workers=0, faults={2: FaultSpec(kind=FAULT_RAISE, attempts=1)}
    )
    assert traces.to_dict() == sequential.traces.to_dict()
    assert campaign.to_dict() == sequential.campaign.to_dict()


def test_hung_worker_gang_recovered(sequential):
    # A wedged worker never resolves its future, so the ordinary retry
    # path can't see it; only the scheduler's global hang budget
    # (shard_timeout) catches it.  The pool must be torn down, rebuilt,
    # and every owed shard resubmitted — and the merged study must
    # still be bit-identical.
    telemetry = RunTelemetry()
    traces, _campaign = run_study_parallel(
        StudySpec(scale=SCALE, seed=SEED, traceroutes=False),
        workers=2,
        targets=sequential.traces.server_addrs,
        retry=FAST_RETRY,
        shard_timeout=5.0,
        faults={0: FaultSpec(kind=FAULT_HANG, attempts=1, hang_seconds=30.0)},
        telemetry=telemetry,
        observe=False,
    )
    # Traces are identical whether or not traceroutes ran: hermetic
    # epochs make the two phases independent.
    assert traces.to_dict() == sequential.traces.to_dict()
    assert telemetry.runner.get("runner.pool_rebuilds", 0) >= 1
    assert telemetry.runner.get("runner.shards_recovered", 0) >= 1


def test_progress_reaches_total(sequential):
    calls = []

    def progress(done, total, label):
        calls.append((done, total, label))

    run_study_parallel(
        StudySpec(scale=SCALE, seed=SEED),
        workers=2,
        targets=sequential.traces.server_addrs,
        retry=FAST_RETRY,
        progress=progress,
    )
    assert calls, "progress callback never fired"
    totals = {total for _, total, _ in calls}
    assert len(totals) == 1
    (total,) = totals
    assert calls[-1][0] == total - 1
    assert all(0 <= done < total for done, _, _ in calls)
