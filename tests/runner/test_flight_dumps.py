"""Flight-recorder dumps from real recovery paths.

A crashing shard must leave ``flight-shard-<id>.json`` behind; a
worker killed hard enough to break the pool must at least leave the
parent's ``flight-parent.json``; and every dump must parse as the
self-describing ``ecn-udp-flight/1`` document, which is what the
dashboard's ``load_run_artifacts`` lists.
"""

import pytest

from repro.obs import EventLog, load_run_artifacts
from repro.runner import (
    FAULT_EXIT,
    FAULT_RAISE,
    FaultSpec,
    RetryPolicy,
    ShardExecutionError,
    run_study_parallel,
)
from repro.spec import StudySpec

pytestmark = [pytest.mark.slow, pytest.mark.chaos]

SCALE = 0.02
SEED = 11

FAST_RETRY = RetryPolicy(max_attempts=3, backoff=0.01, backoff_cap=0.05)


def _run(tmp_path, faults, workers=2, **kwargs):
    return run_study_parallel(
        StudySpec(scale=SCALE, seed=SEED, traceroutes=False),
        workers=workers,
        retry=FAST_RETRY,
        faults=faults,
        flight_dir=tmp_path,
        **kwargs,
    )


def _flights(directory):
    """``{file name: document}`` of the flight dumps the dashboard lists."""
    return {d["file"]: d for d in load_run_artifacts(directory).flights}


def test_crashing_shard_leaves_a_parseable_flight_dump(tmp_path):
    _run(tmp_path, faults={0: FaultSpec(kind=FAULT_RAISE, attempts=1)})
    dump_path = tmp_path / "flight-shard-0.json"
    assert dump_path.exists()
    document = _flights(tmp_path)["flight-shard-0.json"]
    assert document["context"]["shard_id"] == 0
    kinds = [event["kind"] for event in document["events"]]
    assert "shard-start" in kinds
    assert "shard-crash" in kinds
    assert "InjectedShardFault" in document["reason"]


def test_killed_worker_leaves_flight_evidence(tmp_path):
    # os._exit(1) breaks the pool; the worker dumps its ring just
    # before dying and the parent records the gang recovery.
    _run(tmp_path, faults={1: FaultSpec(kind=FAULT_EXIT, attempts=1)})
    dumps = sorted(tmp_path.glob("flight-*.json"))
    assert dumps, "no flight dump survived the killed worker"
    flights = _flights(tmp_path)
    assert sorted(flights) == [path.name for path in dumps]
    documents = list(flights.values())
    assert any(
        event["kind"] == "shard-killed"
        for document in documents
        for event in document["events"]
    )
    parent = tmp_path / "flight-parent.json"
    assert parent.exists()
    parent_kinds = [e["kind"] for e in flights[parent.name]["events"]]
    assert "dispatch" in parent_kinds
    assert "gang-recovery" in parent_kinds


def test_budget_exhaustion_dumps_the_parent_ring(tmp_path):
    with pytest.raises(ShardExecutionError):
        _run(tmp_path, faults={0: FaultSpec(kind=FAULT_RAISE, attempts=99)})
    parent = _flights(tmp_path)["flight-parent.json"]
    kinds = [event["kind"] for event in parent["events"]]
    assert "budget-exhausted" in kinds
    assert "retry budget" in parent["reason"]


def test_clean_run_leaves_no_dumps(tmp_path):
    _run(tmp_path, faults=None)
    assert not list(tmp_path.glob("flight-*.json"))


def test_crash_dump_carries_the_shards_event_tail(tmp_path):
    """With recording on, a killed worker's dump includes its last events.

    Each job records into its own log, so the dump written during crash
    handling carries the structured narration of exactly the shard that
    triggered it — the satellite contract of the live observability
    plane.
    """
    log = EventLog(stamp_wall=False)
    _run(
        tmp_path,
        faults={1: FaultSpec(kind=FAULT_EXIT, attempts=1)},
        record="epoch",
        event_log=log,
    )
    events = log.events()
    document = _flights(tmp_path)["flight-shard-1.json"]
    tail = document.get("events")
    assert tail, "the killed shard's dump carried no event tail"
    assert all(event["shard"] == 1 for event in tail)
    assert tail[-1]["kind"] == "fault-injected"
    assert tail[-1]["fault"] == FAULT_EXIT
    # The merged study stream still arrived despite the crash-retry.
    assert any(event.get("kind") == "epoch-start" for event in events)
