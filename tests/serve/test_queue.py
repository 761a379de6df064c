"""Unit tests for submission validation and the multi-tenant queue."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignSpec
from repro.serve.queue import (
    MAX_CAMPAIGN_EPOCHS,
    QUEUE_FORMAT,
    QueueFull,
    QuotaExceeded,
    StudyQueue,
    StudySpec,
    Submission,
    ValidationError,
    validate_priority,
    validate_tenant,
)


def sub(run_id, tenant="alice", priority=0, scale=0.01, seed=1):
    return Submission(
        run_id=run_id,
        tenant=tenant,
        priority=priority,
        spec=StudySpec(scale=scale, seed=seed),
    )


def parse(payload):
    """Validate a params document the way POST /studies does."""
    return Submission.from_params(payload, run_id="run-1", tenant="alice")


def validate_campaign(payload):
    return parse({"campaign": payload})


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20,
)
#: Near-valid snapshots, so the search reaches entry and params parsing.
entries = st.fixed_dictionaries(
    {},
    optional={
        "run_id": st.sampled_from(["run-1", "run-2", "", ".x"]) | json_values,
        "tenant": st.sampled_from(["alice", "bob"]) | json_values,
        "priority": st.integers(-12, 12) | json_values,
        "seq": st.integers() | json_values,
        "params": st.fixed_dictionaries(
            {},
            optional={
                "scale": st.sampled_from([0.01, 0, 2]) | json_values,
                "seed": st.integers() | json_values,
                "chaos": st.sampled_from(["light", "nope"]) | json_values,
                "quic": st.booleans() | json_values,
                "campaign": st.fixed_dictionaries(
                    {"epochs": st.integers(0, 40) | json_values},
                    optional={"timeline": st.sampled_from(["frozen", "x"]) | json_values},
                ) | json_values,
            },
        ) | json_values,
    },
)
snapshots = st.fixed_dictionaries(
    {"format": st.just(QUEUE_FORMAT), "entries": st.lists(entries, max_size=4) | json_values}
)


class TestValidateParams:
    def test_defaults(self):
        spec = parse({}).spec
        assert spec.scale == 0.1
        assert spec.traceroutes is True
        assert spec.faults is None

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError, match="unknown field"):
            parse({"scle": 0.1})

    @pytest.mark.parametrize(
        "payload",
        [
            {"scale": "big"},
            {"scale": True},
            {"scale": 0},
            {"scale": -0.5},
            {"scale": 1.5},
            {"seed": 1.5},
            {"seed": True},
            {"traceroutes": "yes"},
            {"chaos": "nope"},
            {"chaos": 7},
            {"chaos_seed": "x"},
            "not-a-dict",
        ],
    )
    def test_bad_values_rejected(self, payload):
        with pytest.raises(ValidationError):
            parse(payload)

    def test_chaos_profile_accepted(self):
        spec = parse({"chaos": "light", "chaos_seed": 3}).spec
        assert spec.faults == "light"
        assert spec.chaos_seed == 3

    def test_world_key_ignores_execution_knobs(self):
        # Probing choices never change the world; a fault plan does.
        a = StudySpec(scale=0.01, seed=2, traceroutes=False)
        b = StudySpec(scale=0.01, seed=2, quic=True)
        assert a.world_key() == b.world_key() == StudySpec(scale=0.01, seed=2).world_key()
        assert StudySpec(scale=0.01, seed=2, faults="light").world_key() != a.world_key()

    def test_roundtrip_through_dict(self):
        submission = parse({"scale": 0.02, "seed": 9, "chaos": "light", "quic": True})
        assert parse(submission.params()) == submission

    def test_drift_is_not_a_submission_field(self):
        drift = {"year": 2020.0}
        with pytest.raises(ValidationError, match="unknown field"):
            parse({"drift": drift})


class TestValidateIdentity:
    def test_tenant_rules(self):
        assert validate_tenant("alice-1.prod") == "alice-1.prod"
        for bad in (None, "", 42, "a b", "x" * 65, "sl/ash"):
            with pytest.raises(ValidationError):
                validate_tenant(bad)

    def test_priority_rules(self):
        assert validate_priority(10) == 10
        assert validate_priority(-10) == -10
        for bad in ("5", True, 11, -11, 1.5):
            with pytest.raises(ValidationError):
                validate_priority(bad)


class TestQueueOrdering:
    def test_priority_then_fifo(self):
        queue = StudyQueue(depth=10, tenant_quota=10)
        queue.submit(sub("low-1", priority=-1))
        queue.submit(sub("mid-1"))
        queue.submit(sub("high", priority=5))
        queue.submit(sub("mid-2"))
        order = [queue.pop().run_id for _ in range(4)]
        assert order == ["high", "mid-1", "mid-2", "low-1"]
        assert queue.pop() is None

    def test_duplicate_run_id_rejected(self):
        queue = StudyQueue(depth=4, tenant_quota=4)
        queue.submit(sub("a"))
        with pytest.raises(ValidationError, match="duplicate"):
            queue.submit(sub("a"))
        queue.pop()  # now running, still a duplicate
        with pytest.raises(ValidationError, match="duplicate"):
            queue.submit(sub("a"))


class TestBackpressure:
    def test_depth_exhaustion(self):
        queue = StudyQueue(depth=2, tenant_quota=10)
        queue.submit(sub("a"))
        queue.submit(sub("b"))
        with pytest.raises(QueueFull):
            queue.submit(sub("c"))
        assert queue.stats.rejected_full == 1
        # Popping to running frees queue depth.
        queue.pop()
        queue.submit(sub("c"))

    def test_quota_counts_queued_plus_running(self):
        queue = StudyQueue(depth=10, tenant_quota=2)
        queue.submit(sub("a1"))
        queue.submit(sub("a2"))
        queue.pop()  # a1 running, a2 queued: still 2 held by alice
        with pytest.raises(QuotaExceeded):
            queue.submit(sub("a3"))
        assert queue.stats.rejected_quota == 1
        # Other tenants are unaffected.
        queue.submit(sub("b1", tenant="bob"))
        # Finishing the running study frees alice's slot.
        queue.finish("a1")
        queue.submit(sub("a3"))

    def test_retry_after_tracks_run_durations(self):
        queue = StudyQueue(depth=2, tenant_quota=2)
        queue.avg_run_seconds = 12.34
        assert queue.retry_after() == pytest.approx(12.3)
        queue.avg_run_seconds = 0.01
        assert queue.retry_after() == 1.0  # floored


class TestCancel:
    def test_cancel_queued(self):
        queue = StudyQueue(depth=4, tenant_quota=4)
        queue.submit(sub("a"))
        queue.submit(sub("b"))
        cancelled = queue.cancel("a")
        assert cancelled.run_id == "a"
        assert queue.stats.cancelled == 1
        # The stale heap entry is skipped at pop time.
        assert queue.pop().run_id == "b"
        assert queue.pop() is None

    def test_cancel_running_returns_none(self):
        queue = StudyQueue(depth=4, tenant_quota=4)
        queue.submit(sub("a"))
        queue.pop()
        assert queue.cancel("a") is None

    def test_cancel_frees_quota(self):
        queue = StudyQueue(depth=4, tenant_quota=1)
        queue.submit(sub("a"))
        queue.cancel("a")
        queue.submit(sub("b"))  # quota slot released


class TestPersistence:
    def test_snapshot_restore_preserves_order_and_ids(self):
        queue = StudyQueue(depth=10, tenant_quota=10)
        queue.submit(sub("a", priority=0))
        queue.submit(sub("b", priority=3))
        queue.submit(sub("c", priority=0))
        queue.pop()  # b is running: snapshots cover queued only
        snapshot = queue.snapshot()
        assert snapshot["format"] == QUEUE_FORMAT
        assert [e["run_id"] for e in snapshot["entries"]] == ["a", "c"]

        fresh = StudyQueue(depth=10, tenant_quota=10)
        restored = fresh.restore(snapshot)
        assert [s.run_id for s in restored] == ["a", "c"]
        assert fresh.pop().run_id == "a"
        assert fresh.pop().run_id == "c"

    def test_restore_rejects_foreign_documents(self):
        queue = StudyQueue(depth=4, tenant_quota=4)
        with pytest.raises(ValidationError):
            queue.restore({"format": "something-else", "entries": []})
        with pytest.raises(ValidationError):
            queue.restore({"format": QUEUE_FORMAT, "entries": "nope"})

    @pytest.mark.parametrize(
        "document",
        [
            {"format": QUEUE_FORMAT, "entries": [{"tenant": "a"}]},  # was KeyError
            {"format": QUEUE_FORMAT, "entries": [["x"]]},  # was TypeError
            [QUEUE_FORMAT],  # was AttributeError
            {"format": QUEUE_FORMAT, "entries": [{"run_id": "../x", "tenant": "a"}]},
            {"format": QUEUE_FORMAT, "entries": [{"run_id": "r", "tenant": "a", "seq": "1"}]},
            {"format": QUEUE_FORMAT, "entries": [
                {"run_id": "r", "tenant": "a", "params": {"drift": {"year": 2020.0}}}]},
        ],
    )
    def test_malformed_snapshots_raise_validation_error(self, document):
        with pytest.raises(ValidationError):
            StudyQueue(depth=4, tenant_quota=4).restore(document)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(json_values, snapshots))
    def test_restore_of_any_json_succeeds_or_raises_validation_error(self, document):
        queue = StudyQueue(depth=64, tenant_quota=64)
        try:
            restored = queue.restore(json.loads(json.dumps(document)))
        except ValidationError:
            return
        assert [s.run_id for s in restored] == queue.queued_ids()

    def test_restore_reapplies_admission_control(self):
        queue = StudyQueue(depth=10, tenant_quota=10)
        for i in range(3):
            queue.submit(sub(f"r{i}"))
        snapshot = queue.snapshot()
        tight = StudyQueue(depth=2, tenant_quota=10)
        with pytest.raises(QueueFull):
            tight.restore(snapshot)
        assert tight.queued_count == 2  # the admissible prefix survived


class TestValidateCampaign:
    def test_minimal(self):
        job = validate_campaign({"epochs": 3})
        assert job.epochs == 3
        assert job.campaign == CampaignSpec(StudySpec())
        assert job.campaign.timeline == "fresh-look"
        assert job.campaign.pool_churn is True
        assert job.campaign_id is None

    def test_full(self):
        job = validate_campaign(
            {
                "epochs": 2,
                "start_year": 2020,
                "cadence_years": 0.5,
                "timeline": "frozen",
                "pool_churn": False,
                "id": "drift-watch",
            }
        )
        assert job.campaign.start_year == 2020.0
        assert job.campaign.cadence_years == 0.5
        assert job.campaign.timeline == "frozen"
        assert job.campaign.pool_churn is False
        assert job.campaign_id == "drift-watch"

    @pytest.mark.parametrize(
        "payload",
        [
            "not-a-dict",
            {},  # epochs required
            {"epochs": 0},
            {"epochs": True},
            {"epochs": "3"},
            {"epochs": MAX_CAMPAIGN_EPOCHS + 1},
            {"epochs": 1, "start_year": "soon"},
            {"epochs": 1, "cadence_years": 0},
            {"epochs": 1, "cadence_years": True},
            {"epochs": 1, "timeline": "no-such"},
            {"epochs": 1, "pool_churn": "yes"},
            {"epochs": 1, "id": ".hidden"},
            {"epochs": 1, "id": "spaced out"},
            {"epochs": 1, "id": "x" * 65},
            {"epochs": 1, "epocs": 2},  # unknown field
        ],
    )
    def test_bad_payloads_rejected(self, payload):
        with pytest.raises(ValidationError):
            validate_campaign(payload)

    def test_campaign_rides_in_study_params(self):
        job = parse({"scale": 0.02, "campaign": {"epochs": 2, "id": "c1"}})
        assert job.campaign == CampaignSpec(StudySpec(scale=0.02))
        assert (job.epochs, job.campaign_id) == (2, "c1")
        assert parse(job.params()) == job

    def test_campaign_to_dict_is_sparse(self):
        assert validate_campaign({"epochs": 2}).params()["campaign"] == {"epochs": 2}
