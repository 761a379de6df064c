"""Tests for run telemetry: shard records, merging, rendering."""

from repro.obs import (
    RunTelemetry,
    ShardRecord,
    empty_snapshot,
    render_metrics_report,
)


def record(shard_id, elapsed=1.0, attempts=1, kind="traces", units=5):
    return ShardRecord(
        shard_id=shard_id,
        kind=kind,
        label=f"shard-{shard_id}",
        attempts=attempts,
        elapsed=elapsed,
        units=units,
    )


class TestRunTelemetry:
    def test_total_retries(self):
        telemetry = RunTelemetry()
        telemetry.record_shard(record(0, attempts=1))
        telemetry.record_shard(record(1, attempts=3))
        assert telemetry.total_retries == 2

    def test_slowest_shards_stable_on_ties(self):
        telemetry = RunTelemetry()
        for shard_id, elapsed in ((2, 1.0), (0, 1.0), (1, 5.0)):
            telemetry.record_shard(record(shard_id, elapsed=elapsed))
        slowest = telemetry.slowest_shards()
        assert [r.shard_id for r in slowest] == [1, 0, 2]

    def test_to_dict_orders_shards_by_id(self):
        telemetry = RunTelemetry(workers=4, wall_seconds=2.5)
        for shard_id in (3, 1, 2):
            telemetry.record_shard(record(shard_id))
        document = telemetry.to_dict()
        assert [entry["shard_id"] for entry in document["shards"]] == [1, 2, 3]
        assert document["workers"] == 4
        assert document["metrics"] == empty_snapshot()

    def test_merge_metrics(self):
        telemetry = RunTelemetry()
        telemetry.merge_metrics(
            [
                {"counters": {"a": 1}, "gauges": {}},
                {"counters": {"a": 2}, "gauges": {"g": 7}},
            ]
        )
        assert telemetry.metrics["counters"] == {"a": 3}
        assert telemetry.metrics["gauges"] == {"g": 7}

    def test_shard_record_round_trip(self):
        original = record(4, elapsed=0.25, attempts=2)
        assert ShardRecord(**original.to_dict()) == original

    def test_slowest_shards_ties_keep_full_ordering_stable(self):
        telemetry = RunTelemetry()
        for shard_id in (7, 3, 5, 1):
            telemetry.record_shard(record(shard_id, elapsed=2.0))
        assert [r.shard_id for r in telemetry.slowest_shards()] == [1, 3, 5, 7]

    def test_export_rounds_wall_clock_to_milliseconds(self):
        """Sub-ms timer noise must not churn exported documents."""
        telemetry = RunTelemetry(workers=2, wall_seconds=1.23456789)
        telemetry.record_shard(record(0, elapsed=0.00049999))
        document = telemetry.to_dict()
        assert document["wall_seconds"] == 1.235
        assert document["shards"][0]["elapsed"] == 0.0

    def test_rounding_is_export_only(self):
        """In-memory values keep full precision; exporting twice is
        stable (rounding is idempotent, never accumulated)."""
        telemetry = RunTelemetry(wall_seconds=0.1234567)
        telemetry.record_shard(record(0, elapsed=0.7654321))
        first = telemetry.to_dict()
        second = telemetry.to_dict()
        assert first == second
        assert telemetry.wall_seconds == 0.1234567
        assert telemetry.shards[0].elapsed == 0.7654321


class TestRendering:
    def test_report_lists_counters_and_gauges(self):
        snapshot = {"counters": {"router.forwarded": 10}, "gauges": {"peak": 3.0}}
        text = render_metrics_report(snapshot)
        assert "router.forwarded" in text
        assert "10" in text
        assert "peak" in text and "(gauge)" in text

    def test_report_handles_empty_snapshot(self):
        assert "no metrics recorded" in render_metrics_report(empty_snapshot())

    def test_report_includes_telemetry_section(self):
        telemetry = RunTelemetry(workers=2, wall_seconds=1.0)
        telemetry.record_shard(record(0))
        telemetry.runner = {"shards_dispatched": 1}
        text = render_metrics_report(empty_snapshot(), telemetry)
        assert "Run telemetry" in text
        assert "workers=2" in text
        assert "shards_dispatched" in text

    def test_summary_lines_chaos_branch(self):
        telemetry = RunTelemetry(workers=2, wall_seconds=1.0)
        telemetry.chaos = {
            "profile": "default",
            "chaos_seed": 9,
            "events": 4,
            "by_kind": {"link_flap": 3, "bleach_on": 1},
        }
        text = "\n".join(telemetry.summary_lines())
        assert "chaos profile=default" in text
        assert "seed=9" in text
        assert "events=4" in text
        # by_kind renders sorted by kind name.
        assert "bleach_on=1 link_flap=3" in text

    def test_summary_lines_without_chaos_omits_the_section(self):
        telemetry = RunTelemetry(workers=2, wall_seconds=1.0)
        assert not any("chaos" in line for line in telemetry.summary_lines())
