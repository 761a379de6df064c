"""The observability determinism contracts, end to end.

Two promises from DESIGN.md's observability section:

1. Metrics are *deterministic*: a ``workers=N`` run's merged counters
   are bit-identical to the sequential run's, for the same
   ``(scale, seed)`` — sharding changes only who counts, never what.
2. Observation is *inert*: collecting metrics must not perturb results,
   and with observation off the archival output is byte-identical to a
   build that never heard of ``repro.obs``.
"""

import json

import pytest

from repro.obs import canonical_events, render_events_jsonl
from repro.study import Study

pytestmark = pytest.mark.slow

SCALE = 0.04
SEED = 11

ARCHIVE_FILES = ("summary.json", "traces.json", "traceroutes.json", "traces.csv")


@pytest.fixture(scope="module")
def sequential():
    return Study.run(
        scale=SCALE, seed=SEED, collect_metrics=True, record="epoch"
    )


@pytest.fixture(scope="module")
def sharded():
    return Study.run(
        scale=SCALE, seed=SEED, workers=4, collect_metrics=True, record="epoch"
    )


class TestCounterEquivalence:
    def test_counters_bit_identical_across_sharding(self, sequential, sharded):
        assert sequential.metrics["counters"] == sharded.metrics["counters"]

    def test_gauges_identical_across_sharding(self, sequential, sharded):
        assert sequential.metrics["gauges"] == sharded.metrics["gauges"]

    def test_serialised_snapshots_identical(self, sequential, sharded):
        assert json.dumps(sequential.metrics) == json.dumps(sharded.metrics)

    def test_counters_nonempty_and_sane(self, sequential):
        counters = sequential.metrics["counters"]
        assert counters["app.traces_run"] == len(list(sequential.traces))
        assert counters["router.forwarded"] > 0
        assert counters["engine.dispatched"] > 0
        # Dispatch + cancellation account for every scheduled event.
        assert (
            counters["engine.scheduled"]
            == counters["engine.dispatched"] + counters["engine.cancelled"]
        )

    def test_telemetry_shard_accounting(self, sharded):
        telemetry = sharded.telemetry
        assert telemetry.workers == 4
        assert len(telemetry.shards) == telemetry.runner["runner.shards_dispatched"]
        assert telemetry.total_retries == 0
        assert telemetry.metrics == sharded.metrics


class TestHistogramEquivalence:
    def test_histograms_present(self, sequential):
        histograms = sequential.metrics["histograms"]
        assert "app.rtt.udp_plain" in histograms
        assert histograms["app.rtt.udp_plain"]["count"] > 0

    def test_histograms_bit_identical_across_sharding(self, sequential, sharded):
        assert sequential.metrics["histograms"] == sharded.metrics["histograms"]

    def test_histogram_serialisation_identical(self, sequential, sharded):
        assert json.dumps(sequential.metrics["histograms"]) == json.dumps(
            sharded.metrics["histograms"]
        )


class TestEventEquivalence:
    def test_event_streams_bit_identical_across_sharding(self, sequential, sharded):
        assert render_events_jsonl(
            canonical_events(sequential.events)
        ) == render_events_jsonl(canonical_events(sharded.events))

    def test_events_nonempty_and_attributed(self, sequential):
        events = canonical_events(sequential.events)
        assert events
        kinds = {event["kind"] for event in events}
        assert "epoch-start" in kinds
        assert all("shard" in event and "seq" in event for event in events)
        assert all("wall" not in event for event in events)

    def test_saved_events_jsonl_byte_identical(self, sequential, sharded, tmp_path):
        seq_dir = sequential.save(tmp_path / "seq")
        shard_dir = sharded.save(tmp_path / "shard")
        assert (seq_dir / "events.jsonl").read_bytes() == (
            shard_dir / "events.jsonl"
        ).read_bytes()


class TestChaosEquivalence:
    """The same contracts hold with the fault injector running."""

    @pytest.fixture(scope="class")
    def chaos_sequential(self):
        return Study.run(
            scale=SCALE, seed=SEED, faults="default", chaos_seed=5,
            collect_metrics=True, record="epoch",
        )

    @pytest.fixture(scope="class")
    def chaos_sharded(self):
        return Study.run(
            scale=SCALE, seed=SEED, faults="default", chaos_seed=5, workers=4,
            collect_metrics=True, record="epoch",
        )

    def test_fault_events_emitted(self, chaos_sequential):
        kinds = [event["kind"] for event in chaos_sequential.events]
        assert "fault" in kinds

    def test_chaos_event_streams_identical(self, chaos_sequential, chaos_sharded):
        assert canonical_events(chaos_sequential.events) == canonical_events(
            chaos_sharded.events
        )

    def test_chaos_histograms_identical(self, chaos_sequential, chaos_sharded):
        assert (
            chaos_sequential.metrics["histograms"]
            == chaos_sharded.metrics["histograms"]
        )


class TestObservationIsInert:
    def test_results_unchanged_by_observation(self, sequential):
        plain = Study.run(scale=SCALE, seed=SEED)
        assert plain.metrics is None
        assert plain.report() == sequential.report()

    def test_archival_output_byte_identical(self, sequential, tmp_path):
        plain = Study.run(scale=SCALE, seed=SEED)
        plain_dir = plain.save(tmp_path / "plain")
        observed_dir = sequential.save(tmp_path / "observed")
        for name in ARCHIVE_FILES:
            assert (observed_dir / name).read_bytes() == (
                plain_dir / name
            ).read_bytes(), name
        # Observation adds artefacts; switched off, none appear.
        assert (observed_dir / "metrics.json").exists()
        assert (observed_dir / "telemetry.json").exists()
        assert not (plain_dir / "metrics.json").exists()
        assert not (plain_dir / "telemetry.json").exists()

    def test_saved_metrics_round_trip(self, sequential, tmp_path):
        directory = sequential.save(tmp_path / "study")
        assert json.loads((directory / "metrics.json").read_text()) == sequential.metrics
        document = json.loads((directory / "telemetry.json").read_text())
        assert document["metrics"] == sequential.metrics


class TestTracingGuards:
    def test_trace_filter_requires_sequential(self):
        with pytest.raises(ValueError, match="sequential-only"):
            Study.run(scale=SCALE, seed=SEED, workers=2, trace_filter="udp")
