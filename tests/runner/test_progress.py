"""Tests for progress aggregation, including overflow handling."""

import logging

from repro.runner import ProgressAggregator
from repro.runner.shard import KIND_TRACES, Shard


def shard(shard_id=0):
    return Shard(shard_id=shard_id, kind=KIND_TRACES, vantage_key="v", batch=1,
                 trace_ids=(0, 1))


def recording(total_units):
    calls = []
    aggregator = ProgressAggregator(
        lambda done, total, label: calls.append((done, total)), total_units
    )
    return aggregator, calls


class TestAggregation:
    def test_folds_completions_into_progress_stream(self):
        aggregator, calls = recording(10)
        aggregator.shard_completed(shard(0), 4)
        aggregator.shard_completed(shard(1), 6)
        assert calls == [(3, 10), (9, 10)]


class TestOverflow:
    def test_overflow_logs_warning_and_clamps(self, caplog):
        """Regression: overflow used to be silently clamped away."""
        aggregator, calls = recording(5)
        aggregator.shard_completed(shard(0), 4)
        with caplog.at_level(logging.WARNING, logger="repro.runner"):
            aggregator.shard_completed(shard(1), 4)
        assert calls[-1] == (4, 5)
        assert any("progress overflow" in rec.message for rec in caplog.records)

    def test_exact_total_is_not_an_overflow(self, caplog):
        aggregator, calls = recording(8)
        with caplog.at_level(logging.WARNING, logger="repro.runner"):
            aggregator.shard_completed(shard(0), 4)
            aggregator.shard_completed(shard(1), 4)
        assert calls[-1] == (7, 8)
        assert not caplog.records
