"""Tests for the metrics registry and deterministic snapshot merging."""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    empty_snapshot,
    merge_snapshots,
    proto_name,
)


class TestRegistry:
    def test_counters_start_at_zero(self):
        registry = MetricsRegistry()
        assert registry.counter("router.forwarded") == 0

    def test_incr_accumulates(self):
        registry = MetricsRegistry()
        registry.incr("router.forwarded")
        registry.incr("router.forwarded", 4)
        assert registry.counter("router.forwarded") == 5

    def test_gauge_is_high_water_mark(self):
        registry = MetricsRegistry()
        registry.gauge_max("engine.heap_peak", 10)
        registry.gauge_max("engine.heap_peak", 3)
        registry.gauge_max("engine.heap_peak", 17)
        assert registry.gauge("engine.heap_peak") == 17

    def test_gauge_default(self):
        registry = MetricsRegistry()
        assert registry.gauge("missing") is None
        assert registry.gauge("missing", 0.0) == 0.0

    def test_snapshot_is_key_sorted(self):
        registry = MetricsRegistry()
        registry.incr("zebra")
        registry.incr("aardvark")
        registry.gauge_max("mid", 1)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["aardvark", "zebra"]
        assert snap["gauges"] == {"mid": 1}

    def test_snapshot_is_a_copy(self):
        registry = MetricsRegistry()
        registry.incr("a")
        snap = registry.snapshot()
        registry.incr("a")
        assert snap["counters"]["a"] == 1

    def test_clear(self):
        registry = MetricsRegistry()
        registry.incr("a")
        registry.gauge_max("g", 2)
        registry.clear()
        assert registry.snapshot() == empty_snapshot()

    def test_truthiness_gate(self):
        # The whole call-site contract: a real registry is truthy and a
        # disabled one is None, so `if metrics:` is the only predicate paid.
        assert MetricsRegistry()
        assert not None


class TestMerge:
    def _snapshots(self):
        return [
            {"counters": {"a": 1, "b": 2}, "gauges": {"peak": 5}},
            {"counters": {"b": 3, "c": 10}, "gauges": {"peak": 2, "depth": 1}},
            {"counters": {"a": 4}, "gauges": {}},
        ]

    def test_counters_sum_gauges_max(self):
        merged = merge_snapshots(self._snapshots())
        assert merged["counters"] == {"a": 5, "b": 5, "c": 10}
        assert merged["gauges"] == {"depth": 1, "peak": 5}

    def test_merge_order_independent_to_the_byte(self):
        snaps = self._snapshots()
        forward = json.dumps(merge_snapshots(snaps))
        backward = json.dumps(merge_snapshots(list(reversed(snaps))))
        rotated = json.dumps(merge_snapshots(snaps[1:] + snaps[:1]))
        assert forward == backward == rotated

    def test_merge_of_nothing(self):
        assert merge_snapshots([]) == empty_snapshot()

    def test_merge_keys_sorted(self):
        merged = merge_snapshots(self._snapshots())
        assert list(merged["counters"]) == sorted(merged["counters"])
        assert list(merged["gauges"]) == sorted(merged["gauges"])


@pytest.mark.parametrize(
    "protocol,expected", [(1, "icmp"), (6, "tcp"), (17, "udp"), (41, "41")]
)
def test_proto_name(protocol, expected):
    assert proto_name(protocol) == expected
