"""Unit tests for the structured event log.

The contracts under test mirror the module docstring: leveled
filtering, deterministic per-kind rate limiting, the bounded ring with
a stable since-cursor, shard attribution through a context map, and
the canonical (wall-stripped, ``(shard, seq)``-ordered) form the
equivalence suite and ``events.jsonl`` rely on.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    EventLog,
    canonical_events,
    parse_events_jsonl,
    render_events_jsonl,
)
from repro.obs.events import LEVELS, level_rank


class TestEmission:
    def test_real_log_is_truthy_even_when_empty(self):
        assert EventLog()

    def test_event_envelope_and_context(self):
        log = EventLog(run_id="r1", tenant="alice")
        event = log.emit("serve-submit", "info", priority=2)
        assert event["kind"] == "serve-submit"
        assert event["level"] == "info"
        assert event["seq"] == 0
        assert event["run_id"] == "r1"
        assert event["tenant"] == "alice"
        assert event["priority"] == 2
        assert "wall" in event

    def test_envelope_wins_over_payload_fields(self):
        log = EventLog(run_id="r1")
        event = log.emit("x", "info", seq=999, kind="forged", run_id="other")
        assert event["seq"] == 0
        assert event["kind"] == "x"
        assert event["run_id"] == "r1"

    def test_bind_folds_context_into_future_events(self):
        log = EventLog()
        log.bind(epoch=3, nothing=None)
        event = log.emit("x")
        assert event["epoch"] == 3
        assert "nothing" not in event

    def test_min_level_filters(self):
        log = EventLog(min_level="warning")
        assert log.emit("quiet", "debug") is None
        assert log.emit("quiet", "info") is None
        assert log.emit("loud", "warning") is not None
        assert log.emit("loud", "alert") is not None
        assert [e["kind"] for e in log.since(0)] == ["loud", "loud"]

    def test_unknown_level_is_loud(self):
        log = EventLog()
        with pytest.raises(ValueError, match="unknown event level"):
            log.emit("x", "catastrophic")
        with pytest.raises(ValueError, match="unknown event level"):
            EventLog(min_level="whisper")

    def test_level_rank_total_order(self):
        ranks = [level_rank(level) for level in LEVELS]
        assert ranks == sorted(ranks)
        assert len(set(ranks)) == len(LEVELS)

    def test_stamp_wall_off_omits_wall(self):
        log = EventLog(stamp_wall=False)
        assert "wall" not in log.emit("x")


class TestRateLimit:
    def test_per_kind_cap_counts_drops(self):
        log = EventLog(kind_limit=3)
        for _ in range(5):
            log.emit("chatty")
        log.emit("other")
        assert len([e for e in log.since(0) if e["kind"] == "chatty"]) == 3
        assert log.dropped() == {"chatty": 2}
        # Other kinds are unaffected by one kind hitting its cap.
        assert [e["kind"] for e in log.since(0)][-1] == "other"

    def test_seq_not_consumed_by_dropped_events(self):
        log = EventLog(kind_limit=1)
        log.emit("a")
        log.emit("a")  # dropped
        event = log.emit("b")
        assert event["seq"] == 1


class TestRingAndCursor:
    def test_ring_bounds_buffer_but_seq_keeps_rising(self):
        log = EventLog(capacity=4)
        for i in range(10):
            log.emit("tick", "info", i=i)
        window = log.since(0)
        assert len(window) == 4
        assert [e["i"] for e in window] == [6, 7, 8, 9]
        assert log.next_seq == 10

    def test_since_cursor_resumes_and_clamps(self):
        log = EventLog(capacity=4)
        for i in range(10):
            log.emit("tick", "info", i=i)
        # A cursor that fell off the ring returns whatever survives.
        assert [e["i"] for e in log.since(0)] == [6, 7, 8, 9]
        assert [e["i"] for e in log.since(8)] == [8, 9]
        assert log.since(10) == []
        assert [e["i"] for e in log.since(6, limit=2)] == [6, 7]

    def test_tail(self):
        log = EventLog()
        for i in range(5):
            log.emit("tick", "info", i=i)
        assert [e["i"] for e in log.tail(2)] == [3, 4]
        assert log.tail(0) == []

    def test_clear_resets_everything(self):
        log = EventLog(kind_limit=1)
        log.emit("a")
        log.emit("a")
        log.clear()
        assert log.since(0) == []
        assert log.next_seq == 0
        assert log.dropped() == {}
        assert log.emit("a") is not None


class TestShardAttribution:
    CONTEXT_MAP = {("trace", "vp-0", 0): 0, ("trace", "vp-1", 0): 1}

    def test_context_map_mints_per_shard_seqs(self):
        log = EventLog(stamp_wall=False, context_map=self.CONTEXT_MAP)
        log.enter_context("trace", "vp-0", 0)
        log.emit("a")
        log.enter_context("trace", "vp-1", 0)
        log.emit("b")
        log.enter_context("trace", "vp-0", 0)
        log.emit("c")
        seqs = [(e["shard"], e["seq"]) for e in log.since(0)]
        assert seqs == [(0, 0), (1, 0), (0, 1)]

    def test_unknown_context_is_loud(self):
        log = EventLog(context_map=self.CONTEXT_MAP)
        with pytest.raises(ValueError, match="no shard owns"):
            log.enter_context("trace", "vp-9", 0)

    def test_rate_limit_is_per_shard(self):
        log = EventLog(kind_limit=1, context_map=self.CONTEXT_MAP)
        log.enter_context("trace", "vp-0", 0)
        assert log.emit("x") is not None
        assert log.emit("x") is None
        log.enter_context("trace", "vp-1", 0)
        assert log.emit("x") is not None

    def test_enter_context_noop_without_map(self):
        log = EventLog()
        log.enter_context("trace", "vp-0", 0)
        assert "shard" not in log.emit("x")


class TestCanonicalForm:
    def test_merge_order_is_shard_then_seq(self):
        log = EventLog(context_map=TestShardAttribution.CONTEXT_MAP)
        log.enter_context("trace", "vp-1", 0)
        log.emit("b")
        log.enter_context("trace", "vp-0", 0)
        log.emit("a")
        log.emit("c")
        for view in (log.events(), canonical_events(log.since(0))):
            assert [(e["shard"], e["seq"], e["kind"]) for e in view] == [
                (0, 0, "a"),
                (0, 1, "c"),
                (1, 0, "b"),
            ]

    def test_canonical_strips_wall_and_sorts_keys(self):
        log = EventLog()
        log.emit("x", "info", zeta=1, alpha=2)
        [entry] = canonical_events(log.since(0))
        assert "wall" not in entry
        assert list(entry) == sorted(entry)

    def test_jsonl_round_trip(self):
        events = [{"seq": 0, "kind": "a", "n": 1}, {"seq": 1, "kind": "b"}]
        text = render_events_jsonl(events)
        assert text.count("\n") == 2
        assert parse_events_jsonl(text) == events

    def test_parse_is_loud_on_garbage(self):
        with pytest.raises(ValueError, match="garbled event at line 2"):
            parse_events_jsonl('{"seq": 0}\nnot json\n')
        with pytest.raises(ValueError, match="not an object"):
            parse_events_jsonl("[1, 2]\n")

    def test_over_deep_json_is_a_value_error(self):
        with pytest.raises(ValueError, match="garbled event at line 1"):
            parse_events_jsonl("[" * 100000)

    @settings(max_examples=300, deadline=None)
    @given(
        raw=st.binary(max_size=256)
        | st.lists(
            st.recursive(
                st.none() | st.integers() | st.floats() | st.text(),
                lambda children: st.lists(children)
                | st.dictionaries(st.text(), children),
                max_leaves=10,
            ).map(json.dumps),
            max_size=4,
        ).map(lambda lines: "\n".join(lines).encode())
    )
    def test_arbitrary_bytes_parse_or_raise_value_error(self, raw):
        try:
            events = parse_events_jsonl(raw.decode("utf-8", "surrogateescape"))
        except ValueError:
            return
        assert all(isinstance(event, dict) for event in events)
