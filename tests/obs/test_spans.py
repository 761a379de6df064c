"""Unit tests for the span timeline the event log records, and its views."""

import json

import pytest

from repro.obs import (
    DETAIL_EPOCH,
    DETAIL_PROBE,
    ROOT_SPAN_ID,
    EventLog,
    canonical_events,
    chrome_trace_events,
    export_chrome_trace,
    span_id,
)
from repro.obs.spans import SPAN_CLOSE, SPAN_OPEN, span_tree


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def recorder(clock=None, detail=DETAIL_EPOCH, context_map=None):
    log = EventLog(stamp_wall=False, detail=detail, context_map=context_map)
    log.bind_clock(clock or FakeClock())
    return log


class TestSpanIds:
    def test_ids_derive_from_shard_and_sequence(self):
        assert span_id(3, 7) == "s3.7"

    def test_sequence_counters_are_per_shard(self):
        rec = recorder(context_map={("traces", "a", 0): 1, ("traces", "b", 0): 2})
        rec.enter_context("traces", "a")
        with rec.span("trace", "t0"):
            pass
        rec.enter_context("traces", "b")
        with rec.span("trace", "t1"):
            pass
        rec.enter_context("traces", "a")
        with rec.span("trace", "t2"):
            pass
        ids = [s["id"] for s in rec.spans()]
        # Each shard span is seq 0 of its shard; epochs continue from 1.
        assert ids == [ROOT_SPAN_ID, "s1.0", "s1.1", "s1.2", "s2.0", "s2.1"]

    def test_unknown_context_falls_back_to_shard_zero(self):
        """A log without a context map files its spans under shard 0."""
        rec = recorder(context_map={})
        rec.enter_context("traces", "nowhere", batch=9)
        with rec.span("trace", "t"):
            pass
        assert [s["id"] for s in rec.spans()] == [ROOT_SPAN_ID, "s0.0", "s0.1"]

    def test_context_switch_with_open_span_is_an_error(self):
        rec = recorder()
        with rec.span("trace", "t"):
            with pytest.raises(RuntimeError, match="open spans"):
                rec.enter_context("traces", "a")


class TestRecording:
    def test_nesting_and_sim_times(self):
        clock = FakeClock(10.0)
        rec = recorder(clock=clock)
        with rec.span("trace", "outer"):
            clock.now = 12.0
            with rec.span("probe", "inner"):
                clock.now = 15.0
            clock.now = 20.0
        spans = rec.spans()
        outer = next(s for s in spans if s["name"] == "outer")
        inner = next(s for s in spans if s["name"] == "inner")
        assert (outer["sim_start"], outer["sim_end"]) == (10.0, 20.0)
        assert (inner["sim_start"], inner["sim_end"]) == (12.0, 15.0)
        assert inner["parent"] == outer["id"]

    def test_events_attach_to_innermost_span(self):
        rec = recorder()
        with rec.span("trace", "t"):
            rec.emit("fault", "warning", fault="link_flap")
        span = next(s for s in rec.spans() if s["name"] == "t")
        assert span["events"][0]["name"] == "fault"
        assert span["events"][0]["attrs"] == {"kind": "link_flap"}

    def test_debug_events_stay_off_the_timeline(self):
        rec = recorder()
        with rec.span("trace", "t"):
            rec.emit("epoch-start", "debug", epoch=0)
        span = next(s for s in rec.spans() if s["name"] == "t")
        assert "events" not in span
        assert [e["kind"] for e in rec.events()] == ["epoch-start"]

    def test_orphan_events_flush_into_next_span(self):
        """Fault installation runs between epochs; its event must land
        in the epoch it impairs, not vanish."""
        rec = recorder(context_map={("traces", "a", 0): 0})
        rec.enter_context("traces", "a")
        rec.emit("fault", "warning", fault="bleach_on")
        with rec.span("trace", "next-epoch"):
            pass
        span = next(s for s in rec.spans() if s["name"] == "next-epoch")
        assert [e["name"] for e in span["events"]] == ["fault"]

    def test_annotate_merges_into_open_span(self):
        rec = recorder()
        with rec.span("probe", "p"):
            rec.annotate(udp_plain=True)
        span = next(s for s in rec.spans() if s["name"] == "p")
        assert span["attrs"]["udp_plain"] is True

    def test_detail_levels_are_validated(self):
        with pytest.raises(ValueError, match="unknown span detail"):
            EventLog(detail="nanosecond")
        assert recorder(detail=DETAIL_PROBE).detail == DETAIL_PROBE

    def test_spans_are_open_and_close_records_in_the_stream(self):
        rec = recorder()
        with rec.span("trace", "t"):
            rec.emit("fault", "warning", fault="link_flap")
        kinds = [record["kind"] for record in rec.since(0)]
        assert kinds == ["span-open", "fault", "span-close"]


class TestAssembly:
    def test_shard_interval_synthesized_from_children(self):
        clock = FakeClock(5.0)
        rec = recorder(clock=clock)
        with rec.span("trace", "a"):
            clock.now = 9.0
        clock.now = 30.0
        with rec.span("trace", "b"):
            clock.now = 42.0
        shard = rec.spans()[1]
        assert shard["kind"] == "shard"
        assert (shard["sim_start"], shard["sim_end"]) == (5.0, 42.0)

    def test_root_spans_the_whole_study(self):
        rec = recorder(clock=FakeClock(7.0))
        with rec.span("trace", "t"):
            pass
        root = rec.spans()[0]
        assert root["id"] == ROOT_SPAN_ID
        assert root["parent"] is None
        assert root["kind"] == "study"

    def test_assemble_orders_shards_by_id(self):
        def shard_stream(shard):
            opened = {"kind": SPAN_OPEN, "id": span_id(shard, 1),
                      "parent": span_id(shard, 0), "span": "trace",
                      "name": "t", "shard": shard}
            closed = {"kind": SPAN_CLOSE, "id": span_id(shard, 1),
                      "shard": shard, "wall_ms": 1.0}
            return [(0.0, opened), (1.0, closed)]

        log = EventLog()
        for shard in (2, 0):
            log.absorb(shard, shard_stream(shard))
        spans = log.spans()
        assert [s["id"] for s in spans] == [ROOT_SPAN_ID, "s0.0", "s0.1", "s2.0", "s2.1"]

    def test_assemble_empty_exports(self):
        spans = span_tree({})
        assert len(spans) == 1 and spans[0]["id"] == ROOT_SPAN_ID

    def test_absorbed_streams_equal_the_recorded_ones(self):
        """The parent's merge of worker streams and a sequential log
        produce the same views: one assembly path."""
        rec = recorder(context_map={("traces", "a", 0): 0, ("traces", "b", 0): 1})
        for vantage in ("a", "b"):
            rec.enter_context("traces", vantage)
            rec.emit("fault", "warning", fault="link_flap")
            with rec.span("trace", f"t-{vantage}"):
                pass
        merged = EventLog()
        for shard in (1, 0, 1):  # completion order and a duplicate
            merged.absorb(shard, rec.stream(shard))
        assert merged.spans() == rec.spans()
        assert merged.events() == rec.events()

    def test_canonical_strips_wall_clock_only(self):
        rec = recorder()
        with rec.span("trace", "t", vantage="v"):
            pass
        canonical = canonical_events(rec.spans())
        assert all("wall_ms" not in s for s in canonical)
        assert canonical[2]["attrs"] == {"vantage": "v"}

    def test_span_children_indexes_by_parent(self):
        rec = recorder()
        with rec.span("trace", "t"):
            with rec.span("probe", "p"):
                pass
        spans = rec.spans()
        assert [s["name"] for s in spans if s["parent"] is None] == ["study"]
        assert [s["name"] for s in spans if s["parent"] == "s0.1"] == ["p"]


class TestChromeTrace:
    def trace_spans(self):
        clock = FakeClock(1.0)
        rec = recorder(clock=clock)
        with rec.span("trace", "t0", vantage="v"):
            rec.emit("fault", "warning", fault="link_flap")
            clock.now = 2.5
        return rec.spans()

    def test_events_follow_the_trace_event_schema(self):
        events = chrome_trace_events(self.trace_spans())
        for event in events:
            assert event["ph"] in ("X", "M", "i")
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
                assert "ts" in event and "name" in event
            if event["ph"] == "i":
                assert event["s"] in ("g", "p", "t")

    def test_shards_map_to_processes(self):
        events = chrome_trace_events(self.trace_spans())
        names = {
            e["args"]["name"] for e in events if e["name"] == "process_name"
        }
        assert names == {"study", "shard 0"}

    def test_sim_seconds_export_as_microseconds(self):
        events = chrome_trace_events(self.trace_spans())
        t0 = next(e for e in events if e.get("name") == "t0" and e["ph"] == "X")
        assert t0["ts"] == pytest.approx(1.0e6)
        assert t0["dur"] == pytest.approx(1.5e6)

    def test_export_writes_a_loadable_document(self, tmp_path):
        path = tmp_path / "trace.json"
        export_chrome_trace(self.trace_spans(), path)
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert isinstance(document["traceEvents"], list)
        assert document["traceEvents"]
