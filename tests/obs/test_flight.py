"""Unit tests for crash flight dumps: the event log's bounded tail."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import DEFAULT_EVENT_CAPACITY, EventLog, load_flight_dump
from repro.obs.events import FLIGHT_TAIL

#: Any JSON document, serialised: valid syntax of every shape.
JSON_DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=20,
).map(lambda value: json.dumps(value).encode())


class TestRing:
    def test_bounded_capacity_drops_oldest(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.emit("tick", "info", i=i)
        assert len(log.export()) == 3
        assert [e["i"] for e in log.export()] == [2, 3, 4]
        assert log.next_seq == 5

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            EventLog(capacity=0)

    def test_default_capacity(self):
        assert EventLog().capacity == DEFAULT_EVENT_CAPACITY

    def test_truthy_even_when_empty(self):
        assert EventLog()

    def test_payload_kind_key_cannot_collide(self):
        """Regression: fault payloads carry a ``kind``-like attribute;
        passing it through **fields must never crash the very code path
        that exists to record crashes, and the envelope wins."""
        log = EventLog(capacity=4)
        log.emit("span-event", "info", kind="link_flap", target="r1")
        event = log.export()[0]
        assert event["kind"] == "span-event"
        assert event["target"] == "r1"

    def test_clear(self):
        log = EventLog()
        log.emit("x")
        log.clear()
        assert len(log.export()) == 0


class TestDump:
    def test_dump_and_load_round_trip(self, tmp_path):
        log = EventLog(capacity=8)
        log.emit("shard-start", "debug", shard=3)
        log.emit("shard-crash", "alert", shard=3, error="boom")
        path = log.dump(tmp_path, reason="test crash", label="shard-3", attempt=1)
        assert path.name == "flight-shard-3.json"
        document = load_flight_dump(path)
        assert document["format"] == "ecn-udp-flight/1"
        assert document["label"] == "shard-3"
        assert document["reason"] == "test crash"
        assert document["context"] == {"attempt": 1}
        assert document["events_recorded"] == 2
        assert [e["kind"] for e in document["events"]] == [
            "shard-start",
            "shard-crash",
        ]

    def test_dump_writes_the_documented_keys(self, tmp_path):
        log = EventLog(kind_limit=1)
        log.emit("chatty")
        log.emit("chatty")  # rate-limited: reported under "dropped"
        with log.span("trace", "t"):
            pass
        document = load_flight_dump(log.dump(tmp_path, "r"))
        assert set(document) == {
            "format", "label", "reason", "pid", "dumped_at", "capacity",
            "events_recorded", "events", "dropped",
        }
        assert document["label"] == "parent"
        assert document["capacity"] == FLIGHT_TAIL
        assert document["dropped"] == {"chatty": 1}
        # Span records ride in the same tail.
        assert [e["kind"] for e in document["events"]] == [
            "chatty", "span-open", "span-close",
        ]

    def test_dump_carries_only_the_tail(self, tmp_path):
        log = EventLog(capacity=FLIGHT_TAIL * 2, kind_limit=FLIGHT_TAIL * 2)
        for i in range(FLIGHT_TAIL + 5):
            log.emit("tick", "info", i=i)
        document = load_flight_dump(log.dump(tmp_path, "r"))
        assert len(document["events"]) == FLIGHT_TAIL
        assert document["events"][-1]["i"] == FLIGHT_TAIL + 4
        assert document["events_recorded"] == FLIGHT_TAIL + 5

    def test_dump_creates_the_directory(self, tmp_path):
        path = EventLog().dump(tmp_path / "deep" / "obs", reason="r")
        assert path.exists()

    def test_dump_never_raises(self, tmp_path):
        """A failing dump must not mask the failure being recorded."""
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        log = EventLog()
        log.dump(blocker / "sub", reason="r")  # OSError swallowed
        # Unserialisable payloads are written by repr, not raised.
        log.emit("odd", "info", value=object())
        assert "object object" in json.dumps(load_flight_dump(log.dump(tmp_path, "r")))

    def test_load_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "flight-x.json"
        path.write_text('{"format": "something-else/9"}')
        with pytest.raises(ValueError, match="not a flight dump"):
            load_flight_dump(path)


class TestHostileDumps:
    @pytest.mark.parametrize(
        "raw",
        [b"[]", b"[" * 100000, b'{"format": ' * 50000, b"\xff\xfe\x00", b"null"],
        ids=["list", "deep-list", "deep-object", "bad-utf8", "null"],
    )
    def test_regressions_raise_value_error(self, tmp_path, raw):
        path = tmp_path / "flight-x.json"
        path.write_bytes(raw)
        with pytest.raises(ValueError):
            load_flight_dump(path)

    @settings(max_examples=200, deadline=None)
    @given(raw=st.binary(max_size=256) | JSON_DOCUMENTS)
    def test_arbitrary_bytes_parse_or_raise_value_error(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("hostile") / "flight-x.json"
        path.write_bytes(raw)
        try:
            document = load_flight_dump(path)
        except ValueError:
            return
        assert document["format"] == "ecn-udp-flight/1"
