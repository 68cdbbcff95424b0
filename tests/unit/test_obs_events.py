"""Unit: the structured event bus, its sinks, and the JSONL round-trip."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.events import (
    EVENT_SCHEMA,
    Event,
    EventBus,
    JsonlSink,
    MemorySink,
    NullSink,
    read_jsonl,
)


class TestEvent:
    def test_dict_round_trip(self):
        event = Event(time=4, kind="hop", payload={"agent": 1, "to": 9})
        assert Event.from_dict(event.to_dict()) == event

    def test_payload_defaults_empty(self):
        assert Event.from_dict({"time": 1, "kind": "x"}).payload == {}


class TestSinks:
    def test_memory_sink_captures_in_order(self):
        sink = MemorySink()
        bus = EventBus([sink])
        bus.emit(1, "a", x=1)
        bus.emit(2, "b", x=2)
        assert [e.kind for e in sink.events] == ["a", "b"]
        assert len(sink) == 2

    def test_memory_sink_caps_and_counts_drops(self):
        sink = MemorySink(max_events=2)
        bus = EventBus([sink])
        for step in range(5):
            bus.emit(step, "tick")
        assert len(sink) == 2
        assert sink.dropped == 3
        sink.clear()
        assert len(sink) == 0 and sink.dropped == 0

    def test_null_sink_discards(self):
        sink = NullSink()
        EventBus([sink]).emit(1, "gone")
        sink.close()  # no-op, must not raise

    def test_kind_filter(self):
        sink = MemorySink()
        bus = EventBus([sink], kinds=["keep"])
        bus.emit(1, "keep")
        bus.emit(1, "drop")
        assert [e.kind for e in sink.events] == ["keep"]
        assert bus.wants("keep") and not bus.wants("drop")

    def test_payload_may_carry_its_own_kind_and_time(self):
        # fault_injected names the fault's kind in its payload.
        sink = MemorySink()
        EventBus([sink]).emit(3, "fault_injected", kind="crash", time=9)
        (event,) = sink.events
        assert (event.time, event.kind) == (3, "fault_injected")
        assert event.payload == {"kind": "crash", "time": 9}

    def test_multiple_sinks_all_receive(self):
        one, two = MemorySink(), MemorySink()
        EventBus([one, two]).emit(1, "x")
        assert len(one) == 1 and len(two) == 1


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path, manifest={"seed": 7})
        bus = EventBus([sink])
        bus.emit(1, "hop", agent=0, to=3)
        bus.emit(2, "meeting", count=2)
        bus.close()
        header, events = read_jsonl(path)
        assert header["schema"] == EVENT_SCHEMA
        assert header["manifest"] == {"seed": 7}
        assert events == [
            Event(1, "hop", {"agent": 0, "to": 3}),
            Event(2, "meeting", {"count": 2}),
        ]

    def test_torn_trailing_line_dropped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        EventBus([sink]).emit(1, "ok")
        sink.close()
        with path.open("a") as handle:
            handle.write('{"time": 2, "kind": "to')  # killed mid-write
        __, events = read_jsonl(path)
        assert [e.kind for e in events] == ["ok"]

    def test_missing_or_bad_header_rejected(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ConfigurationError):
            read_jsonl(empty)
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"schema": 999, "kind": "header"}) + "\n")
        with pytest.raises(ConfigurationError):
            read_jsonl(bad)

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        with pytest.raises(ConfigurationError):
            sink.emit(Event(1, "late"))
