"""Unit: the collector's bounded event list, and the trace file read back
through the shared journal reader."""

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments.persistence import read_journal
from repro.obs import collector as collector_module
from repro.obs.collector import ObsCollector, ObsConfig, ObsReport
from repro.obs.output import EVENT_SCHEMA, ObsAccumulator
from repro.sim.engine import TimeStepEngine


def make_collector(config=ObsConfig(events=True)):
    engine = TimeStepEngine()
    return engine, ObsCollector(config, engine, scenario="routing")


def finalize(collector):
    # With metrics off, finalize reads none of the whole-run totals.
    return collector.finalize(None, None, 0, 0, 0)


class TestCollectorEvents:
    def test_events_kept_in_emission_order(self):
        engine, collector = make_collector()
        engine.hooks.fire("agent_moved", time=1, agent=0, to=3)
        collector.meetings(2, 2)
        collector.meetings(3, 0)  # zero counts record nothing
        expected = [
            {"time": 1, "kind": "agent_moved", "payload": {"agent": 0, "to": 3}},
            {"time": 2, "kind": "meetings", "payload": {"count": 2}},
        ]
        assert collector.events == expected
        report = finalize(collector)
        assert report.events is collector.events
        assert report.events_dropped == 0

    def test_cap_counts_dropped_events(self, monkeypatch):
        monkeypatch.setattr(collector_module, "MAX_EVENTS", 2)
        __, collector = make_collector()
        for step in range(1, 6):
            collector.meetings(step, 1)
        assert [event["time"] for event in collector.events] == [1, 2]
        assert collector.events_dropped == 3
        assert finalize(collector).events_dropped == 3

    def test_fault_event_payload_carries_its_own_kind(self):
        engine, collector = make_collector()
        engine.hooks.fire(
            "fault_injected", time=3, kind="crash", target=(4,), applied=True
        )
        assert collector.events == [
            {
                "time": 3,
                "kind": "fault_injected",
                "payload": {"kind": "crash", "target": [4], "applied": True},
            }
        ]

    def test_events_off_records_none(self):
        engine, collector = make_collector(ObsConfig(metrics=True))
        engine.hooks.fire("agent_moved", time=1, agent=0, to=3)
        assert collector.events is None
        assert collector.metrics.counter("agents.hops") == 1


def write_trace(path, reports):
    accumulator = ObsAccumulator()
    accumulator.start_experiment("exp")
    for run_index, events in enumerate(reports):
        accumulator.add("routing", "plain", run_index, ObsReport(events=events))
    return accumulator.write_trace(path, {"seed": 7})


class TestJsonl:
    def test_round_trip(self, tmp_path):
        hop = {"time": 1, "kind": "hop", "payload": {"agent": 0, "to": 3}}
        meeting = {"time": 2, "kind": "meeting", "payload": {"count": 2}}
        path = write_trace(tmp_path / "trace.jsonl", [[hop, meeting], [hop]])
        header, records = read_journal(path, EVENT_SCHEMA, "trace")
        assert header == {"schema": EVENT_SCHEMA, "kind": "header", "manifest": {"seed": 7}}
        tags = {"experiment": "exp", "scenario": "routing", "variant": "plain"}
        assert records == [
            {**tags, "run": 0, "seq": 0, **hop},
            {**tags, "run": 0, "seq": 1, **meeting},
            {**tags, "run": 1, "seq": 0, **hop},
        ]

    def test_torn_trailing_line_dropped(self, tmp_path):
        ok = {"time": 1, "kind": "ok", "payload": {}}
        path = write_trace(tmp_path / "trace.jsonl", [[ok]])
        with path.open("a") as handle:
            handle.write('{"time": 2, "kind": "to')  # killed mid-write
        __, records = read_journal(path, EVENT_SCHEMA, "trace")
        assert [record["kind"] for record in records] == ["ok"]

    def test_missing_or_bad_header_rejected(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ExperimentError, match="trace .* is empty"):
            read_journal(empty, EVENT_SCHEMA, "trace")
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"schema": 999, "kind": "header"}) + "\n")
        with pytest.raises(ExperimentError, match="unsupported header"):
            read_journal(bad, EVENT_SCHEMA, "trace")
