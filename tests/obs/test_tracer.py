"""Tracer: span nesting, Chrome trace-event structure, validation."""

import json

import pytest

from repro.obs.tracer import Span, TRACE_PID, Tracer, validate_chrome_trace


def _events(tracer, phases=("B", "E")):
    return [e for e in tracer.events if e.get("ph") in phases]


class TestSpans:
    def test_begin_end_emits_balanced_pair(self):
        tracer = Tracer()
        span = tracer.begin("work", lane="drone0")
        duration = tracer.end(span)
        events = _events(tracer)
        assert [e["ph"] for e in events] == ["B", "E"]
        assert events[0]["name"] == events[1]["name"] == "work"
        assert duration >= 0
        assert events[1]["ts"] >= events[0]["ts"]

    def test_nesting_on_one_lane(self):
        tracer = Tracer()
        outer = tracer.begin("outer")
        inner = tracer.begin("inner")
        tracer.end(inner)
        tracer.end(outer)
        assert [e["name"] for e in _events(tracer)] == [
            "outer", "inner", "inner", "outer",
        ]

    def test_ending_outer_closes_dangling_children(self):
        tracer = Tracer()
        outer = tracer.begin("outer")
        tracer.begin("forgotten")
        tracer.end(outer)
        assert not validate_chrome_trace(tracer.to_chrome_trace())

    def test_end_unknown_span_raises(self):
        tracer = Tracer()
        span = tracer.begin("once")
        tracer.end(span)
        with pytest.raises(ValueError):
            tracer.end(span)

    def test_lanes_are_stable_and_distinct(self):
        tracer = Tracer()
        a = tracer.lane("drone0")
        b = tracer.lane("drone1")
        assert a != b
        assert tracer.lane("drone0") == a

    def test_finish_closes_everything_idempotently(self):
        tracer = Tracer()
        tracer.begin("open", lane="drone0")
        tracer.begin("open2", lane="drone1")
        tracer.finish()
        tracer.finish()
        assert not validate_chrome_trace(tracer.to_chrome_trace())


class TestChromeTraceDocument:
    def _sample(self):
        tracer = Tracer(process_name="spec-x")
        mission = tracer.begin("mission", lane="drone0")
        for i in range(3):
            decision = tracer.begin("decision", lane="drone0", args={"index": i})
            node = tracer.begin("sense", category="node", lane="drone0")
            tracer.end(node)
            tracer.end(decision)
        tracer.instant("fault", lane="drone0")
        tracer.counter("queue", {"depth": 2}, lane="drone0")
        tracer.end(mission)
        return tracer

    def test_document_envelope(self):
        doc = self._sample().to_chrome_trace()
        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"] == "ms"
        json.dumps(doc)  # must be JSON-serialisable as-is

    def test_metadata_names_process_and_threads(self):
        doc = self._sample().to_chrome_trace()
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {(e["name"], e["args"].get("name")) for e in meta}
        assert ("process_name", "spec-x") in names
        assert ("thread_name", "drone0") in names
        assert all(e["pid"] == TRACE_PID for e in meta)

    def test_validates_clean(self):
        assert validate_chrome_trace(self._sample().to_chrome_trace()) == []

    def test_write_chrome_trace(self, tmp_path):
        path = self._sample().write_chrome_trace(tmp_path / "t" / "trace.json")
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []

    def test_span_durations_aggregate(self):
        durations = self._sample().span_durations()
        assert durations["decision"]["count"] == 3
        assert durations["sense"]["count"] == 3
        assert durations["mission"]["count"] == 1
        assert durations["mission"]["total_us"] >= durations["decision"]["total_us"]

    def test_self_time_subtracts_direct_children_only(self):
        tracer = Tracer()
        outer = tracer.begin("decision")
        inner = tracer.begin("capture")
        tracer.end(tracer.begin("kernel"))
        tracer.end(inner)
        tracer.end(outer)
        ts = {(e["name"], e["ph"]): e["ts"] for e in _events(tracer)}
        span = lambda name: ts[(name, "E")] - ts[(name, "B")]
        assert tracer.self_time_us("decision") == span("decision") - span("capture")
        assert tracer.self_time_us("capture") == span("capture") - span("kernel")
        assert tracer.self_time_us("absent") == 0.0


class TestValidator:
    def test_flags_unbalanced_begin(self):
        doc = {"traceEvents": [
            {"name": "x", "ph": "B", "ts": 1.0, "pid": 1, "tid": 1},
        ]}
        assert any("unclosed" in p for p in validate_chrome_trace(doc))

    def test_flags_end_without_begin(self):
        doc = {"traceEvents": [
            {"name": "x", "ph": "E", "ts": 1.0, "pid": 1, "tid": 1},
        ]}
        assert any("without matching B" in p for p in validate_chrome_trace(doc))

    def test_flags_backwards_timestamps(self):
        doc = {"traceEvents": [
            {"name": "x", "ph": "B", "ts": 5.0, "pid": 1, "tid": 1},
            {"name": "x", "ph": "E", "ts": 1.0, "pid": 1, "tid": 1},
        ]}
        assert any("backwards" in p for p in validate_chrome_trace(doc))

    def test_flags_missing_envelope(self):
        assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
