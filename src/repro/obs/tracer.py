"""Wall-clock spans with Chrome trace-event export.

The :class:`Tracer` is the time half of the observability layer: nested
mission → decision → node spans, each recording the wall-clock duration of
real Python work *and* the sim-clock interval it covered.  Spans are
appended to a flat list as begin/end ("B"/"E") event pairs in the Chrome
trace-event format, so a mission's trace loads directly into Perfetto or
``chrome://tracing`` with no conversion step.

Layout conventions:

* one *process* per traced run (``pid`` 1) named after the mission/spec;
* one *thread* per drone (``tid`` = drone index + 1, named after the
  ``drone_id``) — the runtime is single-threaded, but mapping drones onto
  trace threads is what makes fleet missions readable as parallel lanes;
* timestamps are microseconds from the tracer's start, taken from
  :func:`time.perf_counter`;
* the sim-clock time of each span lands in the event ``args`` so both
  clocks stay visible side by side.

Everything here is passive bookkeeping: a span is two ``perf_counter``
calls and two dict appends, and nothing in the simulation ever reads the
tracer back.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

PathLike = Union[str, Path]

#: The single trace process id; the runtime is one OS process.
TRACE_PID = 1


@dataclass
class Span:
    """One open span on a tracer lane; closed via :meth:`Tracer.end`."""

    name: str
    category: str
    tid: int
    start_us: float
    args: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Collects nested spans and renders them as Chrome trace events.

    Spans nest per *lane* (trace thread): ``begin`` pushes onto the lane's
    stack, ``end`` pops and emits the matched "B"/"E" pair.  Lanes are
    created on first use via :meth:`lane` and map one-to-one onto drone
    ids, so fleet missions render as parallel swimlanes.
    """

    def __init__(self, process_name: str = "repro") -> None:
        self.process_name = process_name
        self._origin = time.perf_counter()
        self._events: List[Dict[str, Any]] = []
        self._lanes: Dict[str, int] = {}
        self._stacks: Dict[int, List[Span]] = {}
        self._finished = False

    # ------------------------------------------------------------------
    # Lanes
    # ------------------------------------------------------------------
    def lane(self, name: str) -> int:
        """The trace-thread id for ``name``, creating the lane on first use."""
        tid = self._lanes.get(name)
        if tid is None:
            tid = len(self._lanes) + 1
            self._lanes[name] = tid
            self._stacks[tid] = []
        return tid

    @property
    def lanes(self) -> Dict[str, int]:
        return dict(self._lanes)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def now_us(self) -> float:
        return (time.perf_counter() - self._origin) * 1e6

    def begin(
        self,
        name: str,
        category: str = "repro",
        lane: str = "main",
        args: Optional[Dict[str, Any]] = None,
    ) -> Span:
        tid = self.lane(lane)
        span = Span(
            name=name,
            category=category,
            tid=tid,
            start_us=self.now_us(),
            args=dict(args or {}),
        )
        self._stacks[tid].append(span)
        self._events.append(
            {
                "name": name,
                "cat": category,
                "ph": "B",
                "ts": span.start_us,
                "pid": TRACE_PID,
                "tid": tid,
                "args": span.args,
            }
        )
        return span

    def end(self, span: Span, args: Optional[Dict[str, Any]] = None) -> float:
        """Close ``span`` (and anything opened after it on the same lane).

        Returns the span's wall-clock duration in microseconds.
        """
        stack = self._stacks[span.tid]
        if span not in stack:
            raise ValueError(f"span {span.name!r} is not open")
        # Close any dangling children first so B/E events stay balanced and
        # properly nested even if a caller forgot an inner end().
        while stack and stack[-1] is not span:
            self._emit_end(stack.pop(), None)
        stack.pop()
        return self._emit_end(span, args)

    def _emit_end(
        self, span: Span, args: Optional[Dict[str, Any]]
    ) -> float:
        end_us = self.now_us()
        event: Dict[str, Any] = {
            "name": span.name,
            "cat": span.category,
            "ph": "E",
            "ts": end_us,
            "pid": TRACE_PID,
            "tid": span.tid,
        }
        if args:
            event["args"] = dict(args)
        self._events.append(event)
        return end_us - span.start_us

    def instant(
        self,
        name: str,
        category: str = "repro",
        lane: str = "main",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """A zero-duration marker event (fault activations, drops)."""
        self._events.append(
            {
                "name": name,
                "cat": category,
                "ph": "i",
                "s": "t",
                "ts": self.now_us(),
                "pid": TRACE_PID,
                "tid": self.lane(lane),
                "args": dict(args or {}),
            }
        )

    def counter(
        self,
        name: str,
        values: Dict[str, float],
        lane: str = "main",
    ) -> None:
        """A counter-track sample (queue depth over time, say)."""
        self._events.append(
            {
                "name": name,
                "ph": "C",
                "ts": self.now_us(),
                "pid": TRACE_PID,
                "tid": self.lane(lane),
                "args": dict(values),
            }
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Close every still-open span (idempotent)."""
        if self._finished:
            return
        for stack in self._stacks.values():
            while stack:
                self._emit_end(stack.pop(), None)
        self._finished = True

    def _metadata_events(self) -> List[Dict[str, Any]]:
        events: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": 0,
                "args": {"name": self.process_name},
            }
        ]
        for lane_name, tid in self._lanes.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": TRACE_PID,
                    "tid": tid,
                    "args": {"name": lane_name},
                }
            )
            events.append(
                {
                    "name": "thread_sort_index",
                    "ph": "M",
                    "pid": TRACE_PID,
                    "tid": tid,
                    "args": {"sort_index": tid},
                }
            )
        return events

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The full trace document; closes open spans first."""
        self.finish()
        return {
            "traceEvents": self._metadata_events() + list(self._events),
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs"},
        }

    def write_chrome_trace(self, path: PathLike) -> Path:
        destination = Path(path)
        destination.parent.mkdir(parents=True, exist_ok=True)
        destination.write_text(
            json.dumps(self.to_chrome_trace()) + "\n", encoding="utf-8"
        )
        return destination

    @property
    def events(self) -> List[Dict[str, Any]]:
        return list(self._events)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def span_durations(self) -> Dict[str, Dict[str, float]]:
        """Wall-clock totals per span name: count / total_us / max_us.

        Matches "B" and "E" events per (tid, name) as a stack, which is
        exactly how trace viewers pair them; used by the profile CLI's
        hotspot table.
        """
        open_spans: Dict[tuple, List[float]] = {}
        totals: Dict[str, Dict[str, float]] = {}
        for event in self._events:
            phase = event.get("ph")
            key = (event["tid"], event["name"])
            if phase == "B":
                open_spans.setdefault(key, []).append(event["ts"])
            elif phase == "E":
                starts = open_spans.get(key)
                if not starts:
                    continue
                duration = event["ts"] - starts.pop()
                entry = totals.setdefault(
                    event["name"],
                    {"count": 0.0, "total_us": 0.0, "max_us": 0.0},
                )
                entry["count"] += 1
                entry["total_us"] += duration
                if duration > entry["max_us"]:
                    entry["max_us"] = duration
        return totals

    def self_time_us(self, name: str) -> float:
        """Wall-clock time inside spans called ``name`` but outside their children.

        Pairs "B"/"E" events per lane as a stack, like
        :meth:`span_durations`, and subtracts each direct child's duration
        from its parent.  For ``"decision"`` this is the decision time no
        capture or node span accounts for.
        """
        stacks: Dict[int, List[List[Any]]] = {}
        total = 0.0
        for event in self._events:
            phase = event.get("ph")
            if phase == "B":
                stacks.setdefault(event["tid"], []).append(
                    [event["name"], event["ts"], 0.0]
                )
            elif phase == "E":
                stack = stacks.get(event["tid"])
                if not stack:
                    continue
                span_name, start, children_us = stack.pop()
                duration = event["ts"] - start
                if stack:
                    stack[-1][2] += duration
                if span_name == name:
                    total += duration - children_us
        return total


def validate_chrome_trace(document: Dict[str, Any]) -> List[str]:
    """Structural checks on a trace document; returns a list of problems.

    Used by the test suite (and available to callers) to confirm a trace is
    Perfetto-loadable: the envelope is present, every lane's "B"/"E" events
    balance, and timestamps never run backwards.
    """
    problems: List[str] = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    depth: Dict[int, int] = {}
    last_ts: Dict[int, float] = {}
    for i, event in enumerate(events):
        phase = event.get("ph")
        if phase not in {"B", "E", "i", "C", "M", "X"}:
            problems.append(f"event {i}: unknown phase {phase!r}")
            continue
        if phase == "M":
            continue
        tid = event.get("tid")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"event {i}: non-numeric ts {ts!r}")
            continue
        if ts < last_ts.get(tid, float("-inf")):
            problems.append(f"event {i}: ts runs backwards on tid {tid}")
        last_ts[tid] = ts
        if phase == "B":
            depth[tid] = depth.get(tid, 0) + 1
        elif phase == "E":
            depth[tid] = depth.get(tid, 0) - 1
            if depth[tid] < 0:
                problems.append(f"event {i}: E without matching B on tid {tid}")
    for tid, d in depth.items():
        if d > 0:
            problems.append(f"tid {tid}: {d} unclosed B event(s)")
    return problems
