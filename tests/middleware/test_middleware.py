"""Tests for the clock, topics, executor, nodes and latency ledger."""

from types import SimpleNamespace

import pytest

from repro.middleware.clock import SimClock
from repro.middleware.executor import Executor
from repro.middleware.latency import LatencyLedger
from repro.middleware.node import Node
from repro.middleware.topic import Topic, TopicBus


class TestSimClock:
    def test_advance_accumulates(self):
        clock = SimClock()
        assert clock.now == 0.0
        assert clock.advance(1.5) == pytest.approx(1.5)
        clock.advance(1.5)
        assert clock.now == pytest.approx(3.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)


class TestTopicsAndExecutor:
    def test_topic_name_validation(self):
        with pytest.raises(ValueError):
            Topic("no_slash")

    def test_publish_and_spin(self):
        bus = TopicBus()
        clock = SimClock()
        executor = Executor(bus, clock)
        received = []
        executor.subscribe("/cloud", lambda m: received.append(m.payload))
        executor.publish("/cloud", {"points": 3}, frame_id="camera")
        assert executor.pending == 1
        executor.spin()
        assert received == [{"points": 3}]
        assert executor.dispatched == 1

    def test_publish_cycle_detected(self):
        bus = TopicBus()
        executor = Executor(bus, SimClock())
        executor.subscribe("/a", lambda m: executor.publish("/a", m.payload, "looper"))
        executor.publish("/a", 0, frame_id="start")
        with pytest.raises(RuntimeError):
            executor.spin(max_callbacks=50)

    def test_node_publish_stamps_its_name(self):
        bus = TopicBus()
        executor = Executor(bus, SimClock())
        node = Node("planner", executor)
        received = []
        node.subscribe("/plan", received.append)
        node.publish("/plan", [1, 2, 3])
        executor.spin()
        assert bus.topic("/plan").publish_count == 1
        assert [(m.payload, m.header.frame_id) for m in received] == [
            ([1, 2, 3], "planner")
        ]


class TestExecutorReentrancy:
    """Callbacks that publish while being dispatched (the node-graph pattern)."""

    def make_executor(self, **kwargs):
        return Executor(TopicBus(), SimClock(), **kwargs)

    def test_nested_publish_is_fifo_ordered(self):
        # A callback's own publications queue behind everything already
        # pending: the delivery order is breadth-first, as in a ROS spinner.
        executor = self.make_executor()
        order = []
        executor.subscribe("/a", lambda m: (order.append("a1"), executor.publish("/b", None, "a1")))
        executor.subscribe("/a", lambda m: order.append("a2"))
        executor.subscribe("/b", lambda m: order.append("b"))
        executor.publish("/a", None, frame_id="start")
        executor.spin()
        assert order == ["a1", "a2", "b"]

    def test_chained_republication_terminates(self):
        # A bounded relay chain (a → b → c) drains without tripping the guard.
        executor = self.make_executor()
        seen = []
        executor.subscribe("/a", lambda m: executor.publish("/b", m.payload + 1, "a"))
        executor.subscribe("/b", lambda m: executor.publish("/c", m.payload + 1, "b"))
        executor.subscribe("/c", lambda m: seen.append(m.payload))
        executor.publish("/a", 0, frame_id="start")
        delivered = executor.spin()
        assert delivered == 3
        assert seen == [2]
        assert executor.pending == 0

    def test_runaway_guard_trips_at_budget(self):
        executor = self.make_executor()
        executor.subscribe("/a", lambda m: executor.publish("/a", m.payload, "looper"))
        executor.publish("/a", 0, frame_id="start")
        with pytest.raises(RuntimeError, match="publish cycle"):
            executor.spin(max_callbacks=7)
        # The guard fires after exactly the budgeted number of deliveries.
        assert executor.dispatched == 7

    def test_spin_after_guard_trip_can_resume(self):
        # The guard raises but leaves the queue intact; a non-cyclic workload
        # can still be drained afterwards.
        executor = self.make_executor()
        hits = []
        cycling = {"on": True}

        def maybe_cycle(m):
            hits.append(m.payload)
            if cycling["on"]:
                executor.publish("/a", m.payload + 1, "looper")

        executor.subscribe("/a", maybe_cycle)
        executor.publish("/a", 0, frame_id="start")
        with pytest.raises(RuntimeError):
            executor.spin(max_callbacks=3)
        cycling["on"] = False
        executor.spin()
        assert executor.pending == 0
        assert hits == list(range(len(hits)))

    def test_dispatch_log_records_topic_and_frame(self):
        executor = self.make_executor()
        executor.subscribe("/a", lambda m: executor.publish("/b", None, "node_a"))
        executor.subscribe("/b", lambda m: None)
        executor.publish("/a", None, frame_id="source")
        executor.spin()
        assert executor.dispatch_log == [("/a", "source"), ("/b", "node_a")]


class TestExecutorObservability:
    """The obs-facing surface: high-water mark and observers."""

    def make_executor(self, **kwargs):
        return Executor(TopicBus(), SimClock(), **kwargs)

    def test_queue_high_water_tracks_peak_not_current(self):
        executor = self.make_executor()
        executor.subscribe("/a", lambda m: None)
        executor.subscribe("/a", lambda m: None)
        executor.subscribe("/a", lambda m: None)
        assert executor.queue_high_water == 0
        executor.publish("/a", None, frame_id="src")
        assert executor.queue_high_water == 3
        executor.spin()
        assert executor.pending == 0
        assert executor.queue_high_water == 3

    def test_observer_sees_every_dispatch_in_order(self):
        executor = self.make_executor()
        seen = []

        class Watcher:
            def before_dispatch(self, topic, callback, message):
                seen.append(("before", topic, message.payload))

            def after_dispatch(self, topic, callback, message):
                seen.append(("after", topic, message.payload))

        executor.add_observer(Watcher())
        executor.subscribe("/a", lambda m: None)
        executor.publish("/a", 7, frame_id="src")
        executor.spin()
        assert seen == [("before", "/a", 7), ("after", "/a", 7)]

    def test_observer_with_partial_hooks_is_fine(self):
        executor = self.make_executor()
        befores = []

        class BeforeOnly:
            def before_dispatch(self, topic, callback, message):
                befores.append(topic)

        executor.add_observer(BeforeOnly())
        executor.subscribe("/a", lambda m: None)
        executor.publish("/a", None, frame_id="src")
        executor.spin()
        assert befores == ["/a"]

    def test_observer_does_not_change_the_dispatch_log(self):
        def run(with_observer):
            executor = self.make_executor()

            class Silent:
                def before_dispatch(self, *a):
                    pass

                def after_dispatch(self, *a):
                    pass

            if with_observer:
                executor.add_observer(Silent())
            executor.subscribe(
                "/a", lambda m: executor.publish("/b", None, "node_a")
            )
            executor.subscribe("/b", lambda m: None)
            executor.publish("/a", None, frame_id="source")
            executor.spin()
            return executor.dispatch_log

        assert run(with_observer=True) == run(with_observer=False)

    def test_add_observer_is_idempotent(self):
        executor = self.make_executor()
        calls = []

        class Watcher:
            def before_dispatch(self, topic, callback, message):
                calls.append(topic)

        watcher = Watcher()
        executor.add_observer(watcher)
        executor.add_observer(watcher)  # idempotent
        executor.subscribe("/a", lambda m: None)
        executor.publish("/a", None, frame_id="src")
        executor.spin()
        assert calls == ["/a"]


def decision_records(*stage_maps):
    """Stand-ins carrying the two fields the ledger folds."""
    return [
        SimpleNamespace(stage_latencies=stages, end_to_end_latency=sum(stages.values()))
        for stages in stage_maps
    ]


class TestLatencyLedger:
    def test_decision_aggregation(self):
        ledger = LatencyLedger(
            decision_records(
                {"point_cloud": 0.2, "octomap": 0.3, "comm_octomap": 0.1},
                {"point_cloud": 0.2, "octomap": 0.1},
            )
        )
        assert ledger.end_to_end_latencies() == pytest.approx([0.6, 0.3])
        assert ledger.stage_totals() == pytest.approx(
            {"point_cloud": 0.4, "octomap": 0.4, "comm_octomap": 0.1}
        )
        assert ledger.median_latency() == pytest.approx((0.6 + 0.3) / 2)
        assert ledger.max_latency() == pytest.approx(0.6)

    def test_empty_mission_folds_to_zero(self):
        ledger = LatencyLedger([])
        assert ledger.stage_totals() == {}
        assert ledger.median_latency() == 0.0
        assert ledger.max_latency() == 0.0

    def test_stage_shares_sum_to_one(self):
        ledger = LatencyLedger(
            decision_records({"point_cloud": 0.4, "piecewise_planning": 0.6})
        )
        shares = ledger.stage_shares()
        assert sum(shares.values()) == pytest.approx(1.0)
