"""Deterministic callback executor.

The executor plays the role of ROS's spinner: it owns the queue of pending
subscriber callbacks and dispatches them in FIFO order.  Because the whole
reproduction is single-process and driven by a simulated clock, a simple
run-to-completion executor is sufficient and makes every experiment exactly
repeatable.

Observability hooks into dispatch through :meth:`Executor.add_observer`:
an observer sees every delivery (before and after the callback runs) but
cannot publish, reorder or mutate messages, so attaching one never changes
the dispatch log — the determinism witness stays byte-identical whether or
not anyone is watching.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, List, Tuple

from repro.middleware.clock import SimClock
from repro.middleware.message import Message
from repro.middleware.topic import SubscriberCallback, Topic, TopicBus


@dataclass(frozen=True, slots=True)
class _PendingDispatch:
    """A callback waiting to be delivered with its message."""

    topic_name: str
    callback: SubscriberCallback
    message: Message[Any]


class Executor:
    """Owns publication and dispatch over a :class:`TopicBus`.

    Nodes publish through the executor rather than directly on topics so that
    dispatch ordering, re-entrancy (a callback publishing another message) and
    the processed-message count are centralised.
    """

    def __init__(self, bus: TopicBus, clock: SimClock) -> None:
        self.bus = bus
        self.clock = clock
        self._queue: Deque[_PendingDispatch] = deque()
        self._dispatched = 0
        self._dispatch_log: List[Tuple[str, str]] = []
        self._queue_high_water = 0
        self._observers: List[Any] = []

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    def add_observer(self, observer: Any) -> None:
        """Attach a passive dispatch observer.

        An observer may implement ``before_dispatch(topic_name, callback,
        message)`` and/or ``after_dispatch(topic_name, callback, message)``;
        missing hooks are skipped.  Observers run on the dispatch hot path,
        so when none are attached the cost is a single truthiness check.
        """
        if observer not in self._observers:
            self._observers.append(observer)

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def publish(self, topic_name: str, payload: Any, frame_id: str) -> Message[Any]:
        """Publish ``payload`` on the named topic, stamped with the current time.

        Subscriber callbacks are queued, not run inline; call :meth:`spin`
        (or :meth:`spin_once`) to deliver them.
        """
        topic = self.bus.topic(topic_name)
        message = Message.create(payload, stamp=self.clock.now, frame_id=frame_id)
        for callback in topic.publish():
            self._queue.append(_PendingDispatch(topic_name, callback, message))
        if len(self._queue) > self._queue_high_water:
            self._queue_high_water = len(self._queue)
        return message

    def subscribe(self, topic_name: str, callback: SubscriberCallback) -> Topic:
        """Subscribe a callback to the named topic, creating it if needed."""
        topic = self.bus.topic(topic_name)
        topic.subscribe(callback)
        return topic

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def spin_once(self) -> bool:
        """Deliver a single pending callback.

        Returns:
            True when a callback was delivered, False when the queue is empty.
        """
        if not self._queue:
            return False
        pending = self._queue.popleft()
        self._dispatch_log.append((pending.topic_name, pending.message.header.frame_id))
        if self._observers:
            for observer in self._observers:
                before = getattr(observer, "before_dispatch", None)
                if before is not None:
                    before(pending.topic_name, pending.callback, pending.message)
            pending.callback(pending.message)
            for observer in self._observers:
                after = getattr(observer, "after_dispatch", None)
                if after is not None:
                    after(pending.topic_name, pending.callback, pending.message)
        else:
            pending.callback(pending.message)
        self._dispatched += 1
        return True

    def spin(self, max_callbacks: int = 10_000) -> int:
        """Deliver queued callbacks until the queue drains.

        Callbacks may themselves publish, so the queue can grow while
        spinning; ``max_callbacks`` guards against a runaway publish loop.

        Returns:
            The number of callbacks delivered.

        Raises:
            RuntimeError: if the callback budget is exhausted, which almost
                always indicates two nodes publishing to each other in a
                cycle without a termination condition.
        """
        delivered = 0
        while self._queue:
            if delivered >= max_callbacks:
                raise RuntimeError(
                    f"executor exceeded {max_callbacks} callbacks in one spin; "
                    "likely a publish cycle between nodes"
                )
            self.spin_once()
            delivered += 1
        return delivered

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of callbacks waiting to be delivered."""
        return len(self._queue)

    @property
    def dispatched(self) -> int:
        """Total callbacks delivered since construction."""
        return self._dispatched

    @property
    def queue_high_water(self) -> int:
        """Largest queue depth ever reached (peak concurrency of the graph)."""
        return self._queue_high_water

    @property
    def dispatch_log(self) -> List[Tuple[str, str]]:
        """(topic, publishing frame) per delivered callback, in dispatch order.

        The log is the determinism witness for the node graph: two missions
        with the same seed must produce identical logs.
        """
        return list(self._dispatch_log)
