"""A deterministic, in-process publish/subscribe middleware.

The paper implements RoboRun "on top of the Robot Operating System (ROS),
which provides inter-process communication and common robotics libraries"
(§III-A).  ROS is not available offline, so this package supplies the subset
RoboRun actually relies on:

* a **simulated clock** (:class:`~repro.middleware.clock.SimClock`) so that
  per-decision latencies, deadlines and mission time are charged analytically
  and experiments are exactly reproducible;
* **topics, messages and nodes**
  (:mod:`~repro.middleware.topic`, :mod:`~repro.middleware.node`) implementing
  typed publish/subscribe;
* a **single-threaded executor** (:class:`~repro.middleware.executor.Executor`)
  that dispatches callbacks deterministically in publication order; and
* the **stage names** of Figure 11's latency breakdown and the
  :class:`~repro.middleware.latency.LatencyLedger`, a read-only fold of one
  mission's decision records into per-stage compute and communication times.
"""

from repro.middleware.clock import SimClock
from repro.middleware.executor import Executor
from repro.middleware.latency import LatencyLedger
from repro.middleware.message import Header, Message
from repro.middleware.node import Node
from repro.middleware.topic import Topic, TopicBus

__all__ = [
    "Executor",
    "Header",
    "LatencyLedger",
    "Message",
    "Node",
    "SimClock",
    "Topic",
    "TopicBus",
]
