"""Simulated time, stage accounting and topic names.

The paper implements RoboRun "on top of the Robot Operating System (ROS),
which provides inter-process communication and common robotics libraries"
(§III-A).  ROS is not available offline, and the reproduction's decision is
one in-process call chain (:mod:`repro.simulation.pipeline`), so this
package keeps only what that chain needs from ROS:

* a **simulated clock** (:class:`~repro.middleware.clock.SimClock`) so that
  per-decision latencies, deadlines and mission time are charged analytically
  and experiments are exactly reproducible;
* the **stage names** of Figure 11's latency breakdown and the
  :class:`~repro.middleware.latency.LatencyLedger`, a read-only fold of one
  mission's decision records into per-stage compute and communication times
  (the ``comm_*`` stages model the hops between ROS nodes); and
* the **topic and node names** of the dispatch log, resolved per drone by
  :class:`~repro.middleware.topic.TopicNamespace`.
"""

from repro.middleware.clock import SimClock
from repro.middleware.latency import LatencyLedger
from repro.middleware.topic import TopicNamespace

__all__ = [
    "LatencyLedger",
    "SimClock",
    "TopicNamespace",
]
