"""The RoboRun runtime.

Ties the profilers, governor (time budgeter + solver) and operators together
into the spatial-aware runtime of Figure 6.  The mission simulator drives it
through two calls per decision:

* :meth:`RoboRunRuntime.profile` — post-process the pipeline's current data
  structures into a :class:`~repro.core.profilers.SpaceProfile`; and
* :meth:`RoboRunRuntime.decide` — run the governor on that profile to obtain
  the knob policy, decision deadline and safe-velocity cap.

The runtime also keeps a trace of every decision it has made, which the
analysis layer uses to reproduce the precision-over-time and deadline-over-
time figures (Figures 5 and 10c).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.governor import Governor, GovernorDecision
from repro.core.profilers import ProfilerSuite, SpaceProfile
from repro.perception.octomap import OccupancyOctree
from repro.perception.point_cloud import PointCloud
from repro.planning.trajectory import Trajectory
from repro.sensors.rig import RigScan
from repro.sensors.state_sensors import StateEstimate


class RoboRunRuntime:
    """The spatial-aware runtime under test: profilers + governor per decision.

    Each decision it receives a :class:`~repro.core.profilers.SpaceProfile`
    (distances in metres, volumes in cubic metres, velocity in m/s) and
    returns a :class:`~repro.core.governor.GovernorDecision`: the time
    budget in seconds, the knob policy the operators must enforce, and the
    safe velocity cap in m/s.  This is the design whose Figure 7 mission
    metrics the paper credits with the 5× velocity / 4.5× mission-time
    improvements; :class:`~repro.core.baseline.SpatialObliviousRuntime` is
    its static counterpart.
    """

    name = "roborun"
    spatial_aware = True

    def __init__(
        self,
        governor: Optional[Governor] = None,
        profilers: Optional[ProfilerSuite] = None,
    ) -> None:
        self.governor = governor or Governor()
        self.profilers = profilers or ProfilerSuite()
        self._decisions: List[GovernorDecision] = []

    # ------------------------------------------------------------------
    # Per-decision interface
    # ------------------------------------------------------------------
    def profile(
        self,
        timestamp: float,
        state: StateEstimate,
        cloud: PointCloud,
        scan: Optional[RigScan],
        octree: Optional[OccupancyOctree],
        trajectory: Optional[Trajectory],
        rig_max_volume: float,
    ) -> SpaceProfile:
        """Run the profiler suite over the pipeline's current data structures."""
        return self.profilers.profile(
            timestamp=timestamp,
            state=state,
            cloud=cloud,
            scan=scan,
            octree=octree,
            trajectory=trajectory,
            rig_max_volume=rig_max_volume,
        )

    def decide(
        self, profile: SpaceProfile, budget_scale: float = 1.0
    ) -> GovernorDecision:
        """Run the governor and record the decision in the trace.

        ``budget_scale`` shrinks (or stretches) the time budget before the
        solver runs — the spatial-aware runtime *re-solves* its knobs against
        the faulted budget, which is exactly the graceful degradation the
        fault-robustness comparison measures.
        """
        decision = self.governor.decide(profile, budget_scale=budget_scale)
        self._decisions.append(decision)
        return decision

    # ------------------------------------------------------------------
    # Traces
    # ------------------------------------------------------------------
    @property
    def decisions(self) -> List[GovernorDecision]:
        """Every decision made so far, in order."""
        return list(self._decisions)

    def precision_trace(self) -> List[tuple[float, float]]:
        """(timestamp, point-cloud precision) per decision — Figure 10c's data."""
        return [
            (d.timestamp, d.policy.point_cloud_precision) for d in self._decisions
        ]

    def budget_trace(self) -> List[tuple[float, float]]:
        """(timestamp, time budget) per decision — Figure 5b's data."""
        return [(d.timestamp, d.time_budget) for d in self._decisions]

    def reset(self) -> None:
        """Clear the decision trace (a new mission)."""
        self._decisions.clear()
