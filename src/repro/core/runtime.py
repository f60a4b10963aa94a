"""The RoboRun runtime.

Ties the profilers, governor (time budgeter + solver) and operators together
into the spatial-aware runtime of Figure 6.  The mission simulator drives it
through two calls per decision:

* :meth:`RoboRunRuntime.profile` — post-process the pipeline's current data
  structures into a :class:`~repro.core.profilers.SpaceProfile`; and
* :meth:`RoboRunRuntime.decide` — run the governor on that profile to obtain
  the knob policy, decision deadline and safe-velocity cap.

The runtime keeps no decision history: the flight node folds each decision
into the mission's :class:`~repro.analysis.trace.DecisionRecord`, which is
what the precision-over-time and deadline-over-time figures (Figures 5 and
10c) read.
"""

from __future__ import annotations

from typing import Optional

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
        """Run the governor on one decision's profile.

        ``budget_scale`` shrinks (or stretches) the time budget before the
        solver runs — the spatial-aware runtime *re-solves* its knobs against
        the faulted budget, which is exactly the graceful degradation the
        fault-robustness comparison measures.
        """
        return self.governor.decide(profile, budget_scale=budget_scale)
