"""The RoboRun runtime.

Ties the governor (time budgeter + solver) into the spatial-aware runtime of
Figure 6.  The pipeline's profile stage runs the mission's
:class:`~repro.core.profilers.ProfilerSuite` over the current data
structures; the governor stage then calls :meth:`RoboRunRuntime.decide` on
that :class:`~repro.core.profilers.SpaceProfile` to obtain the knob policy,
decision deadline and safe-velocity cap.

The runtime keeps no decision history: the flight stage folds each decision
into the mission's :class:`~repro.analysis.trace.DecisionRecord`, which is
what the precision-over-time and deadline-over-time figures (Figures 5 and
10c) read.
"""

from __future__ import annotations

from repro.core.governor import Governor, GovernorDecision
from repro.core.profilers import SpaceProfile


class RoboRunRuntime:
    """The spatial-aware runtime under test: the governor, once per decision.

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

    def __init__(self) -> None:
        self.governor = Governor()

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
