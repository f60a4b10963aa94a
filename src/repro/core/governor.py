"""The governor.

"The governor allocates the time budget (deadline) for the end-to-end
navigation pipeline and determines the correct precision and volume settings
per stage to satisfy this budget and space demands" (§III-D).

Per decision the governor:

1. computes the decision deadline with the time-budgeting algorithm
   (Eq. 1–2 / Algorithm 1), using the profiled instantaneous velocity and
   visibility plus the planned velocity/visibility at upcoming waypoints;
2. invokes the knob solver (Eq. 3–4) to pick per-stage precision and volume
   settings that fit the budget and the space demands; and
3. derives the safe velocity cap for the next flight segment — the fastest
   velocity whose budget still covers the latency the chosen knobs are
   predicted to incur.  This is the mechanism by which lower decision latency
   becomes higher flight velocity in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.budget import TimeBudgeter
from repro.core.policy import KnobPolicy
from repro.core.profilers import SpaceProfile
from repro.core.solver import KnobSolver, SolverResult


@dataclass(frozen=True, slots=True)
class GovernorDecision:
    """Everything the governor decided for one pipeline iteration.

    Attributes:
        timestamp: when the decision was made (simulated seconds).
        time_budget: the decision deadline δ_d, seconds.
        policy: the knob assignment the operators must enforce.
        predicted_latency: the solver's end-to-end latency prediction at the
            chosen knobs (including fixed overheads), seconds.
        velocity_cap: safe velocity for the next flight segment, m/s.
        solver_feasible: False when the solver had to fall back to the
            worst-case-safe policy.
        profile: the spatial profile the decision was based on.
    """

    timestamp: float
    time_budget: float
    policy: KnobPolicy
    predicted_latency: float
    velocity_cap: float
    solver_feasible: bool
    profile: SpaceProfile


class Governor:
    """Combines the time budgeter and the knob solver into per-decision policy.

    Attributes:
        budgeter: the Eq. 1 / Algorithm 1 time budgeter.
        solver: the Eq. 3 knob solver.
        max_velocity: mission-level velocity ceiling, m/s — the paper picks
            this "experimentally such that at least 80% of flights are
            collision-free".
        velocity_safety_factor: margin applied to the predicted latency when
            deriving the velocity cap (>1 slows the drone slightly below the
            theoretical maximum to absorb latency jitter).
        waypoint_horizon: how many upcoming trajectory samples Algorithm 1
            considers.
    """

    def __init__(
        self,
        budgeter: Optional[TimeBudgeter] = None,
        solver: Optional[KnobSolver] = None,
        max_velocity: float = 2.5,
        velocity_safety_factor: float = 1.25,
        waypoint_horizon: int = 8,
    ) -> None:
        if max_velocity <= 0:
            raise ValueError("max velocity must be positive")
        if velocity_safety_factor < 1.0:
            raise ValueError("velocity safety factor must be at least 1")
        if waypoint_horizon < 0:
            raise ValueError("waypoint horizon cannot be negative")
        self.budgeter = budgeter or TimeBudgeter()
        self.solver = solver or KnobSolver()
        self.max_velocity = max_velocity
        self.velocity_safety_factor = velocity_safety_factor
        self.waypoint_horizon = waypoint_horizon

    # ------------------------------------------------------------------
    # Per-decision policy
    # ------------------------------------------------------------------
    def decide(
        self, profile: SpaceProfile, budget_scale: float = 1.0
    ) -> GovernorDecision:
        """Produce the policy, deadline and velocity cap for one decision.

        Args:
            profile: the Table I space profile of this decision.
            budget_scale: multiplier on the computed time budget before the
                solver runs — how a platform fault (e.g. a power brownout)
                shrinks the deadline the governor must fit its knobs into.
                Must be positive; 1.0 is the nominal path.
        """
        if budget_scale <= 0:
            raise ValueError("budget scale must be positive")
        time_budget = self._time_budget(profile)
        if budget_scale != 1.0:
            time_budget = time_budget * budget_scale
        solved: SolverResult = self.solver.solve(time_budget, profile)
        velocity_cap = self._velocity_cap(profile, solved.predicted_latency)
        return GovernorDecision(
            timestamp=profile.timestamp,
            time_budget=time_budget,
            policy=solved.policy,
            predicted_latency=solved.predicted_latency,
            velocity_cap=velocity_cap,
            solver_feasible=solved.feasible,
            profile=profile,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _time_budget(self, profile: SpaceProfile) -> float:
        """Algorithm 1 over the upcoming trajectory (Eq. 1 when hovering)."""
        if profile.trajectory is None:
            return self.budgeter.local_budget(profile.velocity, profile.visibility)
        upcoming = profile.trajectory.upcoming_waypoints(
            profile.timestamp, self.waypoint_horizon
        )
        return self.budgeter.budget_from_trajectory(
            current_velocity=profile.velocity,
            current_visibility=profile.visibility,
            upcoming=upcoming,
        )

    def _velocity_cap(self, profile: SpaceProfile, predicted_latency: float) -> float:
        """The fastest velocity whose budget covers the predicted latency.

        On top of the Eq. 1 bound, the cap is limited by the forward clearance:
        the drone flies no faster than a third of its usable look-ahead per
        second (floored at a slow crawl), which reflects the agility limit of
        dodging inside clutter rather than the compute deadline.
        """
        required = predicted_latency * self.velocity_safety_factor
        budget_cap = self.budgeter.max_safe_velocity(
            visibility=profile.visibility,
            required_budget=required,
            velocity_ceiling=self.max_velocity,
        )
        clearance_cap = max(0.6, profile.visibility / 3.0)
        return min(budget_cap, clearance_cap, self.max_velocity)
