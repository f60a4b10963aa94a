"""The spatial-oblivious baseline.

The paper compares RoboRun against "the state-of-the-art navigation pipeline
provided in MAVBench as the static, spatial oblivious baseline.  For the
baseline, knobs are set such that the mission can be successfully executed,
i.e., with a precision to allow navigating narrow real-world aisles, and with
volumes to allow the MAV to collect all 6 camera data and generate maps
matching an average warehouse size" (§IV).  Its knobs never change (Table II,
"Static" column) and its maximum velocity is fixed at design time from
worst-case assumptions about visibility and decision latency.

:class:`SpatialObliviousRuntime` exposes the same per-decision interface as
:class:`~repro.core.runtime.RoboRunRuntime` so the mission simulator can run
either design unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.compute.latency_model import (
    PipelineLatencyModel,
    STAGE_PERCEPTION,
    STAGE_PERCEPTION_TO_PLANNING,
    STAGE_PLANNING,
)
from repro.core.budget import TimeBudgeter
from repro.core.governor import GovernorDecision
from repro.core.policy import KnobPolicy, STATIC_BASELINE_POLICY
from repro.core.profilers import SpaceProfile


@dataclass(frozen=True, slots=True)
class BaselineDesignPoint:
    """The worst-case assumptions baked into the baseline at design time.

    Attributes:
        worst_case_visibility: visibility the designer assumes is always
            available, metres — deliberately pessimistic (tight aisles, fog).
        velocity_ceiling: the airframe/mission velocity ceiling the designer
            may pick from, m/s.
        latency_margin: multiplicative margin applied to the predicted
            worst-case latency when choosing the fixed velocity.
    """

    worst_case_visibility: float = 6.0
    velocity_ceiling: float = 2.5
    latency_margin: float = 1.25

    def __post_init__(self) -> None:
        if self.worst_case_visibility <= 0:
            raise ValueError("worst-case visibility must be positive")
        if self.velocity_ceiling <= 0:
            raise ValueError("velocity ceiling must be positive")
        if self.latency_margin < 1.0:
            raise ValueError("latency margin must be at least 1")


class SpatialObliviousRuntime:
    """Static worst-case runtime: fixed knobs, fixed deadline, fixed velocity.

    The paper's baseline design point: knob settings (precisions in metres,
    volumes in cubic metres) are chosen once, at design time, for the worst
    case the mission might encounter, so every decision pays the same
    latency (seconds) and flies at the same conservative velocity cap (m/s)
    regardless of how open the space actually is.  It implements the same
    per-decision ``Runtime`` protocol as RoboRun, which is what makes the
    two designs swappable inside one pipeline.
    """

    name = "spatial_oblivious"
    spatial_aware = False

    def __init__(
        self,
        policy: KnobPolicy = STATIC_BASELINE_POLICY,
        design_point: Optional[BaselineDesignPoint] = None,
        latency_model: Optional[PipelineLatencyModel] = None,
        budgeter: Optional[TimeBudgeter] = None,
    ) -> None:
        self.policy = policy
        self.design_point = design_point or BaselineDesignPoint()
        self.latency_model = latency_model or PipelineLatencyModel.default()
        self.budgeter = budgeter or TimeBudgeter()
        self._design_latency = self._predict_static_latency()
        self._design_velocity = self._choose_design_velocity()
        self._design_budget = self.budgeter.local_budget(
            self._design_velocity, self.design_point.worst_case_visibility
        )

    # ------------------------------------------------------------------
    # Design-time calibration
    # ------------------------------------------------------------------
    def _predict_static_latency(self) -> float:
        """End-to-end latency predicted at the static knob setting."""
        p = self.policy
        total = self.latency_model.fixed_overhead_s
        total += self.latency_model.stage_latency(
            STAGE_PERCEPTION, p.point_cloud_precision, p.octomap_volume
        )
        total += self.latency_model.stage_latency(
            STAGE_PERCEPTION_TO_PLANNING,
            p.map_to_planner_precision,
            p.map_to_planner_volume,
        )
        total += self.latency_model.stage_latency(
            STAGE_PLANNING, p.planning_precision, p.planner_volume
        )
        return total

    def _choose_design_velocity(self) -> float:
        """Fixed velocity: fastest speed safe under the worst-case assumptions."""
        required = self._design_latency * self.design_point.latency_margin
        return self.budgeter.max_safe_velocity(
            visibility=self.design_point.worst_case_visibility,
            required_budget=required,
            velocity_ceiling=self.design_point.velocity_ceiling,
        )

    # ------------------------------------------------------------------
    # Per-decision interface (same shape as RoboRunRuntime)
    # ------------------------------------------------------------------
    def decide(
        self, profile: SpaceProfile, budget_scale: float = 1.0
    ) -> GovernorDecision:
        """Return the same static policy, deadline and velocity every decision.

        A faulted ``budget_scale`` (e.g. a power brownout) shrinks the
        deadline the platform grants, but the baseline — static by design —
        keeps its design-time knobs and velocity regardless.  Its predicted
        latency then overruns the shrunken budget, which surfaces as
        infeasible decisions and deadline violations: the brittle half of
        the graceful-degradation comparison.
        """
        if budget_scale <= 0:
            raise ValueError("budget scale must be positive")
        time_budget = self._design_budget
        feasible = True
        if budget_scale != 1.0:
            time_budget = time_budget * budget_scale
            feasible = self._design_latency <= time_budget
        return GovernorDecision(
            timestamp=profile.timestamp,
            time_budget=time_budget,
            policy=self.policy,
            predicted_latency=self._design_latency,
            velocity_cap=self._design_velocity,
            solver_feasible=feasible,
            profile=profile,
        )
