"""The governor's knob solver (paper Equation 3).

Given the decision's time budget δ_d and the profiled spatial features, the
solver chooses per-stage precision and volume knobs by solving

    min_{p, v}  ( δ_d − Σ_i δ_i(p_i, v_i) )²                       (Eq. 3)

subject to:

* ``g_min ≤ p_0 ≤ min(p_1, g_avg, d_obs)`` — the point-cloud precision is
  bounded below by the smallest gap worth resolving and above by the map
  precision, the average gap and the nearest-obstacle distance;
* ``v_0 ≤ v_1 ≤ min(v_sensor, v_map)`` — the map cannot ingest more volume
  than it passes to the planner, which in turn cannot exceed what the sensors
  and map can provide;
* ``p_i ∈ {vox_min · 2ⁿ : 0 ≤ n ≤ d−1}`` — the OctoMap framework's
  power-of-two precision ladder; and
* the perception→planning and planning precisions are equal (``p_1 = p_2``).

δ_i is the Eq. 4 latency model.  Because δ_i is linear in the volume for a
fixed precision, the solver enumerates the (small) discrete precision ladder
and, for each feasible precision pair, fills the volumes greedily — volume is
poured into the map first, then the planner view, then the planner's search —
until the predicted latency meets the budget.  Among all feasible candidates
the one minimising the squared budget mismatch wins, with ties broken towards
finer precision and larger volume (the paper's objective wants to *use* the
budget, not undershoot it: unused budget is wasted quality).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.compute.latency_model import (
    PipelineLatencyModel,
    STAGE_PERCEPTION,
    STAGE_PERCEPTION_TO_PLANNING,
    STAGE_PLANNING,
)
from repro.core.policy import KnobLimits, KnobPolicy
from repro.core.profilers import SpaceProfile


@dataclass(frozen=True, slots=True)
class SolverConfig:
    """Floors and safety factors applied by the solver.

    Attributes:
        min_octomap_volume: smallest useful map-insertion budget, m³ — below
            this the map would not even ingest the space immediately around
            the trajectory.
        min_planner_volume: smallest useful planner exploration budget, m³.
        budget_safety_factor: fraction of the time budget the solver targets
            (keeping a margin for the fixed pipeline costs and jitter).
        volume_steps: resolution of the greedy volume fill (number of steps
            between a volume's floor and its ceiling).
    """

    min_octomap_volume: float = 15_000.0
    min_planner_volume: float = 150_000.0
    budget_safety_factor: float = 0.85
    volume_steps: int = 8

    def __post_init__(self) -> None:
        if self.min_octomap_volume < 0 or self.min_planner_volume < 0:
            raise ValueError("volume floors cannot be negative")
        if not 0 < self.budget_safety_factor <= 1:
            raise ValueError("budget safety factor must be in (0, 1]")
        if self.volume_steps < 1:
            raise ValueError("volume_steps must be at least 1")


@dataclass(frozen=True, slots=True)
class SolverResult:
    """Outcome of one solver invocation.

    Attributes:
        policy: the chosen knob assignment (precisions in metres, volumes
            in cubic metres).
        predicted_latency: Σ_i δ_i at the chosen knobs plus fixed overheads,
            seconds.
        objective: the achieved squared budget mismatch (Eq. 3's objective),
            seconds².
        feasible: False when no knob assignment satisfied every constraint and
            the returned policy is the clamped fallback (finest precision,
            floor volumes).
    """

    policy: KnobPolicy
    predicted_latency: float
    objective: float
    feasible: bool


class KnobSolver:
    """Solves Eq. 3 over the discrete precision ladder and continuous volumes.

    Given a time budget (seconds) and a space profile, the solver picks the
    knob assignment — precisions from the power-of-two ladder (metres),
    volumes from their continuous ranges (cubic metres) — whose predicted
    end-to-end latency (Eq. 4) lands closest to the budget while satisfying
    the space demands (precision no coarser than the observed gaps, volume
    at least the sensed space).  When no assignment fits it falls back to
    the worst-case-safe policy and flags the result infeasible.
    """

    def __init__(
        self,
        latency_model: Optional[PipelineLatencyModel] = None,
        limits: Optional[KnobLimits] = None,
        config: Optional[SolverConfig] = None,
    ) -> None:
        self.latency_model = latency_model or PipelineLatencyModel.default()
        self.limits = limits or KnobLimits()
        self.config = config or SolverConfig()
        # Cumulative observability counters (read by repro.obs, never by the
        # solver itself): how many times solve() ran and how many ladder
        # candidates it evaluated across the mission.
        self.solve_count = 0
        self.candidates_evaluated = 0
        self.infeasible_count = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def solve(self, time_budget: float, profile: SpaceProfile) -> SolverResult:
        """Choose knobs for one decision.

        Args:
            time_budget: the governor's decision deadline δ_d, seconds.
            profile: the profiled spatial features for this decision.
        """
        if time_budget < 0:
            raise ValueError("time budget cannot be negative")

        target = max(
            0.0,
            time_budget * self.config.budget_safety_factor
            - self.latency_model.fixed_overhead_s,
        )
        ladder = self.limits.precision_ladder()
        candidates: List[Tuple[float, float, float, KnobPolicy, float]] = []

        for p1 in ladder:
            for p0 in ladder:
                if not self._precision_feasible(p0, p1, profile):
                    continue
                policy, predicted = self._fill_volumes(p0, p1, target, profile)
                objective = (target - predicted) ** 2
                # Sort key: objective first, then finer precision (smaller p0,
                # p1), then larger total volume — implements the tie-breaks.
                total_volume = (
                    policy.octomap_volume
                    + policy.map_to_planner_volume
                    + policy.planner_volume
                )
                candidates.append((objective, p0 + p1, -total_volume, policy, predicted))

        self.solve_count += 1
        self.candidates_evaluated += len(candidates)

        if not candidates:
            self.infeasible_count += 1
            fallback = self._fallback_policy(profile)
            predicted = self._predict(fallback)
            return SolverResult(
                policy=fallback,
                predicted_latency=predicted + self.latency_model.fixed_overhead_s,
                objective=(target - predicted) ** 2,
                feasible=False,
            )

        candidates.sort(key=lambda item: (item[0], item[1], item[2]))
        _, _, _, best_policy, best_predicted = candidates[0]
        return SolverResult(
            policy=best_policy,
            predicted_latency=best_predicted + self.latency_model.fixed_overhead_s,
            objective=candidates[0][0],
            feasible=True,
        )

    # ------------------------------------------------------------------
    # Constraint handling
    # ------------------------------------------------------------------
    def _precision_feasible(self, p0: float, p1: float, profile: SpaceProfile) -> bool:
        """Eq. 3's precision constraints for a (p0, p1) candidate.

        ``g_min ≤ p_0 ≤ min(p_1, g_avg, d_obs)``: the point-cloud precision is
        never finer than the smallest gap worth resolving (g_min; in open
        space the profilers report a large open-space gap, which — clamped to
        the coarsest ladder rung — forces coarse, cheap processing) and never
        coarser than the map precision, the average gap or the distance to the
        nearest obstacle.
        """
        ladder = self.limits.precision_ladder()
        coarsest = ladder[-1]
        finest = ladder[0]
        lower = min(profile.gap_min, coarsest)
        upper = min(p1, max(profile.gap_avg, finest), max(profile.closest_obstacle, finest))
        if upper < lower - 1e-9:
            return False
        if not (lower - 1e-9 <= p0 <= upper + 1e-9):
            return False
        # The planner's map must still resolve the gaps the drone needs to fly
        # through: a p1 much coarser than the average gap closes every passage
        # in the planner's view, so p1 is bounded by the average gap as well
        # (rounded up to the next ladder rung so open space stays coarse).
        p1_ceiling = coarsest
        if profile.gap_avg < coarsest:
            p1_ceiling = next(
                (rung for rung in ladder if rung >= profile.gap_avg), coarsest
            )
        return p1 <= max(p1_ceiling, p0) + 1e-9

    def _volume_ceilings(self, profile: SpaceProfile) -> Tuple[float, float, float]:
        """Upper bounds on (v0, v1, v2).

        Eq. 3 bounds v1 by ``min(v_sensor, v_map)`` — the capacities of the
        sensors and the map.  v_sensor is the occlusion-clipped observable
        volume this decision (from the profile); v_map is the configured map
        capacity (the dynamic range ceiling), not the volume currently stored.
        """
        v1_max = min(
            self.limits.map_to_planner_volume_max,
            max(profile.sensor_volume, self.config.min_octomap_volume),
        )
        v0_max = min(self.limits.octomap_volume_max, v1_max)
        v2_max = self.limits.planner_volume_max
        return v0_max, v1_max, v2_max

    def _fill_volumes(
        self, p0: float, p1: float, target: float, profile: SpaceProfile
    ) -> Tuple[KnobPolicy, float]:
        """Greedy volume fill for a fixed precision pair.

        Volumes start at their floors and are raised stage by stage (map
        insertion first, then planner view, then planner search) while the
        predicted latency stays below the target.
        """
        v0_max, v1_max, v2_max = self._volume_ceilings(profile)
        v0 = min(self.config.min_octomap_volume, v0_max)
        v1 = max(v0, min(self.config.min_octomap_volume, v1_max))
        v2 = min(self.config.min_planner_volume, v2_max)

        def predicted(v0_: float, v1_: float, v2_: float) -> float:
            return (
                self.latency_model.stage_latency(STAGE_PERCEPTION, p0, v0_)
                + self.latency_model.stage_latency(STAGE_PERCEPTION_TO_PLANNING, p1, v1_)
                + self.latency_model.stage_latency(STAGE_PLANNING, p1, v2_)
            )

        current = predicted(v0, v1, v2)
        steps = self.config.volume_steps
        # Raise each volume in turn; stop a stage's growth as soon as the next
        # step would overshoot the target.  Floors are re-read at the start of
        # each stage: stage 0 may already have raised v1 (to keep v0 <= v1),
        # and restarting stage 1 from its original floor would both waste its
        # steps below the raised value and coarsen the fill above it.
        for index in range(3):
            if index == 0:
                floor, ceiling = v0, v0_max
            elif index == 1:
                floor, ceiling = v1, v1_max
            else:
                floor, ceiling = v2, v2_max
            if ceiling <= floor:
                continue
            step = (ceiling - floor) / steps
            value = floor
            for _ in range(steps):
                trial = min(value + step, ceiling)
                trial_v0, trial_v1, trial_v2 = v0, v1, v2
                if index == 0:
                    trial_v0 = trial
                    trial_v1 = max(v1, trial)  # keep v0 <= v1
                elif index == 1:
                    trial_v1 = max(trial, v0)
                else:
                    trial_v2 = trial
                trial_latency = predicted(trial_v0, trial_v1, trial_v2)
                if trial_latency > target:
                    break
                v0, v1, v2 = trial_v0, trial_v1, trial_v2
                current = trial_latency
                value = trial

        policy = KnobPolicy(
            point_cloud_precision=p0,
            map_to_planner_precision=p1,
            octomap_volume=v0,
            map_to_planner_volume=v1,
            planner_volume=v2,
        )
        return policy, current

    def _fallback_policy(self, profile: SpaceProfile) -> KnobPolicy:
        """Worst-case-safe policy used when the constraints admit no candidate."""
        finest = self.limits.precision_ladder()[0]
        v0_max, v1_max, v2_max = self._volume_ceilings(profile)
        v0 = min(self.config.min_octomap_volume, v0_max)
        return KnobPolicy(
            point_cloud_precision=finest,
            map_to_planner_precision=finest,
            octomap_volume=v0,
            map_to_planner_volume=max(v0, min(self.config.min_octomap_volume, v1_max)),
            planner_volume=min(self.config.min_planner_volume, v2_max),
        )

    def _predict(self, policy: KnobPolicy) -> float:
        """Σ_i δ_i for a policy (without fixed overheads)."""
        return (
            self.latency_model.stage_latency(
                STAGE_PERCEPTION, policy.point_cloud_precision, policy.octomap_volume
            )
            + self.latency_model.stage_latency(
                STAGE_PERCEPTION_TO_PLANNING,
                policy.map_to_planner_precision,
                policy.map_to_planner_volume,
            )
            + self.latency_model.stage_latency(
                STAGE_PLANNING, policy.planning_precision, policy.planner_volume
            )
        )
