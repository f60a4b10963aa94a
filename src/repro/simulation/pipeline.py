"""The node-based decision pipeline.

The paper's runtime is a ROS pipeline: sensing, profiling, the governor,
perception, planning and flight control are separate nodes exchanging
messages, and both the stage latencies *and* the communication hops between
stages are first-class quantities (the "comm" bars of Figure 11).  This
module reproduces that structure on the in-process middleware: six nodes
communicate over typed topics through the
:class:`~repro.middleware.executor.Executor`, and every decision is one
message cascade through the graph.

Topic graph (one cascade per decision, FIFO-dispatched)::

    SenseNode ──/sense/scan──▶ ProfileNode ──/profile/space──▶ GovernorNode
        ▲                           ▲                                │
        │                           │                        /governor/decision
    /flight/result        /planning/trajectory                       │
        │                           │                                ▼
    FlightNode ◀──/planning/output── PlanningNode ◀──/perception/output── PerceptionNode
        │                                  ▲
        └──────────/flight/result──────────┘   (stall recovery drops the trajectory)

Latency accounting: the FlightNode — the last stage of the cascade —
charges the canonical per-stage breakdown of the decision's merged work
(compute stages plus the four ``comm_*`` hops, each sized by the payloads
that crossed the bus that decision) and stores it in the decision's
:class:`~repro.analysis.trace.DecisionRecord`, the one per-decision account
the mission metrics and the :class:`~repro.middleware.latency.LatencyLedger`
fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, TYPE_CHECKING

import numpy as np

from repro.analysis.trace import DecisionRecord
from repro.compute.costs import WorkloadCostModel
from repro.control.follower import PurePursuitFollower
from repro.core.governor import GovernorDecision
from repro.core.operators import (
    OperatorSet,
    PerceptionOutput,
    PlanningOutput,
    merge_work,
)
from repro.core.profilers import ProfilerSuite, SpaceProfile
from repro.dynamics.drone import DroneState, QuadrotorKinematics
from repro.dynamics.energy import EnergyModel
from repro.environment.generator import GeneratedEnvironment
from repro.geometry.aabb import AABB
from repro.geometry.vec3 import Vec3
from repro.middleware.executor import Executor
from repro.middleware.latency import compute_seconds
from repro.middleware.message import Message
from repro.middleware.node import Node
from repro.middleware.topic import TopicNamespace
from repro.planning.trajectory import Trajectory
from repro.sensors.rig import CameraRig, RigScan
from repro.sensors.state_sensors import StateEstimate
from repro.simulation.faults import FaultSet
from repro.simulation.orchestrator import FaultOrchestrator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (mission imports us)
    from repro.perception.octomap import OccupancyOctree
    from repro.simulation.mission import MissionConfig, Runtime

# Topic names, one per edge of the pipeline graph.
TOPIC_SCAN = "/sense/scan"
TOPIC_PROFILE = "/profile/space"
TOPIC_DECISION = "/governor/decision"
TOPIC_PERCEPTION = "/perception/output"
TOPIC_PLANNING = "/planning/output"
TOPIC_TRAJECTORY = "/planning/trajectory"
TOPIC_FLIGHT = "/flight/result"

# The profiling cloud uses a fixed, modest resolution: profiling happens
# before the policy exists and its cost is part of the runtime overhead
# already charged by the cost model.
PROFILING_RESOLUTION = 0.6

@dataclass(frozen=True, slots=True)
class PipelineTopics:
    """The seven topic names of one pipeline instance, resolved in a namespace.

    A single-drone pipeline uses the bare module constants; each drone of a
    fleet gets its own bundle prefixed by its
    :class:`~repro.middleware.topic.TopicNamespace` (``/drone/0/sense/scan``,
    …), so N graphs coexist on one shared bus without crosstalk.
    """

    scan: str = TOPIC_SCAN
    profile: str = TOPIC_PROFILE
    decision: str = TOPIC_DECISION
    perception: str = TOPIC_PERCEPTION
    planning: str = TOPIC_PLANNING
    trajectory: str = TOPIC_TRAJECTORY
    flight: str = TOPIC_FLIGHT

    @classmethod
    def for_namespace(cls, namespace: TopicNamespace) -> "PipelineTopics":
        return cls(
            scan=namespace.topic(TOPIC_SCAN),
            profile=namespace.topic(TOPIC_PROFILE),
            decision=namespace.topic(TOPIC_DECISION),
            perception=namespace.topic(TOPIC_PERCEPTION),
            planning=namespace.topic(TOPIC_PLANNING),
            trajectory=namespace.topic(TOPIC_TRAJECTORY),
            flight=namespace.topic(TOPIC_FLIGHT),
        )


#: The root (single-drone) topic bundle: exactly the module constants.
ROOT_TOPICS = PipelineTopics()


# ----------------------------------------------------------------------
# Message payloads
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class SenseSample:
    """One decision's sensor capture: the rig scan plus the state estimate."""

    index: int
    scan: RigScan
    estimate: StateEstimate
    dropped: bool = False


@dataclass(frozen=True, slots=True)
class ProfileSample:
    """The Table I space profile extracted for one decision."""

    index: int
    profile: SpaceProfile


@dataclass(frozen=True, slots=True)
class DecisionSample:
    """The governor's policy / deadline / velocity cap for one decision."""

    index: int
    decision: GovernorDecision


@dataclass(frozen=True, slots=True)
class PerceptionSample:
    """The perception stage's output plus the pose it was computed at."""

    index: int
    output: PerceptionOutput
    position: Vec3


@dataclass(frozen=True, slots=True)
class PlanningSample:
    """The planning stage's output and the trajectory handed to control."""

    index: int
    output: PlanningOutput
    trajectory: Optional[Trajectory]
    replanned: bool
    position: Vec3


@dataclass(frozen=True, slots=True)
class TrajectorySample:
    """The currently tracked trajectory (None after a drop)."""

    index: int
    trajectory: Optional[Trajectory]


@dataclass(frozen=True, slots=True)
class FlightResult:
    """What one decision's flight segment produced."""

    index: int
    state: DroneState
    flown: float
    hit: bool
    interval: float
    end_to_end: float
    drop_trajectory: bool


# ----------------------------------------------------------------------
# Nodes
# ----------------------------------------------------------------------
class SenseNode(Node):
    """Captures the camera rig and stamps the state; entry point of each cascade.

    The node tracks the drone pose by subscribing to the flight results and
    applies the scenario's sensor faults (dropout, degraded resolution) at
    the capture boundary, so the rest of the pipeline sees ordinary messages.
    The state estimate is the true state: the reproduction knows it exactly.

    The sense boundary is also where the environment's dynamic obstacles
    advance: each tick first steps the
    :class:`~repro.worlds.movers.DynamicObstacleSet` to the decision epoch —
    updating the ground-truth world and re-marking the movers' footprints
    into the occupancy octree — so the capture, the planner and the
    collision probes of this decision all see the movers at the same
    position.
    """

    def __init__(
        self,
        executor: Executor,
        rig: CameraRig,
        environment: GeneratedEnvironment,
        octree: "OccupancyOctree",
        orchestrator: FaultOrchestrator,
        *,
        topics: PipelineTopics = ROOT_TOPICS,
        name: str = "sense",
    ) -> None:
        super().__init__(name, executor)
        self.topics = topics
        self.rig = rig
        self.environment = environment
        self.orchestrator = orchestrator
        self.dynamics = environment.dynamics
        self._octree = octree
        self._position = environment.start
        self._velocity = Vec3.zero()
        self._degraded_rigs: Dict[tuple[int, int], CameraRig] = {}
        self.subscribe(topics.flight, self._on_flight)

    def _on_flight(self, message: Message[FlightResult]) -> None:
        self._position = message.payload.state.position
        self._velocity = message.payload.state.velocity

    def _active_rig(self, decision_index: int) -> CameraRig:
        resolution = self.orchestrator.camera_resolution(decision_index)
        if resolution is None:
            return self.rig
        rig = self._degraded_rigs.get(resolution)
        if rig is None:
            rig = self.rig.with_resolution(*resolution)
            self._degraded_rigs[resolution] = rig
        return rig

    def _mover_epoch_overrides(self, decision_index: int) -> Optional[Dict[str, int]]:
        """Per-mover epoch pins from active stuck-mover windows (None = nominal)."""
        overrides: Dict[str, int] = {}
        for mover in self.dynamics.movers:
            frozen = self.orchestrator.frozen_epoch(mover.name, decision_index)
            if frozen is not None:
                overrides[mover.name] = frozen
        return overrides or None

    def tick(self, decision_index: int) -> None:
        """Capture one decision's sensor data and start the cascade."""
        if self.dynamics is not None:
            self.dynamics.step(
                decision_index,
                octree=self._octree,
                epoch_overrides=self._mover_epoch_overrides(decision_index),
            )
        rig = self._active_rig(decision_index)
        dropped = self.orchestrator.sensor_dropped(decision_index)
        if dropped:
            scan = rig.empty_scan(self._position)
        else:
            scan = rig.capture(self.environment.world, self._position)
        estimate = StateEstimate(self.executor.clock.now, self._position, self._velocity)
        self.publish(
            self.topics.scan, SenseSample(decision_index, scan, estimate, dropped)
        )


class ProfileNode(Node):
    """Extracts the Table I spatial features from the fresh sensor data."""

    def __init__(
        self,
        executor: Executor,
        profilers: ProfilerSuite,
        operators: OperatorSet,
        rig_max_volume: float,
        goal: Vec3,
        *,
        topics: PipelineTopics = ROOT_TOPICS,
        name: str = "profile",
    ) -> None:
        super().__init__(name, executor)
        self.topics = topics
        self.profilers = profilers
        self.operators = operators
        self.rig_max_volume = rig_max_volume
        self.goal = goal
        self._trajectory: Optional[Trajectory] = None
        self.subscribe(topics.scan, self._on_scan)
        self.subscribe(topics.trajectory, self._on_trajectory)

    def _on_trajectory(self, message: Message[TrajectorySample]) -> None:
        self._trajectory = message.payload.trajectory

    def _on_scan(self, message: Message[SenseSample]) -> None:
        sample = message.payload
        profiling_cloud = self.operators.point_cloud_kernel.process(
            sample.scan, resolution=PROFILING_RESOLUTION
        )
        profile = self.profilers.profile(
            timestamp=self.executor.clock.now,
            state=sample.estimate,
            cloud=profiling_cloud,
            scan=sample.scan,
            octree=self.operators.octree,
            trajectory=self._trajectory,
            rig_max_volume=self.rig_max_volume,
            heading=self.goal - sample.scan.position,
        )
        self.publish(self.topics.profile, ProfileSample(sample.index, profile))


class GovernorNode(Node):
    """Hosts the runtime under test (RoboRun's governor or the baseline)."""

    def __init__(
        self,
        executor: Executor,
        runtime: "Runtime",
        orchestrator: FaultOrchestrator,
        *,
        topics: PipelineTopics = ROOT_TOPICS,
        name: str = "governor",
    ) -> None:
        super().__init__(name, executor)
        self.topics = topics
        self.runtime = runtime
        self.orchestrator = orchestrator
        self.subscribe(topics.profile, self._on_profile)

    def _on_profile(self, message: Message[ProfileSample]) -> None:
        # A power brownout shrinks the time budget fed to the runtime; with
        # no fault active the scale is 1.0, the nominal budget.
        scale = self.orchestrator.budget_scale(message.payload.index)
        decision = self.runtime.decide(message.payload.profile, budget_scale=scale)
        self.publish(
            self.topics.decision, DecisionSample(message.payload.index, decision)
        )


class PerceptionNode(Node):
    """Runs the point-cloud and OctoMap kernels under the decided policy."""

    def __init__(
        self,
        executor: Executor,
        operators: OperatorSet,
        *,
        topics: PipelineTopics = ROOT_TOPICS,
        name: str = "perception",
    ) -> None:
        super().__init__(name, executor)
        self.topics = topics
        self.operators = operators
        self._scan: Optional[SenseSample] = None
        self._trajectory: Optional[Trajectory] = None
        self.subscribe(topics.scan, self._on_scan)
        self.subscribe(topics.trajectory, self._on_trajectory)
        self.subscribe(topics.decision, self._on_decision)

    def _on_scan(self, message: Message[SenseSample]) -> None:
        self._scan = message.payload

    def _on_trajectory(self, message: Message[TrajectorySample]) -> None:
        self._trajectory = message.payload.trajectory

    def _on_decision(self, message: Message[DecisionSample]) -> None:
        sample = self._scan
        if sample is None or sample.index != message.payload.index:
            raise RuntimeError("perception received a decision without its scan")
        position = sample.scan.position
        focus = (
            self._trajectory.nearest_point_to(position).position
            if self._trajectory is not None
            else position
        )
        output = self.operators.run_perception(
            sample.scan, message.payload.decision.policy, focus=focus
        )
        self.publish(
            self.topics.perception, PerceptionSample(sample.index, output, position)
        )


class PlanningNode(Node):
    """Owns the tracked trajectory: piece-wise planning, blockage, recovery."""

    def __init__(
        self,
        executor: Executor,
        operators: OperatorSet,
        config: "MissionConfig",
        environment: GeneratedEnvironment,
        *,
        topics: PipelineTopics = ROOT_TOPICS,
        name: str = "planning",
    ) -> None:
        super().__init__(name, executor)
        self.topics = topics
        self.operators = operators
        self.config = config
        self.environment = environment
        self.consecutive_plan_failures = 0
        self._decisions_since_plan = 0
        self._trajectory: Optional[Trajectory] = None
        self._decision: Optional[DecisionSample] = None
        self.subscribe(topics.decision, self._on_decision)
        self.subscribe(topics.perception, self._on_perception)
        self.subscribe(topics.flight, self._on_flight)

    # -- helpers (the planning policy of the decision loop) -------------
    def should_replan(
        self,
        trajectory: Optional[Trajectory],
        position: Vec3,
        decisions_since_plan: int,
    ) -> tuple[bool, str]:
        """Decide whether the piece-wise planner must run this decision."""
        cfg = self.config
        if trajectory is None:
            return True, "no_trajectory"
        nearest = trajectory.nearest_point_to(position)
        remaining = trajectory.remaining_length(nearest.time)
        if remaining <= cfg.replan_remaining_m:
            return True, "trajectory_consumed"
        if decisions_since_plan >= cfg.replan_interval_decisions:
            return True, "periodic_refresh"
        return False, "tracking"

    def trajectory_blocked(self, trajectory: Trajectory, position: Vec3) -> bool:
        """Check the path ahead of the drone against the updated occupancy map.

        The check deliberately uses the octree at its native resolution rather
        than the policy-dependent planning view: the per-decision precision
        knob changes cell sizes from decision to decision, and re-validating
        yesterday's path against today's coarser cells would invalidate
        perfectly good trajectories and cause replanning thrash.

        The walk starts at the nearest sample's own index (paths that revisit
        a waypoint used to re-find it by position equality, anchoring at the
        first visit and spending the whole check budget on segments already
        behind the drone).  The segment list depends only on the
        travelled-distance budget, never on probe outcomes, so it is collected
        first and probed in one batched pass of the octree's index, with the
        same verdict as walking the segments one by one and stopping at the
        first occupied one.
        """
        cfg = self.config
        octree = self.operators.octree
        start_index = trajectory.nearest_point_to(position).index
        points = trajectory.waypoint_positions()
        travelled = 0.0
        pairs: List[tuple[Vec3, Vec3]] = []
        for a, b in zip(points[start_index:], points[start_index + 1 :]):
            pairs.append((a, b))
            travelled += a.distance_to(b)
            if travelled >= cfg.block_check_distance_m:
                break
        if not pairs:
            return False
        starts = np.array([(a.x, a.y, a.z) for a, _ in pairs])
        ends = np.array([(b.x, b.y, b.z) for _, b in pairs])
        step = max(octree.vox_min, 0.5)
        return bool(octree.segment_occupied_batch(starts, ends, step=step).any())

    def escape_start(self, position: Vec3) -> Vec3:
        """A planning start near the drone that is clear of mapped obstacles.

        When braking leaves the drone hugging (or, through map noise, inside)
        an occupied cell, planning from the exact drone position fails every
        time.  Planning from the nearest clear spot a voxel or two away lets
        the pipeline recover; the path follower pulls the drone onto the new
        path from wherever it actually is.
        """
        octree = self.operators.octree
        clearance = octree.vox_min * 2.0

        def is_clear(candidate: Vec3) -> bool:
            offsets = (
                Vec3.zero(),
                Vec3(clearance, 0.0, 0.0),
                Vec3(-clearance, 0.0, 0.0),
                Vec3(0.0, clearance, 0.0),
                Vec3(0.0, -clearance, 0.0),
            )
            return not any(octree.is_occupied(candidate + o) for o in offsets)

        if is_clear(position):
            return position
        for radius in (0.6, 1.2, 2.0, 3.0):
            for k in range(8):
                angle = math.pi * k / 4.0
                candidate = position + Vec3(
                    radius * math.cos(angle), radius * math.sin(angle), 0.0
                )
                if is_clear(candidate):
                    return candidate
        return position

    def local_goal(self, position: Vec3, goal: Vec3) -> Vec3:
        """The receding-horizon goal for piece-wise planning."""
        to_goal = goal - position
        distance = to_goal.norm()
        if distance <= self.config.planning_horizon_m:
            return goal
        return position + to_goal * (self.config.planning_horizon_m / distance)

    def planning_bounds(self) -> AABB:
        """The planner's sampling region: world bounds clamped to the flight band."""
        bounds = self.environment.world.bounds
        low, high = self.config.flight_band_m
        return AABB(
            Vec3(bounds.min_corner.x, bounds.min_corner.y, low),
            Vec3(bounds.max_corner.x, bounds.max_corner.y, high),
        )

    # -- subscriptions ---------------------------------------------------
    def _on_decision(self, message: Message[DecisionSample]) -> None:
        self._decision = message.payload

    def _on_flight(self, message: Message[FlightResult]) -> None:
        # Stall recovery: the flight node detected a pinned drone; drop the
        # trajectory so the next decision replans from scratch.
        if message.payload.drop_trajectory:
            self._trajectory = None
            self.publish(
                self.topics.trajectory, TrajectorySample(message.payload.index, None)
            )

    def _on_perception(self, message: Message[PerceptionSample]) -> None:
        sample = message.payload
        if self._decision is None or self._decision.index != sample.index:
            raise RuntimeError("planning received perception without its decision")
        decision = self._decision.decision
        position = sample.position

        replan, _reason = self.should_replan(
            self._trajectory, position, self._decisions_since_plan
        )
        local_goal = self.local_goal(position, self.environment.goal)
        planning = self.operators.run_planning(
            policy=decision.policy,
            start=self.escape_start(position),
            goal=local_goal,
            bounds=self.planning_bounds(),
            replan=replan,
            previous_trajectory=self._trajectory,
            start_time=self.executor.clock.now,
            velocity_cap=decision.velocity_cap,
        )
        replanned = planning.plan is not None
        if replanned:
            self._decisions_since_plan = 0
            if planning.plan is not None and not planning.plan.success:
                self.consecutive_plan_failures += 1
            else:
                self.consecutive_plan_failures = 0
        else:
            self._decisions_since_plan += 1
        trajectory = planning.trajectory

        # Blocked-trajectory safety: if the updated map says the path ahead
        # is blocked, drop the trajectory so the next decision replans.
        if trajectory is not None and self.trajectory_blocked(trajectory, position):
            trajectory = None
        self._trajectory = trajectory
        self.publish(
            self.topics.trajectory, TrajectorySample(sample.index, trajectory)
        )
        self.publish(
            self.topics.planning,
            PlanningSample(sample.index, planning, trajectory, replanned, position),
        )


class FlightNode(Node):
    """Charges the decision's latency and flies the drone for its duration.

    The last stage of the cascade: it merges the pipeline's work, charges the
    canonical latency breakdown from the cost model (fault-adjusted when a
    fault window covers the decision), integrates flight for the decision
    interval with the pure-pursuit follower and the emergency brake, then
    appends the decision's :class:`~repro.analysis.trace.DecisionRecord` to
    ``traces``.
    """

    def __init__(
        self,
        executor: Executor,
        config: "MissionConfig",
        environment: GeneratedEnvironment,
        runtime: "Runtime",
        cost_model: WorkloadCostModel,
        kinematics: QuadrotorKinematics,
        follower: PurePursuitFollower,
        operators: OperatorSet,
        energy_model: EnergyModel,
        traces: List[DecisionRecord],
        orchestrator: FaultOrchestrator,
        *,
        topics: PipelineTopics = ROOT_TOPICS,
        name: str = "flight",
        drone_id: int = 0,
    ) -> None:
        super().__init__(name, executor)
        self.topics = topics
        self.config = config
        self.environment = environment
        self.runtime = runtime
        self.cost_model = cost_model
        self.kinematics = kinematics
        self.follower = follower
        self.operators = operators
        self.energy_model = energy_model
        self.traces = traces
        self.orchestrator = orchestrator
        self.drone_id = drone_id
        self.state = DroneState(
            time=0.0, position=environment.start, velocity=Vec3.zero()
        )
        self.last_result: Optional[FlightResult] = None
        self._profile: Optional[ProfileSample] = None
        self._decision: Optional[DecisionSample] = None
        self._perception: Optional[PerceptionSample] = None
        self._stalled_decisions = 0
        self.subscribe(topics.profile, self._on_profile)
        self.subscribe(topics.decision, self._on_decision)
        self.subscribe(topics.perception, self._on_perception)
        self.subscribe(topics.planning, self._on_planning)

    def _on_profile(self, message: Message[ProfileSample]) -> None:
        self._profile = message.payload

    def _on_decision(self, message: Message[DecisionSample]) -> None:
        self._decision = message.payload

    def _on_perception(self, message: Message[PerceptionSample]) -> None:
        self._perception = message.payload

    def _on_planning(self, message: Message[PlanningSample]) -> None:
        planning = message.payload
        index = planning.index
        if (
            self._profile is None
            or self._decision is None
            or self._perception is None
            or self._decision.index != index
            or self._perception.index != index
        ):
            raise RuntimeError("flight received planning output with stale inputs")
        decision = self._decision.decision
        profile = self._profile.profile
        cfg = self.config
        orchestrator = self.orchestrator

        # Charge compute: the canonical per-stage breakdown of the merged work.
        work = merge_work(self._perception.output.work, planning.output.work)
        stage_latencies = self.cost_model.stage_latencies(
            work, self.runtime.spatial_aware
        )
        # Platform/transport faults land here, after the nominal model and
        # before any accounting, so thermal throttling inflates the compute
        # stages and comm faults show up in the comm_* stages.  Fault hooks
        # come from an open registry, so their output is checked here.
        stage_latencies = orchestrator.apply_stage_latencies(index, stage_latencies)
        for stage, seconds in stage_latencies.items():
            if seconds < 0:
                raise ValueError(
                    f"decision {index}: the active faults made stage "
                    f"{stage!r} take a negative latency ({seconds} s)"
                )
        end_to_end = sum(stage_latencies.values())
        busy = compute_seconds(stage_latencies)

        # Fly for the duration of the decision.
        interval = max(end_to_end, cfg.sensor_period_s)
        state, flown, hit = self._fly(
            self.state, planning.trajectory, decision.velocity_cap, interval
        )
        # The decision's trace record; the recorder stamps its spec_name.
        position = profile.position
        self.traces.append(
            DecisionRecord(
                spec_name="",
                design=self.runtime.name,
                index=index,
                timestamp=self.executor.clock.now,
                position=(position.x, position.y, position.z),
                zone=self.environment.zone_map.zone_at(position).name,
                speed=profile.velocity,
                velocity_cap=decision.velocity_cap,
                time_budget=decision.time_budget,
                predicted_latency=decision.predicted_latency,
                solver_feasible=decision.solver_feasible,
                policy=decision.policy.as_dict(),
                stage_latencies=stage_latencies,
                end_to_end_latency=end_to_end,
                visibility=profile.visibility,
                closest_obstacle=profile.closest_obstacle,
                gap_min=profile.gap_min,
                gap_avg=profile.gap_avg,
                sensor_volume=profile.sensor_volume,
                map_volume=profile.map_volume,
                map_voxels=self.operators.octree.occupied_voxel_count(),
                flown=flown,
                interval=interval,
                energy=self.energy_model.mission_energy(
                    flight_time_s=interval,
                    mean_speed=flown / interval if interval > 0 else 0.0,
                    compute_busy_s=busy,
                ),
                replanned=planning.replanned,
                dropped=orchestrator.sensor_dropped(index),
                hit=hit,
                archetype=self.environment.archetype,
                difficulty=float(self.environment.difficulty_at(position)),
                drone_id=self.drone_id,
                faults=orchestrator.active_fault_names(index),
            )
        )

        # Stall detection: a drone pinned by its emergency brake (or a
        # trajectory it cannot make progress on) needs a fresh plan.
        drop_trajectory = False
        if planning.trajectory is not None and flown < 0.05:
            self._stalled_decisions += 1
            if self._stalled_decisions >= 3:
                drop_trajectory = True
                self._stalled_decisions = 0
        else:
            self._stalled_decisions = 0

        self.state = state
        result = FlightResult(
            index=index,
            state=state,
            flown=flown,
            hit=hit,
            interval=interval,
            end_to_end=end_to_end,
            drop_trajectory=drop_trajectory,
        )
        self.last_result = result
        self.publish(self.topics.flight, result)

    # -- flight integration ----------------------------------------------
    def _motion_blocked(self, position: Vec3, *motions: Vec3) -> bool:
        """True when mapped obstacles lie within a small tube around any motion.

        Each probe walks the expected displacement over the brake look-ahead
        horizon and checks a one-voxel-wide neighbourhood laterally, so the
        drone also brakes when it is about to *graze* a mapped obstacle rather
        than only when it would fly squarely into one.  Motions with a
        zero-length horizon are skipped; the rest are probed in one batch,
        each segment on its own, so the verdict is the ``or`` of one probe
        per motion.
        """
        octree = self.operators.octree
        start = (position.x, position.y, position.z)
        ends = []
        for motion in motions:
            horizon = motion * self.config.emergency_brake_lookahead_s
            if horizon.norm() >= 1e-6:
                end = position + horizon
                ends.append((end.x, end.y, end.z))
        if not ends:
            return False
        # The drone's own voxel is excluded (include_start=False): map noise
        # can mark the cell the drone currently sits in, and braking on it
        # would pin the drone in place forever.
        return bool(
            octree.segment_occupied_batch(
                np.array([start] * len(ends)),
                np.array(ends),
                step=octree.vox_min,
                lateral=octree.vox_min,
                include_start=False,
            ).any()
        )

    def _fly(
        self,
        state: DroneState,
        trajectory: Optional[Trajectory],
        velocity_cap: float,
        duration: float,
    ) -> tuple[DroneState, float, bool]:
        """Advance flight for ``duration`` seconds; returns (state, distance, hit)."""
        cfg = self.config
        flown = 0.0
        remaining = duration
        current = state
        while remaining > 1e-9:
            dt = min(cfg.control_dt_s, remaining)
            if trajectory is None:
                command = Vec3.zero()
            else:
                command = self.follower.velocity_command(
                    trajectory, current.position, velocity_cap
                )
                # Emergency brake: if the occupancy map shows an obstacle
                # within a short flight-time horizon of the commanded motion
                # (or of the drone's current momentum), stop instead of
                # continuing at speed.
                if self._motion_blocked(current.position, command, current.velocity):
                    command = Vec3.zero()
            next_state = self.kinematics.step(current, command, dt)
            flown += next_state.position.distance_to(current.position)
            current = next_state
            if self.environment.world.is_occupied(
                current.position, margin=cfg.collision_margin_m
            ):
                return current, flown, True
            remaining -= dt
        return current, flown, False


# ----------------------------------------------------------------------
# The wired graph
# ----------------------------------------------------------------------
class DecisionPipeline:
    """The six pipeline nodes wired over one bus, driven one decision at a time.

    The pipeline owns the run-scoped accounting (the traces: one
    :class:`~repro.analysis.trace.DecisionRecord` per decision) and exposes
    :meth:`step` — publish one sensor tick and drain the executor until the
    cascade completes.  The executor (with its bus and clock) belongs to the
    decision loop, :func:`repro.simulation.fleet.fly_epochs`.  The mission
    façade owns mission-level policy: termination, distance integration and
    metric assembly.
    """

    def __init__(
        self,
        environment: GeneratedEnvironment,
        runtime: "Runtime",
        config: "MissionConfig",
        cost_model: WorkloadCostModel,
        kinematics: QuadrotorKinematics,
        profilers: ProfilerSuite,
        operators: OperatorSet,
        rig: CameraRig,
        follower: PurePursuitFollower,
        energy_model: EnergyModel,
        faults: FaultSet,
        executor: Executor,
        *,
        namespace: Optional[TopicNamespace] = None,
        drone_id: int = 0,
    ) -> None:
        self.environment = environment
        self.namespace = namespace or TopicNamespace()
        self.drone_id = drone_id
        # The decision loop's executor, clock and bus: a fleet's N pipelines
        # share them, each publishing inside its own topic namespace.
        self.executor = executor
        self.bus = executor.bus
        self.clock = executor.clock
        self.topics = PipelineTopics.for_namespace(self.namespace)
        self.traces: List[DecisionRecord] = []
        # One orchestrator per pipeline: schedule jitter resolves against the
        # mission seed, so serial and pooled campaign runs agree.
        self.orchestrator = FaultOrchestrator(faults, seed=config.rng_seed)

        topics = self.topics
        ns = self.namespace
        self.sense = SenseNode(
            executor,
            rig,
            environment,
            operators.octree,
            self.orchestrator,
            topics=topics,
            name=ns.node("sense"),
        )
        self.profile = ProfileNode(
            executor,
            profilers,
            operators,
            rig_max_volume=rig.max_sensor_volume(),
            goal=environment.goal,
            topics=topics,
            name=ns.node("profile"),
        )
        self.governor = GovernorNode(
            executor,
            runtime,
            self.orchestrator,
            topics=topics,
            name=ns.node("governor"),
        )
        self.perception = PerceptionNode(
            executor, operators, topics=topics, name=ns.node("perception")
        )
        self.planning = PlanningNode(
            executor, operators, config, environment,
            topics=topics, name=ns.node("planning"),
        )
        self.flight = FlightNode(
            executor,
            config,
            environment,
            runtime,
            cost_model,
            kinematics,
            follower,
            operators,
            energy_model,
            self.traces,
            self.orchestrator,
            topics=topics,
            name=ns.node("flight"),
            drone_id=drone_id,
        )
        self.nodes = (
            self.sense,
            self.profile,
            self.governor,
            self.perception,
            self.planning,
            self.flight,
        )
        # Passive step observers (the trace recorder, repro.obs taps).  Empty
        # by default, so an uninstrumented mission pays only two truthiness
        # checks per decision.
        self.observers: List[Any] = []

    def add_tap(self, tap) -> None:
        """Attach a passive observer (e.g. a trace recorder) to the graph.

        A tap is anything with an ``attach(pipeline)`` method; it registers
        itself in :attr:`observers` and must neither subscribe to nor publish
        on the bus, so the dispatch log is the same with or without it.
        """
        tap.attach(self)

    def step(self, decision_index: int) -> FlightResult:
        """Run one full decision cascade through the graph."""
        self.flight.last_result = None
        if self.observers:
            for observer in self.observers:
                observer.on_decision_start(self, decision_index)
        self.sense.tick(decision_index)
        self.executor.spin()
        result = self.flight.last_result
        if result is None or result.index != decision_index:
            raise RuntimeError(
                f"decision {decision_index} did not complete its cascade"
            )
        if self.observers:
            for observer in self.observers:
                observer.on_decision_end(self, decision_index, result)
        return result

    def dispatch_log(self) -> List[tuple[str, str]]:
        """(topic, frame) per delivered callback — the determinism witness."""
        return self.executor.dispatch_log
