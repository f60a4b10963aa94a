"""The decision pipeline: one decision as a call chain through six stages.

The paper's runtime is a ROS pipeline: sensing, profiling, the governor,
perception, planning and flight control are separate nodes exchanging
messages, and both the stage latencies *and* the communication hops between
stages are first-class quantities (the "comm" bars of Figure 11).  Here one
decision is one call chain, each stage taking the outputs it needs as
arguments::

    sense ─▶ profile ─▶ governor ─▶ perception ─▶ planning ─▶ flight

The hops keep their cost: the flight stage, the last of the chain, charges
the canonical per-stage breakdown of the decision's merged work (compute
stages plus the four ``comm_*`` hops, each sized by the payload its stage
hands on) and stores it in the decision's
:class:`~repro.analysis.trace.DecisionRecord`, the one per-decision account
the mission metrics and the :class:`~repro.middleware.latency.LatencyLedger`
fold.

The ROS graph survives as the dispatch log, the determinism witness.  Per
decision it lists one (topic, publishing node) entry for every subscriber of
every topic, in the first-in-first-out order the graph delivers them::

    sense      ──/sense/scan──────────▶ profile, perception
    profile    ──/profile/space───────▶ governor, flight
    governor   ──/governor/decision───▶ perception, planning, flight
    perception ──/perception/output───▶ planning, flight
    planning   ──/planning/trajectory─▶ profile, perception
    planning   ──/planning/output─────▶ flight
    flight     ──/flight/result───────▶ sense, planning

When stall recovery drops the trajectory, ``/planning/trajectory`` goes out
once more, to its two subscribers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, TYPE_CHECKING

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
from repro.middleware.clock import SimClock
from repro.middleware.latency import compute_seconds
from repro.middleware.topic import TopicNamespace
from repro.planning.trajectory import Trajectory
from repro.sensors.rig import CameraRig, RigScan
from repro.sensors.state_sensors import StateEstimate
from repro.simulation.faults import FaultSet
from repro.simulation.orchestrator import FaultOrchestrator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (mission imports us)
    from repro.perception.octomap import OccupancyOctree
    from repro.simulation.mission import MissionConfig, Runtime

# The profiling cloud uses a fixed, modest resolution: profiling happens
# before the policy exists and its cost is part of the runtime overhead
# already charged by the cost model.
PROFILING_RESOLUTION = 0.6

#: One decision's dispatch-log entries, (base topic, base node name), in
#: delivery order (the graph in the module docstring).
CASCADE = (
    ("/sense/scan", "sense"),
    ("/sense/scan", "sense"),
    ("/profile/space", "profile"),
    ("/profile/space", "profile"),
    ("/governor/decision", "governor"),
    ("/governor/decision", "governor"),
    ("/governor/decision", "governor"),
    ("/perception/output", "perception"),
    ("/perception/output", "perception"),
    ("/planning/trajectory", "planning"),
    ("/planning/trajectory", "planning"),
    ("/planning/output", "planning"),
    ("/flight/result", "flight"),
    ("/flight/result", "flight"),
)
#: The entries a dropped trajectory appends after the flight result.
DROP = (
    ("/planning/trajectory", "planning"),
    ("/planning/trajectory", "planning"),
)


@dataclass(frozen=True, slots=True)
class PlanningSample:
    """The planning stage's output and the trajectory handed to control."""

    output: PlanningOutput
    trajectory: Optional[Trajectory]
    replanned: bool


@dataclass(frozen=True, slots=True)
class FlightResult:
    """What one decision's flight segment produced."""

    state: DroneState
    flown: float
    hit: bool
    interval: float
    drop_trajectory: bool


# ----------------------------------------------------------------------
# The stages that hold state across decisions
# ----------------------------------------------------------------------
class SenseStage:
    """Captures the camera rig and estimates the state; first stage of a decision.

    The stage applies the scenario's sensor faults (dropout, degraded
    resolution) at the capture boundary, so the rest of the pipeline sees
    ordinary scans.  The state estimate is the true state: the reproduction
    knows it exactly.

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
        rig: CameraRig,
        environment: GeneratedEnvironment,
        octree: "OccupancyOctree",
        orchestrator: FaultOrchestrator,
    ) -> None:
        self.rig = rig
        self.environment = environment
        self.orchestrator = orchestrator
        self.dynamics = environment.dynamics
        self._octree = octree
        self._degraded_rigs: dict[tuple[int, int], CameraRig] = {}

    def _active_rig(self, decision_index: int) -> CameraRig:
        resolution = self.orchestrator.camera_resolution(decision_index)
        if resolution is None:
            return self.rig
        rig = self._degraded_rigs.get(resolution)
        if rig is None:
            rig = self.rig.with_resolution(*resolution)
            self._degraded_rigs[resolution] = rig
        return rig

    def _mover_epoch_overrides(self, decision_index: int) -> Optional[dict[str, int]]:
        """Per-mover epoch pins from active stuck-mover windows (None = nominal)."""
        overrides: dict[str, int] = {}
        for mover in self.dynamics.movers:
            frozen = self.orchestrator.frozen_epoch(mover.name, decision_index)
            if frozen is not None:
                overrides[mover.name] = frozen
        return overrides or None

    def tick(
        self, decision_index: int, state: DroneState, now: float
    ) -> tuple[RigScan, StateEstimate]:
        """Capture one decision's sensor data at the drone's current state."""
        if self.dynamics is not None:
            self.dynamics.step(
                decision_index,
                octree=self._octree,
                epoch_overrides=self._mover_epoch_overrides(decision_index),
            )
        rig = self._active_rig(decision_index)
        if self.orchestrator.sensor_dropped(decision_index):
            scan = rig.empty_scan(state.position)
        else:
            scan = rig.capture(self.environment.world, state.position)
        return scan, StateEstimate(now, state.position, state.velocity)


class PlanningStage:
    """Owns the tracked trajectory: piece-wise planning, blockage, recovery."""

    def __init__(
        self,
        operators: OperatorSet,
        config: "MissionConfig",
        environment: GeneratedEnvironment,
    ) -> None:
        self.operators = operators
        self.config = config
        self.environment = environment
        self.consecutive_plan_failures = 0
        self._decisions_since_plan = 0
        #: The trajectory control tracks; None before the first plan and
        #: after a drop.
        self.trajectory: Optional[Trajectory] = None

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

    def plan(
        self, decision: GovernorDecision, position: Vec3, now: float
    ) -> PlanningSample:
        """Replan or keep the tracked trajectory, then check the path ahead."""
        replan, _reason = self.should_replan(
            self.trajectory, position, self._decisions_since_plan
        )
        local_goal = self.local_goal(position, self.environment.goal)
        planning = self.operators.run_planning(
            policy=decision.policy,
            start=self.escape_start(position),
            goal=local_goal,
            bounds=self.planning_bounds(),
            replan=replan,
            previous_trajectory=self.trajectory,
            start_time=now,
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
        self.trajectory = trajectory
        return PlanningSample(planning, trajectory, replanned)


class FlightStage:
    """Charges the decision's latency and flies the drone for its duration.

    The last stage of the chain: it merges the pipeline's work, charges the
    canonical latency breakdown from the cost model (fault-adjusted when a
    fault window covers the decision), integrates flight for the decision
    interval with the pure-pursuit follower and the emergency brake, then
    appends the decision's :class:`~repro.analysis.trace.DecisionRecord` to
    ``traces``.
    """

    def __init__(
        self,
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
        drone_id: int = 0,
    ) -> None:
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
        self._stalled_decisions = 0

    def fly(
        self,
        index: int,
        now: float,
        profile: SpaceProfile,
        decision: GovernorDecision,
        perception: PerceptionOutput,
        planning: PlanningSample,
    ) -> FlightResult:
        """Charge decision ``index``'s latency, fly it and record it."""
        cfg = self.config
        orchestrator = self.orchestrator

        # Charge compute: the canonical per-stage breakdown of the merged work.
        work = merge_work(perception.work, planning.output.work)
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
                timestamp=now,
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
        return FlightResult(
            state=state,
            flown=flown,
            hit=hit,
            interval=interval,
            drop_trajectory=drop_trajectory,
        )

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
# The chain
# ----------------------------------------------------------------------
class DecisionPipeline:
    """The six stages of one drone, called in order one decision at a time.

    The pipeline owns the run-scoped accounting (the traces: one
    :class:`~repro.analysis.trace.DecisionRecord` per decision) and exposes
    :meth:`step`, which runs one decision through the stages and appends its
    entries to the dispatch log.  The clock and the log belong to the
    decision loop, :func:`repro.simulation.fleet.fly_epochs`; a fleet's
    pipelines share both, each logging inside its own topic namespace.  The
    mission façade owns mission-level policy: termination, distance
    integration and metric assembly.
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
        clock: SimClock,
        log: List[tuple[str, str]],
        *,
        namespace: Optional[TopicNamespace] = None,
        drone_id: int = 0,
    ) -> None:
        self.environment = environment
        self.runtime = runtime
        self.profilers = profilers
        self.operators = operators
        self.rig_max_volume = rig.max_sensor_volume()
        self.drone_id = drone_id
        self.clock = clock
        self._log = log
        namespace = namespace or TopicNamespace()
        self._cascade = [(namespace.topic(t), namespace.node(n)) for t, n in CASCADE]
        self._drop = [(namespace.topic(t), namespace.node(n)) for t, n in DROP]
        self.traces: List[DecisionRecord] = []
        # One orchestrator per pipeline: schedule jitter resolves against the
        # mission seed, so serial and pooled campaign runs agree.
        self.orchestrator = FaultOrchestrator(faults, seed=config.rng_seed)
        self.sense = SenseStage(rig, environment, operators.octree, self.orchestrator)
        self.planning = PlanningStage(operators, config, environment)
        self.flight = FlightStage(
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
            drone_id=drone_id,
        )
        # Passive observers (the trace recorder, repro.obs taps), empty by
        # default: step observers see each decision's start and end, stage
        # observers each stage's start and output.  An uninstrumented
        # mission pays two truthiness checks per decision and one per stage.
        self.observers: List[Any] = []
        self.stage_observers: List[Any] = []

    def add_tap(self, tap) -> None:
        """Attach a passive observer (e.g. a trace recorder) to the pipeline.

        A tap is anything with an ``attach(pipeline)`` method; it registers
        itself in :attr:`observers` and/or :attr:`stage_observers` and only
        reads what it is handed, so the dispatch log is the same with or
        without it.
        """
        tap.attach(self)

    def step(self, decision_index: int) -> FlightResult:
        """Run one decision through the six stages and log its cascade."""
        index = decision_index
        if self.observers:
            for observer in self.observers:
                observer.on_decision_start(self, index)
        stage = self._stage
        now = self.clock.now
        trajectory = self.planning.trajectory
        scan, estimate = stage("sense", self.sense.tick, index, self.flight.state, now)
        profile = stage("profile", self._profile, now, scan, estimate, trajectory)
        # A power brownout shrinks the time budget fed to the runtime; with
        # no fault active the scale is 1.0, the nominal budget.
        decision = stage(
            "governor",
            self.runtime.decide,
            profile,
            self.orchestrator.budget_scale(index),
        )
        position = scan.position
        focus = (
            trajectory.nearest_point_to(position).position
            if trajectory is not None
            else position
        )
        perception = stage(
            "perception", self.operators.run_perception, scan, decision.policy, focus
        )
        planning = stage("planning", self.planning.plan, decision, position, now)
        result = stage(
            "flight", self.flight.fly, index, now, profile, decision, perception, planning
        )
        self._log.extend(self._cascade)
        if result.drop_trajectory:
            # Stall recovery: the flight stage found the drone pinned, so the
            # next decision replans from scratch.
            self.planning.trajectory = None
            self._log.extend(self._drop)
        if self.observers:
            for observer in self.observers:
                observer.on_decision_end(self, index, result)
        return result

    def _stage(self, name: str, call: Callable[..., Any], *args: Any) -> Any:
        """``call(*args)`` between the stage observers' before and after hooks."""
        if not self.stage_observers:
            return call(*args)
        for observer in self.stage_observers:
            observer.before_stage(self, name)
        output = call(*args)
        for observer in self.stage_observers:
            observer.after_stage(self, name, output)
        return output

    def _profile(
        self,
        now: float,
        scan: RigScan,
        estimate: StateEstimate,
        trajectory: Optional[Trajectory],
    ) -> SpaceProfile:
        """The Table I space profile, from a coarse cloud of the fresh scan."""
        cloud = self.operators.point_cloud_kernel.process(
            scan, resolution=PROFILING_RESOLUTION
        )
        return self.profilers.profile(
            timestamp=now,
            state=estimate,
            cloud=cloud,
            scan=scan,
            octree=self.operators.octree,
            trajectory=trajectory,
            rig_max_volume=self.rig_max_volume,
            heading=self.environment.goal - scan.position,
        )

    def dispatch_log(self) -> List[tuple[str, str]]:
        """(topic, node) per delivery — the determinism witness.

        This is the decision loop's log itself, shared by a fleet's
        pipelines; read it, do not change it.
        """
        return self._log
