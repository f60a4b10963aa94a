"""The mission simulator — the decision-loop substitute for the paper's HIL setup.

:class:`MissionSimulator` flies one mission (package delivery or search &
rescue) through a generated environment under a given runtime (RoboRun or the
spatial-oblivious baseline) and returns the mission-level metrics plus the
per-decision traces the analysis layer turns into the paper's figures.

The simulator owns one drone's kit — kernels, models and the operator set —
and wires it into the node-based decision pipeline
(:mod:`repro.simulation.pipeline`): the six nodes — sense, profile,
governor, perception, planning, flight — over the middleware bus.  Its
:meth:`~MissionSimulator.run` is the one-drone case of the fleet decision
loop (:func:`repro.simulation.fleet.fly_epochs`), which drives one sensor
tick per decision and owns the mission-level policy: termination (goal,
collision, plan-failure and time limits), distance integration and metric
assembly.  Stage logic, latency charging and the comm hops all live in the
nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Protocol, Sequence

from repro.compute.costs import WorkloadCostModel
from repro.control.follower import PurePursuitFollower
from repro.core.governor import GovernorDecision
from repro.core.operators import OperatorSet
from repro.core.profilers import ProfilerSuite, SpaceProfile
from repro.dynamics.drone import QuadrotorKinematics
from repro.dynamics.energy import EnergyModel
from repro.environment.generator import GeneratedEnvironment
from repro.middleware.latency import LatencyLedger
from repro.perception.octomap import OccupancyOctree
from repro.perception.point_cloud import PointCloudKernel
from repro.planning.rrt_star import RRTStarConfig, RRTStarPlanner
from repro.planning.smoothing import PathSmoother, SmoothingConfig
from repro.sensors.rig import CameraRig
from repro.sensors.state_sensors import StateSensorSuite
from repro.simulation.faults import FaultSet
from repro.simulation.metrics import DecisionTrace, MissionMetrics
from repro.simulation.pipeline import DecisionPipeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.recorder import TraceRecorder
    from repro.middleware.executor import Executor
    from repro.middleware.topic import TopicNamespace


class Runtime(Protocol):
    """The per-decision interface both designs implement."""

    name: str
    spatial_aware: bool

    def decide(
        self, profile: SpaceProfile, budget_scale: float = 1.0
    ) -> GovernorDecision:
        """Produce the policy, deadline and velocity cap for one decision.

        ``budget_scale`` multiplies the decision time budget before knobs are
        chosen — platform faults (power brownouts) shrink it below 1; the
        nominal path always passes 1.0 (and the pipeline only forwards a
        non-unit scale, so stubs with the narrow signature keep working on
        fault-free missions).
        """


@dataclass(frozen=True, slots=True)
class MissionConfig:
    """Simulation parameters for one mission.

    Attributes:
        sensor_period_s: minimum interval between decisions (fresh sensor data
            arrives at this rate), seconds.
        control_dt_s: integration step of the flight sub-loop, seconds.
        goal_tolerance_m: the mission succeeds once the drone is within this
            distance of the goal.
        collision_margin_m: the drone's collision radius against ground truth.
        planner_margin_m: obstacle inflation used by the planner's collision
            checks.
        planning_horizon_m: piece-wise planning targets a local goal at most
            this far ahead along the straight line to the mission goal.
        replan_remaining_m: replan when less than this much of the current
            trajectory remains ahead of the drone.
        replan_interval_decisions: periodic replanning cadence.
        block_check_distance_m: how far ahead the current trajectory is checked
            against the fresh map for blockage.
        flight_band_m: (low, high) altitude band the planner may use; keeps
            paths in the band real warehouse missions fly in instead of
            climbing over obstacles.
        emergency_brake_lookahead_s: the flight sub-loop brakes when the map
            shows an obstacle within this many seconds of flight ahead.
        max_decisions: hard cap on pipeline decisions (guards wall-clock time).
        max_mission_time_s: hard cap on simulated mission time.
        max_consecutive_plan_failures: abort after this many failed plans in a
            row.
        camera_width / camera_height: per-camera depth image resolution.
        camera_range_m: camera maximum sensing range.
        local_map_radius_m: radius of the map kept around the drone.
        planner_iterations: RRT* iteration cap per plan.
        planner_step_m: RRT* extension step.
        rng_seed: seed shared by the planner for reproducibility.
    """

    sensor_period_s: float = 0.5
    control_dt_s: float = 0.25
    goal_tolerance_m: float = 10.0
    collision_margin_m: float = 0.2
    planner_margin_m: float = 1.0
    planning_horizon_m: float = 70.0
    replan_remaining_m: float = 15.0
    replan_interval_decisions: int = 40
    block_check_distance_m: float = 25.0
    flight_band_m: tuple[float, float] = (2.0, 12.0)
    emergency_brake_lookahead_s: float = 0.8
    max_decisions: int = 3000
    max_mission_time_s: float = 6000.0
    max_consecutive_plan_failures: int = 8
    camera_width: int = 12
    camera_height: int = 9
    camera_range_m: float = 40.0
    local_map_radius_m: float = 120.0
    planner_iterations: int = 500
    planner_step_m: float = 4.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.sensor_period_s <= 0 or self.control_dt_s <= 0:
            raise ValueError("periods must be positive")
        if self.goal_tolerance_m <= 0:
            raise ValueError("goal tolerance must be positive")
        if self.max_decisions < 1:
            raise ValueError("max_decisions must be at least 1")
        if self.planning_horizon_m <= 0:
            raise ValueError("planning horizon must be positive")
        # Reject bad values here, naming the field, rather than deep inside a
        # campaign worker when the simulator is built.
        for names, valid, rule in (
            (
                ("camera_range_m", "planner_step_m", "local_map_radius_m",
                 "max_mission_time_s"),
                lambda value: value > 0,
                "must be positive",
            ),
            (
                ("camera_width", "camera_height", "planner_iterations",
                 "replan_interval_decisions", "max_consecutive_plan_failures"),
                lambda value: value >= 1,
                "must be at least 1",
            ),
            (
                ("collision_margin_m", "planner_margin_m",
                 "emergency_brake_lookahead_s"),
                lambda value: value >= 0,
                "cannot be negative",
            ),
        ):
            for name in names:
                value = getattr(self, name)
                if not valid(value):
                    raise ValueError(f"{name} {rule}, got {value!r}")
        band = self.flight_band_m
        if not isinstance(band, Sequence) or len(band) != 2:
            raise ValueError("flight_band_m must be a (low, high) pair")
        low, high = float(band[0]), float(band[1])
        if not low < high:
            raise ValueError(
                f"flight_band_m must satisfy low < high, got ({band[0]}, {band[1]})"
            )
        # Normalise lists (e.g. from JSON round-trips) to a typed tuple.
        object.__setattr__(self, "flight_band_m", (low, high))


@dataclass
class MissionResult:
    """Everything one flown mission produced.

    Attributes:
        metrics: the mission-level summary (times in seconds, distances in
            metres, energy in joules).
        traces: one :class:`~repro.simulation.metrics.DecisionTrace` per
            decision, in decision order.
        ledger: the per-stage latency ledger (seconds per stage per
            decision).
        environment: the generated world the mission flew through.
        design: name of the runtime evaluated.
        pipeline: the live node graph (``None`` once a result has crossed a
            campaign process boundary).
    """

    metrics: MissionMetrics
    traces: List[DecisionTrace]
    ledger: LatencyLedger
    environment: GeneratedEnvironment
    design: str
    pipeline: Optional[DecisionPipeline] = None

    def trace_values(self, attribute: str) -> List[float]:
        """Convenience accessor: one scalar per decision (e.g. 'speed')."""
        return [getattr(trace, attribute) for trace in self.traces]


class MissionSimulator:
    """Runs one mission of one design through one generated environment.

    Wires the six-node decision pipeline over the simulator's kernels and
    models.  :meth:`run` flies it as a fleet of one: one decision cascade
    per sensor tick (``sensor_period_s`` seconds apart, or slower when the
    decision latency exceeds the period) until termination (goal reached,
    collision, plan-failure streak, or the time/decision caps), then the
    :class:`~repro.simulation.metrics.MissionMetrics`.  A
    :class:`~repro.simulation.fleet.FleetSimulator` holds one of these per
    drone.  Repeated ``run()`` calls share the operator set, so the
    occupancy map persists across runs of the same simulator.
    """

    def __init__(
        self,
        environment: GeneratedEnvironment,
        runtime: Runtime,
        config: Optional[MissionConfig] = None,
        cost_model: Optional[WorkloadCostModel] = None,
        energy_model: Optional[EnergyModel] = None,
        kinematics: Optional[QuadrotorKinematics] = None,
        profilers: Optional[ProfilerSuite] = None,
        faults: Optional[FaultSet] = None,
    ) -> None:
        self.environment = environment
        self.runtime = runtime
        self.config = config or MissionConfig()
        self.cost_model = cost_model or WorkloadCostModel()
        self.energy_model = energy_model or EnergyModel()
        self.kinematics = kinematics or QuadrotorKinematics()
        self.profilers = profilers or ProfilerSuite(
            max_visibility=self.config.camera_range_m
        )
        self.faults = faults or FaultSet()

        cfg = self.config
        self.rig = CameraRig(
            width=cfg.camera_width,
            height=cfg.camera_height,
            max_range=cfg.camera_range_m,
        )
        self.sensors = StateSensorSuite.ideal()
        self.operators = OperatorSet(
            point_cloud_kernel=PointCloudKernel(),
            octree=OccupancyOctree(vox_min=0.3, levels=6),
            planner=RRTStarPlanner(
                RRTStarConfig(
                    max_iterations=cfg.planner_iterations,
                    step_size=cfg.planner_step_m,
                    collision_margin=cfg.planner_margin_m,
                    seed=cfg.rng_seed,
                )
            ),
            smoother=PathSmoother(SmoothingConfig()),
            planner_seed=cfg.rng_seed,
            local_map_radius=cfg.local_map_radius_m,
        )
        self.follower = PurePursuitFollower()

    # ------------------------------------------------------------------
    # Graph wiring
    # ------------------------------------------------------------------
    def build_pipeline(
        self,
        *,
        namespace: Optional["TopicNamespace"] = None,
        executor: Optional["Executor"] = None,
        drone_id: int = 0,
    ) -> DecisionPipeline:
        """Wire a fresh node graph over the simulator's kernels and models.

        Without arguments each call creates a new bus, executor, clock and
        accounting; the pipeline shares the simulator's operator set, so the
        occupancy map carries over between pipelines built by the same
        simulator.  The decision loop passes a shared ``executor`` plus a
        per-drone ``namespace``/``drone_id`` so N graphs coexist on one bus.
        """
        return DecisionPipeline(
            environment=self.environment,
            runtime=self.runtime,
            config=self.config,
            cost_model=self.cost_model,
            kinematics=self.kinematics,
            profilers=self.profilers,
            operators=self.operators,
            rig=self.rig,
            sensors=self.sensors,
            follower=self.follower,
            faults=self.faults,
            namespace=namespace,
            executor=executor,
            drone_id=drone_id,
        )

    # ------------------------------------------------------------------
    # Flight
    # ------------------------------------------------------------------
    def run(
        self,
        recorder: Optional["TraceRecorder"] = None,
        taps: Sequence = (),
    ) -> MissionResult:
        """Fly the mission and return its metrics and traces.

        The mission is the one-drone case of
        :func:`repro.simulation.fleet.fly_epochs`, flown over this
        simulator's own operator set.

        Args:
            recorder: optional :class:`~repro.analysis.recorder.
                TraceRecorder`; when given it is attached to the pipeline as
                a passive topic tap and receives one structured record per
                decision plus the final mission record.  ``None`` (the
                default) adds no tracing work at all.
            taps: additional passive observers (``repro.obs`` taps such as
                :class:`~repro.obs.tap.ObsTap`), attached the same way.
                Empty (the default) adds no instrumentation work at all.
        """
        # Deferred: the fleet module builds on this one.
        from repro.simulation.fleet import fly_epochs

        return fly_epochs([self], recorder, taps).drones[0]
