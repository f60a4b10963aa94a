"""The decision loop: N decision pipelines over one world, clock and log.

A fleet mission flies ``n_drones`` copies of the decision stack through one
shared :class:`~repro.environment.world.World`.  Nothing is forked: each
drone gets its own :class:`~repro.simulation.pipeline.DecisionPipeline`,
logging inside its own :class:`~repro.middleware.topic.TopicNamespace`
(``/drone/<id>/sense/scan``, …) into one *shared* dispatch log, on one
shared ``SimClock``, so the log is a single, deterministic witness for the
whole fleet.

Interleaving is deterministic round-robin at decision granularity: every
epoch, each active drone (in drone-id order) runs its whole decision before
the next drone starts.  The shared clock
advances once per epoch by the slowest drone's decision interval, which
keeps the fleet time-synchronised the way a lock-stepped HIL rig would be.

Peers appear to each other as obstacles.  Before each drone's turn its
peers' current positions are folded into the world's *agent* obstacle layer
(ground truth for depth cameras and collision probes) and re-marked into
that drone's occupancy octree through the same batched
``mark_box``/``clear_cells`` path the kinematic movers use — so each
drone's octomap, governor profile and planner all see the rest of the fleet
where it currently is.

:func:`fly_epochs` is the package's only decision loop.
:meth:`MissionSimulator.run <repro.simulation.mission.MissionSimulator.run>`
flies one drone through it, so a single-drone mission *is* a fleet of one:
no peers, the root namespace, and a mission record without fleet fields.
"""

from __future__ import annotations

import itertools
import statistics
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.compute.utilization import mean_utilization
from repro.environment.generator import GeneratedEnvironment
from repro.environment.world import Obstacle
from repro.environment.zones import ZoneMap
from repro.geometry.aabb import AABB
from repro.geometry.vec3 import Vec3
from repro.middleware.clock import SimClock
from repro.middleware.topic import TopicNamespace
from repro.simulation.faults import FaultSet
from repro.simulation.metrics import MissionMetrics
from repro.simulation.mission import (
    MissionConfig,
    MissionResult,
    MissionSimulator,
    Runtime,
)
from repro.simulation.pipeline import DecisionPipeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.recorder import TraceRecorder

#: Lateral formation spacing between adjacent drones' start offsets, metres.
FORMATION_SPACING_M = 6.0
#: Edge of the box a drone occupies in its peers' maps and the world's agent
#: layer, metres.
PEER_BOX_M = 1.0
#: Pairwise distance under which an epoch counts as an airspace conflict,
#: metres.
CONFLICT_DISTANCE_M = 2.0


@dataclass(frozen=True, slots=True)
class FleetMetrics:
    """Fleet-level aggregates a per-drone summary cannot express.

    Attributes:
        n_drones: fleet size.
        completion_rate: fraction of drones that reached their goal without
            colliding, in [0, 1].
        collisions: number of drones that hit an obstacle (or a peer).
        makespan_s: simulated time until the last drone terminated.
        fleet_energy_kj: summed energy over the fleet, kilojoules.
        min_separation_m: smallest pairwise drone distance observed at any
            epoch boundary (``None`` for single-drone missions — there is
            no pair to measure).
        airspace_conflicts: number of epochs during which some pair of
            active drones was closer than the conflict distance.
    """

    n_drones: int
    completion_rate: float
    collisions: int
    makespan_s: float
    fleet_energy_kj: float
    min_separation_m: Optional[float]
    airspace_conflicts: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "n_drones": self.n_drones,
            "completion_rate": self.completion_rate,
            "collisions": self.collisions,
            "makespan_s": self.makespan_s,
            "fleet_energy_kj": self.fleet_energy_kj,
            "min_separation_m": self.min_separation_m,
            "airspace_conflicts": self.airspace_conflicts,
        }


@dataclass
class FleetResult:
    """Everything one flown fleet mission produced.

    Attributes:
        metrics: fleet-aggregate :class:`MissionMetrics` — at ``n_drones=1``
            these are exactly the single drone's metrics, so campaign tables
            keyed on mission metrics work unchanged.
        fleet: the fleet-only aggregates (completion rate, separation, …).
        drones: one full :class:`MissionResult` per drone, in drone-id order.
        environment: the shared environment (drone 0's view).
        design: name of the runtime evaluated.
        pipeline: drone 0's pipeline (``None`` once the result crossed a
            campaign process boundary, like the single-drone field).
    """

    metrics: MissionMetrics
    fleet: FleetMetrics
    drones: List[MissionResult]
    environment: GeneratedEnvironment
    design: str
    pipeline: Optional[DecisionPipeline] = None

    @property
    def traces(self):
        """Drone 0's decision traces (the single-drone result's shape)."""
        return self.drones[0].traces

    @property
    def ledger(self):
        """Drone 0's latency ledger."""
        return self.drones[0].ledger


class FleetSimulator:
    """Runs N drones of one design through one shared environment.

    Args:
        environment: the shared generated environment; drone 0 flies its
            start→goal mission verbatim, drones 1..N-1 fly laterally offset
            copies of it (alternating sides, ``FORMATION_SPACING_M`` apart).
        runtime_factory: zero-argument callable producing a fresh runtime
            per drone (each drone gets its own governor state).
        config: mission parameters; drone k>0 runs with ``rng_seed + k`` so
            per-drone planners explore independently.
        n_drones: fleet size (≥ 1).
        faults: the fault set every drone flies under.
    """

    def __init__(
        self,
        environment: GeneratedEnvironment,
        runtime_factory: Callable[[], Runtime],
        config: Optional[MissionConfig] = None,
        n_drones: int = 1,
        faults: Optional[FaultSet] = None,
    ) -> None:
        if n_drones < 1:
            raise ValueError("a fleet needs at least one drone")
        self.environment = environment
        self.config = config or MissionConfig()
        self.n_drones = n_drones

        self.simulators: List[MissionSimulator] = []
        for drone_id in range(n_drones):
            if drone_id == 0:
                env, cfg = environment, self.config
            else:
                env = self._offset_environment(drone_id)
                cfg = replace(self.config, rng_seed=self.config.rng_seed + drone_id)
            self.simulators.append(
                MissionSimulator(env, runtime_factory(), cfg, faults=faults)
            )

    # ------------------------------------------------------------------
    # Formation
    # ------------------------------------------------------------------
    def _lateral_axis(self) -> Vec3:
        """Unit vector perpendicular (in the x-y plane) to start→goal."""
        axis = self.environment.goal - self.environment.start
        lateral = Vec3(-axis.y, axis.x, 0.0)
        norm = lateral.norm()
        if norm < 1e-9:
            return Vec3(0.0, 1.0, 0.0)
        return lateral * (1.0 / norm)

    def _formation_offset(self, drone_id: int) -> float:
        """Signed lateral offset of a drone: 0, +s, -s, +2s, -2s, …"""
        if drone_id == 0:
            return 0.0
        magnitude = (drone_id + 1) // 2
        sign = 1.0 if drone_id % 2 == 1 else -1.0
        return sign * magnitude * FORMATION_SPACING_M

    def _offset_environment(self, drone_id: int) -> GeneratedEnvironment:
        """Drone k's view of the shared world: shifted endpoints, same world."""
        shift = self._lateral_axis() * self._formation_offset(drone_id)
        start = self.environment.start + shift
        goal = self.environment.goal + shift
        return replace(
            self.environment, start=start, goal=goal, zone_map=ZoneMap(start, goal)
        )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(
        self,
        recorder: Optional["TraceRecorder"] = None,
        taps: Sequence = (),
    ) -> FleetResult:
        """Fly the fleet mission and return per-drone plus aggregate results."""
        return fly_epochs(self.simulators, recorder, taps)


def fly_epochs(
    simulators: Sequence[MissionSimulator],
    recorder: Optional["TraceRecorder"] = None,
    taps: Sequence = (),
) -> FleetResult:
    """Fly one drone per simulator in lock-stepped epochs until all finish.

    Drone k flies ``simulators[k]``'s environment, runtime and operator set
    (so its occupancy map persists across runs of that simulator); drone 0's
    environment is the shared one.  A drone finishes on collision, then
    goal, then the plan-failure streak, checked in that order after every
    epoch; the decision and mission-time caps of drone 0's config end the
    whole mission.  Peers occupy ``PEER_BOX_M`` boxes and come into conflict
    under ``CONFLICT_DISTANCE_M``; neither matters for one drone.

    Args:
        recorder: optional :class:`~repro.analysis.recorder.TraceRecorder`,
            attached to every drone's pipeline as a step observer; it emits
            one record per drone-decision plus the final mission record
            (with fleet fields only for two or more drones).
        taps: further passive observers (``repro.obs`` taps such as
            :class:`~repro.obs.tap.ObsTap`), attached the same way.
    """
    n = len(simulators)
    cfg = simulators[0].config
    world = simulators[0].environment.world
    clock = SimClock()
    log: List[tuple[str, str]] = []
    pipelines: List[DecisionPipeline] = []
    for drone_id, sim in enumerate(simulators):
        namespace = TopicNamespace() if n == 1 else TopicNamespace.for_drone(drone_id)
        pipeline = sim.build_pipeline(
            clock, log, namespace=namespace, drone_id=drone_id
        )
        if recorder is not None:
            pipeline.add_tap(recorder)
        for tap in taps:
            pipeline.add_tap(tap)
        pipelines.append(pipeline)

    distance = [0.0] * n
    collided = [False] * n
    reached = [False] * n
    finish_time: List[Optional[float]] = [None] * n
    last_outcome = [None] * n
    peer_marks = [np.empty(0, dtype=np.int64) for _ in range(n)]
    active = list(range(n))
    min_separation: Optional[float] = None
    airspace_conflicts = 0

    for epoch in range(cfg.max_decisions):
        if clock.now > cfg.max_mission_time_s:
            break
        if not active:
            break

        # Deterministic round-robin: each drone's decision runs to its end
        # before the next drone's starts.
        intervals = []
        for drone_id in active:
            if n > 1:
                _expose_peers(drone_id, active, pipelines, peer_marks)
            outcome = pipelines[drone_id].step(epoch)
            last_outcome[drone_id] = outcome
            distance[drone_id] += outcome.flown
            intervals.append(outcome.interval)
        clock.advance(max(intervals))

        if len(active) >= 2:
            positions = [pipelines[d].flight.state.position for d in active]
            epoch_min = min(
                a.distance_to(b) for a, b in itertools.combinations(positions, 2)
            )
            if min_separation is None or epoch_min < min_separation:
                min_separation = epoch_min
            if epoch_min < CONFLICT_DISTANCE_M:
                airspace_conflicts += 1

        # Per-drone termination: collision, then goal, then the plan-failure
        # streak.  Finished drones leave the airspace (peers stop seeing
        # them next epoch).
        for drone_id in list(active):
            outcome = last_outcome[drone_id]
            goal = simulators[drone_id].environment.goal
            done = False
            if outcome.hit:
                collided[drone_id] = True
                done = True
            elif outcome.state.position.distance_to(goal) <= cfg.goal_tolerance_m:
                reached[drone_id] = True
                done = True
            elif (
                pipelines[drone_id].planning.consecutive_plan_failures
                >= cfg.max_consecutive_plan_failures
            ):
                done = True
            if done:
                finish_time[drone_id] = clock.now
                active.remove(drone_id)

    for drone_id in range(n):
        if finish_time[drone_id] is None:
            finish_time[drone_id] = clock.now

    # Leave the shared world clean: no stale agent boxes or peer voxels.
    if n > 1:
        world.set_agent_obstacles([])
        for drone_id in range(n):
            if peer_marks[drone_id].size:
                pipelines[drone_id].flight.operators.octree.clear_cells(
                    peer_marks[drone_id]
                )

    drones = [
        _drone_result(
            simulators[drone_id],
            pipelines[drone_id],
            distance[drone_id],
            finish_time[drone_id],
            collided[drone_id],
            reached[drone_id],
        )
        for drone_id in range(n)
    ]
    per_drone = [drone.metrics for drone in drones]
    aggregate = _aggregate_metrics(drones)
    fleet = FleetMetrics(
        n_drones=n,
        completion_rate=sum(1 for m in per_drone if m.success) / n,
        collisions=sum(1 for hit in collided if hit),
        makespan_s=aggregate.mission_time_s,
        fleet_energy_kj=aggregate.energy_j / 1000.0,
        min_separation_m=min_separation,
        airspace_conflicts=airspace_conflicts,
    )
    if recorder is not None:
        if n > 1:
            recorder.on_mission_end(
                aggregate,
                fleet=fleet.as_dict(),
                drones=[m.as_dict() for m in per_drone],
            )
        else:
            recorder.on_mission_end(aggregate)
    return FleetResult(
        metrics=aggregate,
        fleet=fleet,
        drones=drones,
        environment=simulators[0].environment,
        design=aggregate.design,
        pipeline=pipelines[0],
    )


def _expose_peers(
    drone_id: int,
    active: List[int],
    pipelines: List[DecisionPipeline],
    peer_marks: List[np.ndarray],
) -> None:
    """Fold the other active drones into this drone's view of the world.

    Updates the shared world's agent obstacle layer (ground truth) and
    re-marks the peers' boxes into this drone's octree, clearing the
    previous epoch's footprints first.
    """
    size = Vec3(PEER_BOX_M, PEER_BOX_M, PEER_BOX_M)
    obstacles = [
        Obstacle(
            AABB.from_center(pipelines[peer].flight.state.position, size),
            name=f"drone_{peer}",
        )
        for peer in active
        if peer != drone_id
    ]
    pipeline = pipelines[drone_id]
    pipeline.environment.world.set_agent_obstacles(obstacles)
    octree = pipeline.flight.operators.octree
    if peer_marks[drone_id].size:
        octree.clear_cells(peer_marks[drone_id])
    marks = [octree.mark_box(obstacle.box) for obstacle in obstacles]
    # With every peer finished there is nothing to mark.
    peer_marks[drone_id] = np.concatenate(marks) if marks else np.empty(0, dtype=np.int64)


def _drone_result(
    sim: MissionSimulator,
    pipeline: DecisionPipeline,
    distance: float,
    mission_time: float,
    hit: bool,
    reached_goal: bool,
) -> MissionResult:
    """One drone's metrics and traces once the loop has ended."""
    traces = pipeline.traces
    busy = [t.compute_latency for t in traces]
    latencies = [t.end_to_end_latency for t in traces]
    mean_velocity = distance / mission_time if mission_time > 0 else 0.0
    energy = sim.energy_model.mission_energy(
        flight_time_s=mission_time,
        mean_speed=mean_velocity,
        compute_busy_s=sum(busy),
    )
    deadline_misses = sum(1 for t in traces if not t.deadline_met)
    metrics = MissionMetrics(
        design=sim.runtime.name,
        success=reached_goal and not hit,
        collided=hit,
        mission_time_s=mission_time,
        distance_travelled_m=distance,
        mean_velocity_mps=mean_velocity,
        energy_j=energy,
        mean_cpu_utilization=mean_utilization(busy, sim.config.sensor_period_s),
        decision_count=len(traces),
        median_latency_s=statistics.median(latencies) if latencies else 0.0,
        max_latency_s=max(latencies) if latencies else 0.0,
        deadline_miss_rate=deadline_misses / len(traces) if traces else 0.0,
        replan_count=sim.operators.plan_count,
    )
    return MissionResult(
        metrics=metrics,
        traces=traces,
        environment=sim.environment,
        design=sim.runtime.name,
        pipeline=pipeline,
    )


def _aggregate_metrics(drones: List[MissionResult]) -> MissionMetrics:
    """Fleet-aggregate MissionMetrics.

    Every fold collapses to the single drone's value at N=1 (sum/max/mean
    over one element, miss counts re-divided by the same decision count),
    which is what makes the aggregate a drop-in replacement for the
    single-drone metrics everywhere downstream.
    """
    per_drone = [drone.metrics for drone in drones]
    n = len(per_drone)
    total_decisions = sum(m.decision_count for m in per_drone)
    deadline_misses = sum(
        1 for drone in drones for t in drone.traces if not t.deadline_met
    )
    return MissionMetrics(
        design=per_drone[0].design,
        success=all(m.success for m in per_drone),
        collided=any(m.collided for m in per_drone),
        mission_time_s=max(m.mission_time_s for m in per_drone),
        distance_travelled_m=sum(m.distance_travelled_m for m in per_drone),
        mean_velocity_mps=sum(m.mean_velocity_mps for m in per_drone) / n,
        energy_j=sum(m.energy_j for m in per_drone),
        mean_cpu_utilization=sum(m.mean_cpu_utilization for m in per_drone) / n,
        decision_count=total_decisions,
        median_latency_s=sum(m.median_latency_s for m in per_drone) / n,
        max_latency_s=max(m.max_latency_s for m in per_drone),
        deadline_miss_rate=(
            deadline_misses / total_decisions if total_decisions else 0.0
        ),
        replan_count=sum(m.replan_count for m in per_drone),
    )
