"""Outside-in layer tracing: wrap the program's public functions from here.

The benchmark never edits ``src/``.  To see where host time goes it swaps
selected public functions and methods of the ``repro`` modules for timing
wrappers while a traced pass runs, then puts the originals back.  A stack of
open spans gives every layer both its inclusive time and its self time (the
part not covered by a wrapped callee), plus a call count and the work counts
read off the wrapped calls' return values.

Functions that a module imported by name (``build_planning_view`` in
``repro.core.operators``, ``build_environment`` in
``repro.simulation.scenario``) are wrapped at that import site, because that
is the name the caller looks up.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (work-count name, function of the wrapped call's return value)
WorkCount = Tuple[str, Callable[[Any], float]]


@dataclass
class SpanTotals:
    """Accumulated timings of one layer name."""

    calls: int = 0
    inclusive_ns: int = 0
    self_ns: int = 0


class LayerTracer:
    """Installs timing wrappers and accumulates per-layer self/inclusive time.

    Use as a context manager: the wrappers are installed on entry and the
    original attributes restored on exit, even when the traced pass raises.
    """

    def __init__(self) -> None:
        self.spans: Dict[str, SpanTotals] = defaultdict(SpanTotals)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []  # [name, start_ns, child_ns] per open span
        self._patches: List[Tuple[Any, str, Any]] = []

    def inside(self, name: str) -> bool:
        """True while a span of this layer is open on the stack."""
        return any(frame[0] == name for frame in self._stack)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        counters: Tuple[WorkCount, ...] = (),
        unless_inside: Optional[str] = None,
    ) -> None:
        """Replace ``owner.attr`` (a plain function) with a timing wrapper.

        ``unless_inside`` names a layer whose open span makes this call part
        of that layer: the call then runs untimed and its time stays in the
        enclosing span's self time.
        """
        original = vars(owner)[attr]
        stack, spans, counts = self._stack, self.spans, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if unless_inside is not None and self.inside(unless_inside):
                return original(*args, **kwargs)
            frame = [name, clock(), 0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = clock() - frame[1]
                totals = spans[name]
                totals.calls += 1
                totals.inclusive_ns += elapsed
                totals.self_ns += elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed
            for count_name, count in counters:
                counts[count_name] += count(result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def __enter__(self) -> "LayerTracer":
        install_layer_wrappers(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- read-out ------------------------------------------------------------
    def self_ms(self, name: str) -> float:
        return self.spans[name].self_ns / 1e6 if name in self.spans else 0.0

    def inclusive_s(self, name: str) -> float:
        return self.spans[name].inclusive_ns / 1e9 if name in self.spans else 0.0

    def calls(self, name: str) -> int:
        return self.spans[name].calls if name in self.spans else 0


def install_layer_wrappers(tracer: LayerTracer) -> None:
    """Wrap every layer boundary the benchmark reports, module by module."""
    import repro.core.operators as operators_module
    import repro.simulation.scenario as scenario_module
    from repro.analysis.io import TraceWriter
    from repro.control.follower import PurePursuitFollower
    from repro.core.baseline import SpatialObliviousRuntime
    from repro.core.profilers import ProfilerSuite
    from repro.core.runtime import RoboRunRuntime
    from repro.dynamics.drone import QuadrotorKinematics
    from repro.environment.world import World
    from repro.perception.octomap import OccupancyOctree
    from repro.perception.point_cloud import PointCloudKernel
    from repro.planning.rrt_star import RRTStarPlanner
    from repro.planning.smoothing import PathSmoother
    from repro.sensors.rig import CameraRig
    from repro.simulation.fleet import FleetSimulator
    from repro.simulation.mission import MissionSimulator
    from repro.simulation.pipeline import DecisionPipeline
    from repro.worlds.movers import DynamicObstacleSet

    wrap = tracer.wrap
    # simulation + middleware: one span per drone-decision cascade.
    wrap(DecisionPipeline, "step", "simulation.step")
    # sensors
    wrap(CameraRig, "capture", "sensors.capture",
         (("sensors.capture.rays", lambda scan: scan.total_pixels()),))
    # worlds and environment
    wrap(scenario_module, "build_environment", "worlds.build")
    # The epoch-0 placement inside a world build belongs to the build.
    wrap(DynamicObstacleSet, "step", "worlds.movers_step",
         unless_inside="worlds.build")
    wrap(World, "is_occupied", "environment.collision")
    wrap(World, "segment_collides", "environment.collision")
    # perception
    wrap(PointCloudKernel, "process", "perception.point_cloud",
         (("perception.point_cloud.points", len),))
    wrap(OccupancyOctree, "insert_point_cloud", "perception.octomap_insert",
         (("perception.octomap_insert.cells",
           lambda stats: int(stats["cells_updated"])),))
    wrap(OccupancyOctree, "forget_beyond", "perception.octomap_forget")
    wrap(operators_module, "build_planning_view", "perception.planning_view",
         (("perception.planning_view.cells", len),))
    wrap(OccupancyOctree, "segment_occupied", "perception.segment_probe")
    wrap(OccupancyOctree, "segment_occupied_batch", "perception.segment_probe")
    # core: profilers and the two runtimes' governors
    wrap(ProfilerSuite, "profile", "core.profile")
    wrap(RoboRunRuntime, "decide", "core.decide")
    wrap(SpatialObliviousRuntime, "decide", "core.decide")
    # planning
    wrap(RRTStarPlanner, "plan", "planning.rrt", (
        ("planning.rrt.iterations", lambda plan: plan.iterations),
        ("planning.rrt.collision_samples", lambda plan: plan.collision_samples),
        ("planning.rrt.successes", lambda plan: int(plan.success)),
    ))
    wrap(PathSmoother, "smooth", "planning.smooth")
    # control and dynamics
    wrap(PurePursuitFollower, "velocity_command", "control.follow")
    wrap(QuadrotorKinematics, "step", "control.follow")
    # fleet peer folding: the agent layer plus octree re-marks that are not
    # the movers' own re-marks (those stay inside worlds.movers_step).
    wrap(World, "set_agent_obstacles", "fleet.peer_fold")
    wrap(OccupancyOctree, "mark_box", "fleet.peer_fold",
         unless_inside="worlds.movers_step")
    wrap(OccupancyOctree, "clear_cells", "fleet.peer_fold",
         unless_inside="worlds.movers_step")
    # campaign phases (serial traced campaign only)
    wrap(MissionSimulator, "run", "campaign.flight")
    wrap(FleetSimulator, "run", "campaign.flight")
    wrap(TraceWriter, "write", "campaign.trace_write")
    wrap(TraceWriter, "close", "campaign.trace_close")


#: Campaign-level layers; they read 0 on the mission workloads.
CAMPAIGN_LAYERS = (
    "campaign.worker_idle_share",
    "campaign.spec_s.max",
    "campaign.tail.s",
    "campaign.retries",
    "campaign.worldgen.s",
    "campaign.flight.s",
    "campaign.trace_io.s",
    "campaign.trace.bytes",
)


def layer_metrics(tracer: LayerTracer, epochs: int) -> Dict[str, float]:
    """Per-layer host self-ms per drone-decision, plus exact work counts."""
    decisions = tracer.calls("simulation.step")
    counts = tracer.counts

    def per_decision(name: str) -> float:
        return tracer.self_ms(name) / decisions

    plans = tracer.calls("planning.rrt")
    step = tracer.spans["simulation.step"]
    return {
        "sensors.capture.ms": per_decision("sensors.capture"),
        "sensors.capture.rays": counts["sensors.capture.rays"],
        "worlds.build.ms": per_decision("worlds.build"),
        "worlds.movers_step.ms": per_decision("worlds.movers_step"),
        "worlds.movers_step.calls_per_epoch": tracer.calls("worlds.movers_step") / epochs,
        "environment.collision.ms": per_decision("environment.collision"),
        "environment.collision.calls": float(tracer.calls("environment.collision")),
        "perception.point_cloud.ms": per_decision("perception.point_cloud"),
        "perception.point_cloud.points": counts["perception.point_cloud.points"],
        "perception.octomap_insert.ms": per_decision("perception.octomap_insert"),
        "perception.octomap_insert.cells": counts["perception.octomap_insert.cells"],
        "perception.octomap_forget.ms": per_decision("perception.octomap_forget"),
        "perception.planning_view.ms": per_decision("perception.planning_view"),
        "perception.planning_view.cells": counts["perception.planning_view.cells"],
        "perception.segment_probe.ms": per_decision("perception.segment_probe"),
        "perception.segment_probe.calls": float(tracer.calls("perception.segment_probe")),
        "core.profile.ms": per_decision("core.profile"),
        "core.decide.ms": per_decision("core.decide"),
        "planning.rrt.ms": per_decision("planning.rrt"),
        "planning.rrt.iterations": counts["planning.rrt.iterations"],
        "planning.rrt.collision_samples": counts["planning.rrt.collision_samples"],
        "planning.rrt.success_ratio": counts["planning.rrt.successes"] / plans if plans else 0.0,
        "planning.smooth.ms": per_decision("planning.smooth"),
        "control.follow.ms": per_decision("control.follow"),
        "fleet.peer_fold.ms": per_decision("fleet.peer_fold"),
        "simulation.step_self.ms": per_decision("simulation.step"),
        "simulation.unattributed_share": step.self_ns / step.inclusive_ns,
        "simulation.decisions": float(decisions),
    }


def campaign_phase_metrics(tracer: LayerTracer) -> Dict[str, float]:
    """Serial campaign phases: worldgen, flight (minus its trace writes), trace IO."""
    writes = tracer.inclusive_s("campaign.trace_write")
    return {
        "campaign.worldgen.s": tracer.inclusive_s("worlds.build"),
        "campaign.flight.s": tracer.inclusive_s("campaign.flight") - writes,
        "campaign.trace_io.s": writes + tracer.inclusive_s("campaign.trace_close"),
    }
