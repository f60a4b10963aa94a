"""Precision and volume operators.

"Operators enforce the precision and volume policies" (§III-B).  The paper
defines six knobs across three stages; each maps to a concrete parameter of a
pipeline kernel in this reproduction:

===================================  ==========================================
Paper operator                        Enforcement here
===================================  ==========================================
Point-cloud precision                 grid-average cell size of
                                      :class:`~repro.perception.point_cloud.PointCloudKernel`
OctoMap precision                     step size of the free-space ray caster in
                                      :meth:`OccupancyOctree.insert_point_cloud`
Perception→planning precision         coarsening resolution of
                                      :func:`~repro.perception.planning_view.build_planning_view`
Planning precision                    collision ray-cast step of the RRT* planner
OctoMap volume                        insertion volume budget (points sorted by
                                      distance to the trajectory)
Perception→planning volume            volume budget of the planning view (cells
                                      sorted by proximity)
Planner volume                        the RRT* volume monitor that stops search
===================================  ==========================================

:class:`OperatorSet` owns the pipeline kernels, applies a
:class:`~repro.core.policy.KnobPolicy` to each invocation and reports the work
each kernel actually performed so the compute model can charge its latency.

The occupancy map keeps its voxels as sorted arrays of packed keys: the
coarsening behind :func:`~repro.perception.planning_view.build_planning_view`
is one sort of the shifted keys (:func:`~repro.perception.spatial_index.unique_keys`),
and the per-decision locality eviction (:meth:`OccupancyOctree.forget_beyond`)
is one vectorised distance filter, skipped when no cell can go, so the
Python-side enforcement cost tracks the *local* map rather than mission
length — only the charged (modelled) cost follows the knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.compute.costs import KernelWork
from repro.core.policy import KnobPolicy
from repro.geometry.aabb import AABB
from repro.geometry.vec3 import Vec3
from repro.perception.octomap import OccupancyOctree
from repro.perception.planning_view import PlanningView, build_planning_view
from repro.perception.point_cloud import PointCloud, PointCloudKernel
from repro.planning.rrt_star import PlanResult, RRTStarPlanner
from repro.planning.smoothing import PathSmoother
from repro.planning.trajectory import Trajectory
from repro.sensors.rig import RigScan


@dataclass
class PerceptionOutput:
    """Result of the perception stage for one decision."""

    cloud: PointCloud
    insert_stats: dict
    work: KernelWork


@dataclass
class PlanningOutput:
    """Result of the planning stage for one decision."""

    view: PlanningView
    plan: Optional[PlanResult]
    trajectory: Optional[Trajectory]
    work: KernelWork


class OperatorSet:
    """Applies knob policies to the navigation pipeline's kernels.

    The operators are the enforcement half of the governor's decisions: per
    decision they run the point-cloud and OctoMap kernels at the policy's
    precisions (voxel edges in metres) and volume budgets (cubic metres),
    build the planner's coarsened map view, and run RRT* + smoothing inside
    the allowed planning volume.  The set owns the long-lived pipeline
    state — the occupancy octree and the planner's RNG — so repeated
    missions over the same operators share one map, and tracks
    ``plan_count`` (the number of piece-wise planner invocations reported
    in the mission metrics).
    """

    def __init__(
        self,
        point_cloud_kernel: Optional[PointCloudKernel] = None,
        octree: Optional[OccupancyOctree] = None,
        planner: Optional[RRTStarPlanner] = None,
        smoother: Optional[PathSmoother] = None,
        planner_seed: int = 0,
        local_map_radius: float = 120.0,
    ) -> None:
        if local_map_radius <= 0:
            raise ValueError("local map radius must be positive")
        self.point_cloud_kernel = point_cloud_kernel or PointCloudKernel()
        self.octree = octree or OccupancyOctree(vox_min=0.3, levels=6)
        self.planner = planner or RRTStarPlanner()
        self.smoother = smoother or PathSmoother()
        self.planner_seed = planner_seed
        self.local_map_radius = local_map_radius
        self._plan_count = 0

    # ------------------------------------------------------------------
    # Perception stage (point cloud + OctoMap)
    # ------------------------------------------------------------------
    def run_perception(
        self,
        scan: RigScan,
        policy: KnobPolicy,
        focus: Optional[Vec3] = None,
    ) -> PerceptionOutput:
        """Run the point-cloud and OctoMap kernels under the given policy.

        Args:
            scan: the raw sensor rig capture.
            policy: the knob assignment for this decision.
            focus: prioritisation point for the OctoMap volume operator
                (the nearest trajectory point, or the drone position).
        """
        cloud = self.point_cloud_kernel.process(
            scan, resolution=policy.point_cloud_precision
        )
        insert_stats = self.octree.insert_point_cloud(
            cloud,
            ray_step=max(policy.point_cloud_precision, self.octree.vox_min),
            max_volume=policy.octomap_volume,
            focus=focus if focus is not None else scan.position,
        )
        # Keep the map local so its cost tracks the volume knob rather than
        # mission length.
        self.octree.forget_beyond(scan.position, self.local_map_radius)

        work = KernelWork(
            pixels_converted=scan.total_pixels(),
            cloud_points=len(cloud),
            map_cells_updated=int(insert_stats.get("cells_updated", 0)),
            map_occupied_cells=self.octree.occupied_voxel_count(),
            messages_sent=2,
            message_payload_items=len(cloud),
        )
        return PerceptionOutput(cloud=cloud, insert_stats=insert_stats, work=work)

    # ------------------------------------------------------------------
    # Perception→planning and planning stages
    # ------------------------------------------------------------------
    def run_planning(
        self,
        policy: KnobPolicy,
        start: Vec3,
        goal: Vec3,
        bounds: AABB,
        replan: bool,
        previous_trajectory: Optional[Trajectory],
        start_time: float,
        velocity_cap: float,
    ) -> PlanningOutput:
        """Build the planner view and (re)plan/smooth under the given policy.

        Args:
            policy: the knob assignment for this decision.
            start: the drone's current position.
            goal: the mission goal.
            bounds: the planner's sampling region.
            replan: when False and a previous trajectory exists, planning is
                skipped and only the view is rebuilt (the common fast path).
            previous_trajectory: the trajectory currently being tracked.
            start_time: simulated time at which the new trajectory starts.
            velocity_cap: velocity limit the smoother must respect.
        """
        view = build_planning_view(
            self.octree,
            precision=policy.map_to_planner_precision,
            max_volume=policy.map_to_planner_volume,
            focus=start,
            region_radius=self.local_map_radius,
        )
        view_work = KernelWork(
            view_cells=len(view),
            messages_sent=1,
            message_payload_items=len(view),
        )

        if not replan and previous_trajectory is not None:
            return PlanningOutput(
                view=view, plan=None, trajectory=previous_trajectory, work=view_work
            )

        self._plan_count += 1
        plan_config = replace(
            self.planner.config,
            collision_ray_step=policy.planning_precision,
            max_explored_volume=policy.planner_volume,
            seed=self.planner_seed + self._plan_count,
        )
        plan = self.planner.plan(start, goal, view, bounds, config=plan_config)

        trajectory = previous_trajectory
        smoother_waypoints = 0
        if plan.success:
            trajectory = self.smoother.smooth(
                plan.waypoints,
                start_time=start_time,
                view=view,
                max_velocity=velocity_cap,
            )
            smoother_waypoints = len(plan.waypoints)

        work = KernelWork(
            view_cells=view_work.view_cells,
            planner_iterations=plan.iterations,
            planner_nodes=plan.nodes_expanded,
            planner_collision_samples=plan.collision_samples,
            smoother_waypoints=smoother_waypoints,
            messages_sent=view_work.messages_sent + 2,
            message_payload_items=view_work.message_payload_items
            + len(plan.waypoints),
        )
        return PlanningOutput(view=view, plan=plan, trajectory=trajectory, work=work)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def plan_count(self) -> int:
        """How many times the piece-wise planner has been invoked."""
        return self._plan_count


def merge_work(*parts: KernelWork) -> KernelWork:
    """Sum the work counts of several pipeline fragments into one decision."""
    return KernelWork(
        pixels_converted=sum(p.pixels_converted for p in parts),
        cloud_points=sum(p.cloud_points for p in parts),
        map_cells_updated=sum(p.map_cells_updated for p in parts),
        map_occupied_cells=max((p.map_occupied_cells for p in parts), default=0),
        view_cells=sum(p.view_cells for p in parts),
        planner_iterations=sum(p.planner_iterations for p in parts),
        planner_nodes=sum(p.planner_nodes for p in parts),
        planner_collision_samples=sum(p.planner_collision_samples for p in parts),
        smoother_waypoints=sum(p.smoother_waypoints for p in parts),
        messages_sent=sum(p.messages_sent for p in parts),
        message_payload_items=sum(p.message_payload_items for p in parts),
    )
