"""Per-operation compute costs.

The mission simulator needs a latency for every kernel invocation.  Rather
than inventing latencies directly, each kernel reports the *work* it actually
did (how many pixels were converted, how many map cells were touched, how many
planner iterations ran) and :class:`WorkloadCostModel` converts that work into
seconds.  This keeps latency causally tied to the knobs: lowering precision
really does reduce the number of cells touched, which is what reduces the
charged latency — the same causal chain the paper exploits.

Default constants are calibrated so that the static baseline configuration
(Table II: 0.3 m precision, 46 000 m³ map volume) produces end-to-end decision
latencies of a few seconds, matching Figure 11's baseline traces, while the
fixed point-cloud conversion cost is ~210 ms and RoboRun's own overhead is
~50 ms as reported in §V-C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True, slots=True)
class KernelWork:
    """Work performed by the pipeline during one decision.

    All counts are plain operation counts reported by the kernels themselves;
    zero is always a valid value (a kernel that did not run did no work).
    """

    pixels_converted: int = 0
    cloud_points: int = 0
    map_cells_updated: int = 0
    map_occupied_cells: int = 0
    view_cells: int = 0
    planner_iterations: int = 0
    planner_nodes: int = 0
    planner_collision_samples: int = 0
    smoother_waypoints: int = 0
    messages_sent: int = 0
    message_payload_items: int = 0

    def __post_init__(self) -> None:
        for name in (
            "pixels_converted",
            "cloud_points",
            "map_cells_updated",
            "map_occupied_cells",
            "view_cells",
            "planner_iterations",
            "planner_nodes",
            "planner_collision_samples",
            "smoother_waypoints",
            "messages_sent",
            "message_payload_items",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")


@dataclass(frozen=True, slots=True)
class WorkloadCostModel:
    """Converts kernel work counts into per-stage latencies (seconds).

    Attributes:
        point_cloud_fixed_s: fixed cost of the point-cloud kernel per decision
            (the paper reports a ~210 ms fixed point-cloud latency for both
            designs).
        point_cloud_per_pixel_s: additional cost per camera pixel converted.
        octomap_per_cell_s: cost per occupancy cell updated during insertion.
        view_per_cell_s: cost per cell placed in the perception→planning view
            (sub-sampling, pruning and serialisation of the tree).
        planner_per_iteration_s: fixed cost per RRT* sampling iteration
            (sampling, nearest-neighbour search).
        planner_per_node_s: additional cost per tree node (rewiring work).
        planner_per_sample_s: cost per collision ray-cast sample — the term the
            planning precision knob controls (a finer ray step probes more
            samples per segment).
        smoother_per_waypoint_s: cost per waypoint processed by the smoother.
        runtime_overhead_s: RoboRun's own per-decision cost (profilers,
            governor, solver); the paper reports ~50 ms.
        comm_per_message_s: fixed cost per message exchanged between nodes.
        comm_per_item_s: cost per payload item (point, cell, waypoint)
            serialised.
    """

    point_cloud_fixed_s: float = 0.210
    point_cloud_per_pixel_s: float = 2.0e-5
    octomap_per_cell_s: float = 9.0e-5
    view_per_cell_s: float = 6.0e-5
    planner_per_iteration_s: float = 2.0e-4
    planner_per_node_s: float = 3.0e-4
    planner_per_sample_s: float = 3.0e-5
    smoother_per_waypoint_s: float = 5.0e-4
    runtime_overhead_s: float = 0.050
    comm_per_message_s: float = 5.0e-3
    comm_per_item_s: float = 2.0e-6

    def __post_init__(self) -> None:
        for name in (
            "point_cloud_fixed_s",
            "point_cloud_per_pixel_s",
            "octomap_per_cell_s",
            "view_per_cell_s",
            "planner_per_iteration_s",
            "planner_per_node_s",
            "planner_per_sample_s",
            "smoother_per_waypoint_s",
            "runtime_overhead_s",
            "comm_per_message_s",
            "comm_per_item_s",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")

    # ------------------------------------------------------------------
    # Per-stage latencies
    # ------------------------------------------------------------------
    def point_cloud_latency(self, work: KernelWork) -> float:
        """Latency of the point-cloud kernel for one decision."""
        return self.point_cloud_fixed_s + self.point_cloud_per_pixel_s * work.pixels_converted

    def octomap_latency(self, work: KernelWork) -> float:
        """Latency of the OctoMap insertion for one decision."""
        return self.octomap_per_cell_s * work.map_cells_updated

    def perception_to_planning_latency(self, work: KernelWork) -> float:
        """Latency of building the reduced planner view."""
        return self.view_per_cell_s * work.view_cells

    def planning_latency(self, work: KernelWork) -> float:
        """Latency of the RRT* piece-wise planner."""
        return (
            self.planner_per_iteration_s * work.planner_iterations
            + self.planner_per_node_s * work.planner_nodes
            + self.planner_per_sample_s * work.planner_collision_samples
        )

    def smoothing_latency(self, work: KernelWork) -> float:
        """Latency of the path smoother."""
        return self.smoother_per_waypoint_s * work.smoother_waypoints

    def runtime_latency(self, spatial_aware: bool) -> float:
        """RoboRun's own overhead (zero for the spatial-oblivious baseline)."""
        return self.runtime_overhead_s if spatial_aware else 0.0

    def communication_latency(self, work: KernelWork) -> float:
        """Total communication latency for one decision."""
        return (
            self.comm_per_message_s * work.messages_sent
            + self.comm_per_item_s * work.message_payload_items
        )

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def stage_latencies(self, work: KernelWork, spatial_aware: bool) -> Dict[str, float]:
        """Latency per canonical pipeline stage for one decision.

        Keys match :data:`repro.middleware.latency.ALL_STAGES`, with the
        communication total split evenly across the comm stages so Figure 11's
        stacked breakdown has the same structure as the paper's.
        """
        comm_total = self.communication_latency(work)
        comm_share = comm_total / 4.0
        return {
            "point_cloud": self.point_cloud_latency(work),
            "octomap": self.octomap_latency(work),
            "perception_to_planning": self.perception_to_planning_latency(work),
            "piecewise_planning": self.planning_latency(work),
            "path_smoothing": self.smoothing_latency(work),
            "runtime": self.runtime_latency(spatial_aware),
            "comm_point_cloud": comm_share,
            "comm_octomap": comm_share,
            "comm_planning": comm_share,
            "comm_control": comm_share,
        }

    def end_to_end_latency(self, work: KernelWork, spatial_aware: bool) -> float:
        """Total decision latency (compute plus communication)."""
        return sum(self.stage_latencies(work, spatial_aware).values())
