"""The reduced map view handed from perception to planning.

RoboRun's perception→planning operators control both the *precision*
(sub-sampling the octree to a coarser resolution) and the *volume*
(pruning the tree to the cells nearest the drone) of the map the planner is
allowed to see.  :class:`PlanningView` is that reduced map: a set of occupied
grid cells at the chosen precision, bounded in total volume, with the
collision queries the planner needs.

Because the cells live on a regular grid, collision queries are O(1) set
lookups per probed point; the planner's precision operator (its collision
ray-cast step) directly controls how many points each segment check probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

import numpy as np

from repro.geometry.aabb import AABB
from repro.geometry.grid import VoxelKey, voxel_center
from repro.geometry.vec3 import Vec3
from repro.perception.octomap import OccupancyOctree
from repro.perception.spatial_index import (
    cell_margin_radius,
    point_hits_cells,
    segment_hits_cells,
)


@dataclass(frozen=True, slots=True)
class PlanningView:
    """An immutable snapshot of the map given to the planner.

    Attributes:
        precision: edge length of the occupied cells, metres.
        cells: occupied cell keys at ``precision``.
        volume_budget: the volume cap applied when building the view (``None``
            when unbounded).
        total_volume: the occupied volume actually included, m^3.
    """

    precision: float
    cells: FrozenSet[VoxelKey]
    volume_budget: Optional[float]
    total_volume: float

    def __len__(self) -> int:
        return len(self.cells)

    def is_empty(self) -> bool:
        """True when the planner sees no obstacles."""
        return not self.cells

    @property
    def boxes(self) -> Tuple[AABB, ...]:
        """The occupied cells as axis-aligned boxes (for analysis/plotting)."""
        return tuple(
            AABB.cube(voxel_center(key, self.precision), self.precision)
            for key in self.cells
        )

    # ------------------------------------------------------------------
    # Collision queries
    # ------------------------------------------------------------------
    def _neighbour_radius(self, margin: float) -> int:
        return cell_margin_radius(margin, self.precision)

    def point_in_collision(self, point: Vec3, margin: float = 0.0) -> bool:
        """True when a point lies inside (or within margin of) an occupied cell.

        The margin is applied in grid space (rounded to whole cells and capped
        at two cells) so that the check stays a handful of set lookups.
        """
        return point_hits_cells(self.cells, self.precision, point, margin)

    def segment_in_collision(
        self,
        start: Vec3,
        end: Vec3,
        margin: float = 0.0,
        ray_step: Optional[float] = None,
    ) -> bool:
        """Collision test for a straight segment against the occupied cells.

        Delegates to the spatial-index segment primitive, which probes the
        segment on raw scalars instead of materialising a point per sample.

        Args:
            start: segment start.
            end: segment end.
            margin: obstacle inflation, metres (grid-space, capped at 2 cells).
            ray_step: sampling step of the collision ray cast — the *planning
                precision operator* ("planning precision is enforced by
                modifying the raytracer, similar to OctoMap", §III-B).  When
                ``None`` the view's own cell size is used, i.e. the exact
                resolution of the map the planner was given.  Steps wider than
                a cell are clamped so thin obstacles are never skipped.
        """
        return segment_hits_cells(
            self.cells, self.precision, start, end, ray_step, margin
        )

    def nearest_obstacle_distance(self, point: Vec3, default: float = 100.0) -> float:
        """Distance from a point to the nearest occupied cell centre."""
        best_sq = default * default
        for key in self.cells:
            center = voxel_center(key, self.precision)
            dx = center.x - point.x
            dy = center.y - point.y
            dz = center.z - point.z
            d_sq = dx * dx + dy * dy + dz * dz
            if d_sq < best_sq:
                best_sq = d_sq
        return math.sqrt(best_sq)

    def bounding_box(self) -> Optional[AABB]:
        """The AABB containing every occupied cell, or None when empty."""
        if not self.cells:
            return None
        boxes = self.boxes
        result = boxes[0]
        for box in boxes[1:]:
            result = result.union(box)
        return result


def build_planning_view(
    octree: OccupancyOctree,
    precision: float,
    max_volume: Optional[float] = None,
    focus: Optional[Vec3] = None,
    region_radius: Optional[float] = None,
) -> PlanningView:
    """Build the reduced planner map from the occupancy octree.

    The octree's occupied voxels are aggregated to ``precision`` (a
    power-of-two multiple of the minimum voxel size) and, when ``max_volume``
    is given, only the cells closest to ``focus`` are kept until the volume
    budget is consumed.

    Args:
        octree: the perception-stage occupancy map.
        precision: requested planner map resolution, metres.
        max_volume: perception→planning volume budget, m^3 (``None`` = all).
        focus: prioritisation point for the volume pruning; defaults to the
            origin, but the runtime passes the drone's current position.
        region_radius: when given, cells further than this from ``focus`` are
            dropped before the volume budget is applied (a cheap broad-phase
            bound that keeps the planner's map local to the drone).
    """
    if precision <= 0:
        raise ValueError("planning view precision must be positive")
    anchor = focus if focus is not None else Vec3.zero()

    level = octree.coarsen_level_for(precision)
    resolution = octree.vox_min * (2**level)
    cell_volume = resolution**3

    candidates = list(octree.coarse_occupied_cells(precision).keys())
    if candidates:
        # Region filter, then a stable sort by distance to the anchor.  Cell
        # centres are (i + 0.5) * resolution exactly as voxel_center computes
        # them, both distances use Vec3's left-to-right squared sum, and the
        # stable argsort keeps the candidates' order among equal distances.
        keys = np.array(candidates, dtype=np.int64)
        centres = (keys + 0.5) * resolution
        a = np.array((anchor.x, anchor.y, anchor.z))
        if region_radius is not None:
            d = centres - a
            d_sq = (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2]
            mask = d_sq <= region_radius * region_radius
            kept = np.flatnonzero(mask)
            candidates = [candidates[i] for i in kept]
            centres = centres[kept]
        d = a - centres
        dist = np.sqrt((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2])
        order = np.argsort(dist, kind="stable")
        candidates = [candidates[i] for i in order]

    selected: List[VoxelKey] = []
    total = 0.0
    for key in candidates:
        if max_volume is not None and total >= max_volume and selected:
            break
        selected.append(key)
        total += cell_volume

    return PlanningView(
        precision=resolution,
        cells=frozenset(selected),
        volume_budget=max_volume,
        total_volume=total,
    )
