"""The reduced map view handed from perception to planning.

RoboRun's perception→planning operators control both the *precision*
(sub-sampling the octree to a coarser resolution) and the *volume*
(pruning the tree to the cells nearest the drone) of the map the planner is
allowed to see.  :class:`PlanningView` is that reduced map: a set of occupied
grid cells at the chosen precision, bounded in total volume, with the
segment collision query the planner needs.

The view holds its cells as one sorted array of packed keys, the form the
octree keeps and the collision probe reads, so building it never unpacks,
re-packs or re-sorts them.  Because the cells live on a regular grid, a
collision query is one membership pass over the probed cells; the planner's
precision operator (its collision ray-cast step) directly controls how many
points each segment check probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.geometry.vec3 import Vec3
from repro.perception.octomap import OccupancyOctree, centre_distances_sq
from repro.perception.spatial_index import segment_hits_table


@dataclass(frozen=True, slots=True, eq=False)
class PlanningView:
    """An immutable snapshot of the map given to the planner.

    Attributes:
        precision: edge length of the occupied cells, metres.
        table: the sorted, unique packed keys of the occupied cells at
            ``precision`` (see :func:`~repro.geometry.grid.pack_keys`).
        total_volume: the occupied volume actually included, m^3.
    """

    precision: float
    table: np.ndarray
    total_volume: float

    def __len__(self) -> int:
        return int(self.table.shape[0])

    def segment_in_collision(
        self,
        start: Vec3,
        end: Vec3,
        margin: float = 0.0,
        ray_step: Optional[float] = None,
    ) -> bool:
        """Collision test for a straight segment against the occupied cells.

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
        return segment_hits_table(
            self.table, self.precision, start, end, ray_step, margin
        )


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
    table = octree.coarse_occupied_keys(precision)
    total = 0.0
    if table.shape[0]:
        d_sq = centre_distances_sq(table, resolution, anchor)
        if region_radius is not None:
            kept = d_sq <= region_radius * region_radius
            table = table[kept]
            d_sq = d_sq[kept]
    if table.shape[0]:
        # Cells are taken nearest first, always at least one, until the
        # running total (one += cell_volume per cell) reaches the budget, so
        # how many are taken depends only on how many there are.
        count = table.shape[0]
        running = np.cumsum(np.full(count, resolution**3))
        taken = count
        if max_volume is not None:
            taken = min(count, int(np.searchsorted(running, max_volume, side="left")) + 1)
        if taken < count:
            # Only a binding budget ranks the cells.  The table is in
            # lexicographic key order, so the stable sort gives a tie in
            # distance to the smaller key, and the view depends only on
            # which voxels are occupied.  Ties are judged on the rounded
            # distance, as Vec3.distance_to gives it.
            nearest = np.argsort(np.sqrt(d_sq), kind="stable")[:taken]
            table = table[np.sort(nearest)]
        total = float(running[taken - 1])

    return PlanningView(precision=resolution, table=table, total_volume=total)
