"""The reduced map view handed from perception to planning.

RoboRun's perception→planning operators control both the *precision*
(sub-sampling the octree to a coarser resolution) and the *volume*
(pruning the tree to the cells nearest the drone) of the map the planner is
allowed to see.  :class:`PlanningView` is that reduced map: a set of occupied
grid cells at the chosen precision, bounded in total volume, with the
segment collision query the planner needs.

The view is built every decision but read by the planner only on the
decisions that plan, so it holds its cells as a key array and builds the
``frozenset`` its scalar collision queries use on first access.  Because the
cells live on a regular grid, collision queries are O(1) set lookups per
probed point; the planner's precision operator (its collision ray-cast step)
directly controls how many points each segment check probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional

import numpy as np

from repro.geometry.grid import VoxelKey
from repro.geometry.vec3 import Vec3
from repro.perception.octomap import OccupancyOctree
from repro.perception.spatial_index import segment_hits_cells


@dataclass(frozen=True, slots=True, eq=False)
class PlanningView:
    """An immutable snapshot of the map given to the planner.

    Attributes:
        precision: edge length of the occupied cells, metres.
        keys: the ``(K, 3)`` occupied cell keys at ``precision``, nearest to
            the view's focus first.
        volume_budget: the volume cap applied when building the view (``None``
            when unbounded).
        total_volume: the occupied volume actually included, m^3.
    """

    precision: float
    keys: np.ndarray
    volume_budget: Optional[float]
    total_volume: float
    _cells: Optional[FrozenSet[VoxelKey]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def cells(self) -> FrozenSet[VoxelKey]:
        """The occupied cell keys as a set of tuples, built on first access."""
        cells = self._cells
        if cells is None:
            cells = frozenset(map(tuple, self.keys.tolist()))
            object.__setattr__(self, "_cells", cells)
        return cells

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    def is_empty(self) -> bool:
        """True when the planner sees no obstacles."""
        return self.keys.shape[0] == 0

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

    # Candidates come in lexicographic key order, so equally distant cells
    # keep that order through the stable sort and the view depends only on
    # which voxels are occupied, never on the order they were marked in.
    keys = octree.coarse_occupied_keys(precision)
    total = 0.0
    if keys.shape[0]:
        # Region filter, then a stable sort by distance to the anchor.  Cell
        # centres are (i + 0.5) * resolution exactly as voxel_center computes
        # them, and both distances use Vec3's left-to-right squared sum.
        centres = (keys + 0.5) * resolution
        a = np.array((anchor.x, anchor.y, anchor.z))
        if region_radius is not None:
            d = centres - a
            d_sq = (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2]
            kept = d_sq <= region_radius * region_radius
            keys = keys[kept]
            centres = centres[kept]
        d = a - centres
        dist = np.sqrt((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2])
        keys = keys[np.argsort(dist, kind="stable")]
    if keys.shape[0]:
        # Cells are taken nearest first, always at least one, until the
        # running total (one += cell_volume per cell) reaches the budget.
        running = np.cumsum(np.full(keys.shape[0], cell_volume))
        if max_volume is not None:
            keys = keys[: int(np.searchsorted(running, max_volume, side="left")) + 1]
        total = float(running[keys.shape[0] - 1])

    return PlanningView(
        precision=resolution,
        keys=keys,
        volume_budget=max_volume,
        total_volume=total,
    )
