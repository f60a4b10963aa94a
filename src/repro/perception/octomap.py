"""An occupancy octree — the OctoMap substitute.

"The OctoMap kernel then accumulates these point clouds into a 3D map and
encodes them in a tree data structure where each leaf is a voxel" (§III-A).
This module provides :class:`OccupancyOctree`, a pure-Python occupancy map
with the specific hooks RoboRun's operators require:

* **OctoMap precision operator** — the insertion ray caster's *step size* is a
  parameter of :meth:`OccupancyOctree.insert_point_cloud`; a larger step
  visits fewer cells (cheaper, coarser free-space carving).
* **OctoMap volume operator** — insertion accepts a volume budget: points are
  sorted by distance to the drone's position/trajectory and integrated one by
  one until the newly added volume exceeds the budget ("sorted points are
  integrated one by one until their resulting volume exceeds the desired
  threshold", §III-B).
* **Perception→planning precision/volume operators** — the map can be
  *coarsened* to any power-of-two multiple of the minimum voxel size and
  *pruned* to a bounded volume, producing the reduced view handed to the
  planner (:meth:`coarse_occupied_cells`, :meth:`build_tree`,
  :func:`prune_tree_to_volume`).

Two simulation shortcuts keep pure-Python missions tractable without changing
the behaviour the runtime observes:

* occupied space is stored at the minimum voxel size, but observed-*free*
  space is tracked at a coarser bookkeeping resolution (default
  ``8 × vox_min``); the free set only answers "has this region been observed"
  for the visibility/unknown-space profilers, where coarse granularity is
  sufficient; and
* the number of cells a real ray caster *would* touch at the requested step
  is computed analytically and reported in the insertion statistics, so the
  compute model charges the true precision-dependent cost even though the
  Python-side bookkeeping is coarse.

Every mutation of the occupied set also updates a
:class:`~repro.perception.spatial_index.SpatialIndex`, so the per-decision
queries — nearest obstacle, coarse aggregation, tree construction, segment
probes and locality eviction — run against incrementally maintained
structures instead of rescanning the map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.geometry.aabb import AABB
from repro.geometry.grid import VoxelKey, voxel_center, voxel_key
from repro.geometry.vec3 import Vec3
from repro.perception.point_cloud import PointCloud
from repro.perception.spatial_index import SpatialIndex


def allowed_precisions(vox_min: float, levels: int) -> List[float]:
    """The power-of-two precision ladder imposed by the OctoMap framework.

    Equation (3)'s constraint set requires every stage precision to be
    ``vox_min * 2**n`` for ``0 <= n <= d - 1``.
    """
    if vox_min <= 0:
        raise ValueError("minimum voxel size must be positive")
    if levels < 1:
        raise ValueError("need at least one precision level")
    return [vox_min * (2**n) for n in range(levels)]


@dataclass
class OctreeNode:
    """A node of the explicit occupancy octree.

    Attributes:
        center: world-space centre of the cube this node covers.
        size: edge length of the cube, metres.
        depth: 0 for leaves at the minimum resolution, increasing upward.
        occupied_leaves: number of occupied minimum-resolution voxels below
            this node (a leaf contributes 1 when occupied).
        children: child nodes; empty for leaves or pruned subtrees.
    """

    center: Vec3
    size: float
    depth: int
    occupied_leaves: int = 0
    children: List["OctreeNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        """True when the node has no children."""
        return not self.children

    @property
    def volume(self) -> float:
        """Volume covered by this node, m^3."""
        return self.size**3

    def occupied_volume(self, vox_min: float) -> float:
        """Volume of occupied minimum-resolution voxels under this node."""
        return self.occupied_leaves * vox_min**3

    def count_nodes(self) -> int:
        """Total nodes in the subtree rooted here (including this node)."""
        return 1 + sum(child.count_nodes() for child in self.children)

    def leaves(self) -> List["OctreeNode"]:
        """All leaf nodes of the subtree."""
        if self.is_leaf:
            return [self]
        result: List[OctreeNode] = []
        for child in self.children:
            result.extend(child.leaves())
        return result


class OccupancyOctree:
    """A sparse occupancy map with hierarchical (power-of-two) coarsening.

    Occupancy follows the usual ternary convention: a minimum-resolution voxel
    is *occupied* once a point-cloud endpoint lands in it, a (coarse) region is
    *free* once an insertion ray has passed through it without terminating
    there, and space is *unknown* otherwise.  Occupied status wins over free
    status, which is the conservative choice for collision avoidance.
    """

    def __init__(
        self,
        vox_min: float = 0.3,
        levels: int = 6,
        free_resolution: Optional[float] = None,
    ) -> None:
        if vox_min <= 0:
            raise ValueError("minimum voxel size must be positive")
        if levels < 1:
            raise ValueError("octree needs at least one level")
        self.vox_min = vox_min
        self.levels = levels
        self.free_resolution = (
            free_resolution if free_resolution is not None else vox_min * 8.0
        )
        if self.free_resolution < vox_min:
            raise ValueError("free-space resolution cannot be finer than vox_min")
        self._occupied: Set[VoxelKey] = set()
        self._free: Set[VoxelKey] = set()
        self._index = SpatialIndex(self.vox_min, self.levels)
        self._last_insert_stats: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Basic cell operations
    # ------------------------------------------------------------------
    def _add_occupied(self, key: VoxelKey) -> None:
        """Add one occupied voxel, keeping the spatial index in sync."""
        if key not in self._occupied:
            self._occupied.add(key)
            self._index.add(key)

    def _remove_occupied(self, key: VoxelKey) -> None:
        """Remove one occupied voxel, keeping the spatial index in sync."""
        if key in self._occupied:
            self._occupied.remove(key)
            self._index.remove(key)

    def mark_occupied(self, point: Vec3) -> VoxelKey:
        """Mark the minimum-resolution voxel containing ``point`` as occupied."""
        key = voxel_key(point, self.vox_min)
        self._add_occupied(key)
        self._free.discard(voxel_key(point, self.free_resolution))
        return key

    def mark_box(self, box: "AABB") -> List[VoxelKey]:
        """Mark every minimum-resolution voxel overlapping a box as occupied.

        The dynamic-obstacle path: each mover's footprint is stamped into
        the map once per decision epoch.  Every mark flows through the
        incremental spatial index, so downstream probes (nearest obstacle,
        segment occupancy, coarse aggregation) see the box with no rebuild.

        Returns:
            The voxel keys this call *newly* occupied — hand them back to
            :meth:`clear_cells` to un-mark the footprint before re-marking
            it elsewhere.  Voxels that were already occupied (e.g. a static
            wall the box overlaps, integrated from sensor data) are not
            returned, so clearing the footprint later cannot erase them.
        """
        lo = voxel_key(box.min_corner, self.vox_min)
        hi = voxel_key(box.max_corner, self.vox_min)
        keys: List[VoxelKey] = []
        for i in range(lo[0], hi[0] + 1):
            for j in range(lo[1], hi[1] + 1):
                for k in range(lo[2], hi[2] + 1):
                    key = (i, j, k)
                    if key in self._occupied:
                        continue
                    self._add_occupied(key)
                    self._free.discard(
                        voxel_key(voxel_center(key, self.vox_min), self.free_resolution)
                    )
                    keys.append(key)
        return keys

    def clear_cells(self, keys: Iterable[VoxelKey]) -> int:
        """Un-mark the given voxels (index-maintained); returns the count cleared.

        Voxels that are no longer occupied (e.g. already erased by a
        measurement ray passing through) are skipped silently.
        """
        cleared = 0
        for key in keys:
            if key in self._occupied:
                self._remove_occupied(key)
                cleared += 1
        return cleared

    def mark_free(self, point: Vec3) -> VoxelKey:
        """Mark the coarse region containing ``point`` as observed-free.

        A region that already contains an occupied voxel keeps its occupied
        voxels; the free mark only records that the region has been observed.
        """
        key = voxel_key(point, self.free_resolution)
        self._free.add(key)
        return key

    def is_occupied(self, point: Vec3) -> bool:
        """True when the minimum-resolution voxel containing the point is occupied."""
        return voxel_key(point, self.vox_min) in self._occupied

    def is_free(self, point: Vec3) -> bool:
        """True when the point's region has been observed and holds no occupied voxel."""
        if self.is_occupied(point):
            return False
        return voxel_key(point, self.free_resolution) in self._free

    def is_unknown(self, point: Vec3) -> bool:
        """True when the point's region has never been observed."""
        if voxel_key(point, self.vox_min) in self._occupied:
            return False
        return voxel_key(point, self.free_resolution) not in self._free

    # ------------------------------------------------------------------
    # Point-cloud insertion (the OctoMap kernel proper)
    # ------------------------------------------------------------------
    def insert_point_cloud(
        self,
        cloud: PointCloud,
        ray_step: Optional[float] = None,
        max_volume: Optional[float] = None,
        focus: Optional[Vec3] = None,
    ) -> Dict[str, float]:
        """Integrate a point cloud into the map.

        For every point, the space between the sensor origin and the point is
        carved as free and the endpoint voxel is marked occupied.

        Args:
            cloud: the point cloud to integrate.
            ray_step: step size of the free-space ray caster in metres.  When
                ``None`` the minimum voxel size is used; larger steps are the
                OctoMap *precision operator* and touch fewer cells.
            max_volume: volume budget in m^3 for the space integrated this
                insertion (the OctoMap *volume operator*).  Points are
                integrated in order of increasing distance to ``focus`` and
                insertion stops once the volume covered by the integrated rays
                exceeds the budget, so far-away space is dropped first.
            focus: the point insertion priority is measured from; defaults to
                the sensor origin.  The runtime passes the nearest trajectory
                point here, matching "we sort the space based on the distance
                to the MAV's trajectory" (§III-B).

        Returns:
            Statistics of the insertion: points integrated, points skipped,
            cells updated (at the requested ray step — the quantity the
            compute model charges) and the volume integrated under the budget.
        """
        if ray_step is not None and ray_step <= 0:
            raise ValueError("ray-caster step must be positive")
        if max_volume is not None and max_volume < 0:
            raise ValueError("volume budget cannot be negative")

        origin = cloud.origin
        anchor = focus if focus is not None else origin
        ordered = sorted(cloud.points, key=lambda p: anchor.distance_to(p))
        # Endpoints observed in this very cloud are protected from the
        # free-space clearing below: one ray grazing another ray's endpoint
        # must not erase an obstacle we are observing right now.
        protected = {voxel_key(p, self.vox_min) for p in ordered}

        # Precompute every ray's sample keys in one array pass.  Rays past
        # the volume budget simply leave their entry unused; the set mutations
        # themselves are replayed sequentially per ray below, because clearing
        # depends on the occupancy state left by earlier rays.
        effective_step = max(
            ray_step if ray_step is not None else self.vox_min, self.vox_min
        )
        bookkeeping_step = max(effective_step, self.free_resolution)
        bulk = self._ray_sample_keys_bulk(origin, ordered, bookkeeping_step)

        new_volume = 0.0
        integrated = 0
        skipped = 0
        cells_updated = 0

        for index, point in enumerate(ordered):
            if max_volume is not None and new_volume >= max_volume:
                # Budget exhausted: the expensive free-space carving is skipped
                # for the remaining (farther) points, but their endpoint voxels
                # are still recorded so the obstacle map stays complete — the
                # volume operator trades away free-space knowledge, not the
                # obstacles themselves.
                endpoint_key = voxel_key(point, self.vox_min)
                self._add_occupied(endpoint_key)
                self._free.discard(voxel_key(point, self.free_resolution))
                cells_updated += 1
                skipped += 1
                continue
            charged, added_volume = self._integrate_single(
                origin, point, effective_step, protected, bulk[index]
            )
            cells_updated += charged
            new_volume += added_volume
            integrated += 1

        self._last_insert_stats = {
            "points_integrated": float(integrated),
            "points_skipped": float(skipped),
            "cells_updated": float(cells_updated),
            "integrated_volume": new_volume,
        }
        return dict(self._last_insert_stats)

    def _integrate_single(
        self,
        origin: Vec3,
        point: Vec3,
        effective_step: float,
        protected: Set[VoxelKey],
        sample_keys: Tuple[List[VoxelKey], List[VoxelKey]],
    ) -> Tuple[int, float]:
        """Integrate one measurement ray.

        Args:
            effective_step: the insertion ray step, already clamped to at
                least ``vox_min``.
            protected: endpoint voxels of the current cloud, never cleared.
            sample_keys: the ray's free-space sample keys at the free and the
                occupied resolution, from :meth:`_ray_sample_keys_bulk`.

        Returns:
            ``(charged_cells, integrated_volume)``: the number of cells a real
            ray caster would touch at the requested step, and the volume of
            space covered by this ray's traversal (counted whether or not the
            space had been observed before — re-processing known space is what
            the volume operator exists to bound).
        """
        distance = origin.distance_to(point)
        charged_cells = int(distance / effective_step) + 1

        integrated_volume = self.vox_min**3
        free_cell_volume = self.free_resolution**3
        free_keys, occ_keys = sample_keys
        for key, sample_key in zip(free_keys, occ_keys):
            self._free.add(key)
            integrated_volume += free_cell_volume
            # A measurement ray passing through a voxel previously believed
            # occupied is evidence that the voxel is actually free — the
            # counterpart of OctoMap's probabilistic clearing.  This erases
            # phantom cells created by coarse point-cloud averaging once the
            # drone observes the area again.  Endpoints of the current cloud
            # are protected.
            if sample_key not in protected:
                self._remove_occupied(sample_key)

        endpoint_key = voxel_key(point, self.vox_min)
        self._add_occupied(endpoint_key)
        self._free.discard(voxel_key(point, self.free_resolution))
        return charged_cells, integrated_volume

    def _ray_sample_keys_bulk(
        self, origin: Vec3, points: List[Vec3], step: float
    ) -> List[Tuple[List[VoxelKey], List[VoxelKey]]]:
        """Per-ray free-space sample keys for a whole cloud insertion.

        Every ray shares the insertion origin and bookkeeping step, so all
        sample coordinates come from one ragged broadcast.  Ray ``r`` samples
        ``origin + unit * t`` for every ``t = 0, step, step + step, ...``
        below its length (the end point excluded; none for a zero-length
        ray), and each sample is quantised with ``floor(x / resolution)`` at
        the free and at the occupied resolution.  The ``t`` values come from
        a cumulative sum, the same sequential accumulation as stepping
        ``t += step`` along :func:`~repro.geometry.ray.sample_ray`, so the
        keys equal ``voxel_key`` of each of its samples.
        """
        o = np.array((origin.x, origin.y, origin.z), dtype=np.float64)
        targets = np.array(
            [(p.x, p.y, p.z) for p in points], dtype=np.float64
        ).reshape(len(points), 3)
        d = targets - o
        lengths = np.sqrt(
            (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2]
        )
        live = lengths > 1e-12
        counts = np.zeros(len(points), dtype=np.int64)
        if live.any():
            max_probes = int(float(lengths[live].max()) / step) + 2
            ts = np.concatenate(
                ([0.0], np.cumsum(np.full(max_probes, step, dtype=np.float64)))
            )
            counts[live] = np.searchsorted(ts, lengths[live], side="left")
        total = int(counts.sum())
        if total == 0:
            return [([], []) for _ in points]
        seg = np.repeat(np.arange(len(points)), counts)
        offsets = np.cumsum(counts) - counts
        t = ts[np.arange(total) - np.repeat(offsets, counts)]
        with np.errstate(divide="ignore", invalid="ignore"):
            unit = np.where(live[:, None], d / lengths[:, None], 0.0)
        pts = o + unit[seg] * t[:, None]
        free_rows = np.floor(pts / self.free_resolution).astype(np.int64).tolist()
        occ_rows = np.floor(pts / self.vox_min).astype(np.int64).tolist()
        results: List[Tuple[List[VoxelKey], List[VoxelKey]]] = []
        for index in range(len(points)):
            a = int(offsets[index])
            b = a + int(counts[index])
            results.append(
                (
                    [tuple(row) for row in free_rows[a:b]],
                    [tuple(row) for row in occ_rows[a:b]],
                )
            )
        return results

    @property
    def last_insert_stats(self) -> Dict[str, float]:
        """Statistics of the most recent insertion (empty before any insert)."""
        return dict(self._last_insert_stats)

    # ------------------------------------------------------------------
    # Aggregate queries
    # ------------------------------------------------------------------
    def occupied_keys(self) -> Set[VoxelKey]:
        """Copy of the occupied minimum-resolution voxel keys."""
        return set(self._occupied)

    def occupied_voxel_count(self) -> int:
        """Number of occupied minimum-resolution voxels."""
        return len(self._occupied)

    def free_region_count(self) -> int:
        """Number of observed-free coarse regions."""
        return len(self._free)

    def observed_voxel_count(self) -> int:
        """Number of observed cells (occupied voxels plus free regions)."""
        return len(self._occupied) + len(self._free)

    def occupied_volume(self) -> float:
        """Total occupied volume, m^3."""
        return len(self._occupied) * self.vox_min**3

    def observed_volume(self) -> float:
        """Total observed (occupied + free) volume, m^3 — the paper's v_map."""
        return (
            len(self._occupied) * self.vox_min**3
            + len(self._free) * self.free_resolution**3
        )

    def occupied_centers(self) -> List[Vec3]:
        """World-space centres of every occupied minimum-resolution voxel."""
        return [voxel_center(key, self.vox_min) for key in self._occupied]

    def nearest_occupied_distance(self, point: Vec3, max_radius: float = 100.0) -> float:
        """Distance from ``point`` to the nearest occupied voxel centre.

        An expanding-ring search over the spatial index's bucket grid, so the
        cost tracks the distance to the nearest obstacle rather than the total
        number of occupied voxels.  Returns ``max_radius`` when the map has no
        occupied voxel within the radius (or no occupied voxels at all), which
        the profilers interpret as "no known obstacle nearby".
        """
        return self._index.nearest_occupied_distance(point, max_radius)

    def segment_occupied(
        self,
        start: Vec3,
        end: Vec3,
        step: Optional[float] = None,
        lateral: float = 0.0,
        include_start: bool = True,
    ) -> bool:
        """Sampled occupancy probe along a segment (index-backed).

        Used by the simulator's blocked-trajectory and emergency-brake checks:
        probes the segment at ``step`` spacing (default the minimum voxel
        size), optionally widening the probe by ``±lateral`` along x and y,
        against the occupancy map at its native resolution.  The spatial
        index's bucket grid acts as a broad phase, so probes through empty
        space cost one dictionary lookup each.
        """
        effective = step if step is not None else self.vox_min
        return self._index.segment_occupied(
            start, end, effective, lateral=lateral, include_start=include_start
        )

    def segment_occupied_batch(
        self,
        starts,
        ends,
        step: Optional[float] = None,
        lateral: float = 0.0,
        include_start: bool = True,
    ):
        """Batched :meth:`segment_occupied`: one boolean per ``(S, 3)`` segment."""
        effective = step if step is not None else self.vox_min
        return self._index.segment_occupied_batch(
            starts, ends, effective, lateral=lateral, include_start=include_start
        )

    def nearest_unknown_distance(
        self, point: Vec3, search_radius: float, step: Optional[float] = None
    ) -> float:
        """Distance to the nearest never-observed region within a radius.

        Unknown space limits visibility: the drone cannot assume unobserved
        space is free.  The search probes the six axis directions at
        increasing radii and returns ``search_radius`` when everything nearby
        has been observed.
        """
        if search_radius <= 0:
            return 0.0
        probe_step = step if step is not None else self.free_resolution
        r = probe_step
        directions = (
            Vec3.unit_x(),
            -Vec3.unit_x(),
            Vec3.unit_y(),
            -Vec3.unit_y(),
            Vec3.unit_z(),
            -Vec3.unit_z(),
        )
        while r <= search_radius:
            for direction in directions:
                if self.is_unknown(point + direction * r):
                    return r
            r += probe_step
        return search_radius

    def forget_beyond(self, center: Vec3, radius: float) -> int:
        """Drop observed cells further than ``radius`` from ``center``.

        Keeps the map local to the drone, bounding memory and query cost over
        long missions (the paper's baseline likewise sizes its map to "an
        average warehouse" rather than the whole mission corridor).

        Returns:
            The number of cells forgotten.
        """
        if radius <= 0:
            raise ValueError("radius must be positive")
        radius_sq = radius * radius

        before = len(self._occupied) + len(self._free)
        # The index prunes whole buckets against the radius, so only the
        # boundary shell of the occupied set is tested voxel by voxel.
        for key in self._index.keys_outside(center, radius):
            self._remove_occupied(key)

        def keep(key: VoxelKey, resolution: float) -> bool:
            c = voxel_center(key, resolution)
            dx = c.x - center.x
            dy = c.y - center.y
            dz = c.z - center.z
            return dx * dx + dy * dy + dz * dz <= radius_sq

        self._free = {k for k in self._free if keep(k, self.free_resolution)}
        return before - (len(self._occupied) + len(self._free))

    # ------------------------------------------------------------------
    # Coarsening / pruning (perception→planning operators)
    # ------------------------------------------------------------------
    def coarsen_level_for(self, precision: float) -> int:
        """Map a requested precision to the closest allowed coarsening level."""
        if precision < self.vox_min:
            return 0
        level = int(round(math.log2(precision / self.vox_min)))
        return max(0, min(level, self.levels - 1))

    def coarse_occupied_cells(self, precision: float) -> Dict[VoxelKey, int]:
        """Occupied cells aggregated to a coarser, power-of-two resolution.

        Returns a mapping from coarse voxel key (at ``precision``) to the
        number of occupied minimum-resolution voxels it aggregates.  This is
        the sub-sampling precision operator for the map handed to the planner.
        The aggregation is maintained incrementally by the spatial index, so
        this is a snapshot copy rather than a rescan of the occupied set.
        """
        level = self.coarsen_level_for(precision)
        return dict(self._index.level_cells(level))

    def coarse_cell_boxes(self, precision: float) -> List[Tuple[Vec3, float]]:
        """Centres and edge lengths of the coarse occupied cells."""
        level = self.coarsen_level_for(precision)
        resolution = self.vox_min * (2**level)
        return [
            (voxel_center(key, resolution), resolution)
            for key in self.coarse_occupied_cells(precision)
        ]

    def build_tree(self) -> OctreeNode:
        """Materialise the explicit octree over the occupied voxels.

        The root covers the smallest power-of-two region (in units of
        ``vox_min * 2**(levels-1)``) containing every occupied voxel.  Nodes
        subdivide down to the minimum resolution; empty octants are omitted,
        so the tree is sparse.

        Construction is a single bottom-up pass over the spatial index's
        maintained level maps: leaves are created for every occupied voxel and
        grouped into their parent cells level by level, so the cost is
        O(levels × N) total rather than O(levels × N) *per node*.
        """
        if not self._occupied:
            return OctreeNode(center=Vec3.zero(), size=self.vox_min, depth=0)
        vox_min = self.vox_min
        current: Dict[VoxelKey, OctreeNode] = {
            key: OctreeNode(
                center=voxel_center(key, vox_min), size=vox_min, depth=0, occupied_leaves=1
            )
            for key in sorted(self._index.level_cells(0))
        }
        for level in range(1, self.levels):
            resolution = vox_min * (2**level)
            parents: Dict[VoxelKey, OctreeNode] = {}
            for (i, j, k), node in current.items():
                parent_key = (i // 2, j // 2, k // 2)
                parent = parents.get(parent_key)
                if parent is None:
                    parent = OctreeNode(
                        center=voxel_center(parent_key, resolution),
                        size=resolution,
                        depth=level,
                        occupied_leaves=0,
                    )
                    parents[parent_key] = parent
                parent.children.append(node)
                parent.occupied_leaves += node.occupied_leaves
            # Keep deterministic (sorted-key) ordering at every level so the
            # children of each node come out sorted as well.
            current = dict(sorted(parents.items()))

        top_nodes = list(current.values())
        if len(top_nodes) == 1:
            return top_nodes[0]
        # A synthetic super-root ties multiple top-level cubes together.
        top_resolution = vox_min * (2 ** (self.levels - 1))
        center = Vec3(
            sum(c.center.x for c in top_nodes) / len(top_nodes),
            sum(c.center.y for c in top_nodes) / len(top_nodes),
            sum(c.center.z for c in top_nodes) / len(top_nodes),
        )
        return OctreeNode(
            center=center,
            size=top_resolution * 2,
            depth=self.levels,
            occupied_leaves=sum(c.occupied_leaves for c in top_nodes),
            children=top_nodes,
        )


def prune_tree_to_volume(
    root: OctreeNode, max_volume: float, focus: Vec3
) -> List[OctreeNode]:
    """Select subtrees closest to ``focus`` until their volume exceeds a budget.

    Implements the perception→planning volume operator: "we prune the map,
    encoded in a tree, by selecting higher level trees (in the sorted order)
    until the threshold is reached" (§III-B).  The returned nodes are the
    top-level subtrees the planner will see; anything beyond the budget is
    dropped.

    Args:
        root: the materialised octree root.
        max_volume: volume budget in m^3.
        focus: prioritisation point (the drone position or nearest trajectory
            point); closer subtrees are kept first.
    """
    if max_volume < 0:
        raise ValueError("volume budget cannot be negative")
    candidates = list(root.children) if root.children else [root]
    candidates.sort(key=lambda node: focus.distance_to(node.center))
    selected: List[OctreeNode] = []
    used = 0.0
    for node in candidates:
        if used >= max_volume and selected:
            break
        selected.append(node)
        used += node.volume
    return selected
