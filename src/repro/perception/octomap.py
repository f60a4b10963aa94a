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
* **Perception→planning precision operator** — the map can be *coarsened*
  to any power-of-two multiple of the minimum voxel size
  (:meth:`coarse_occupied_keys`); the volume operator that bounds the
  reduced view handed to the planner is
  :func:`~repro.perception.planning_view.build_planning_view`.

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

Both stores are sorted, unique int64 arrays of packed voxel keys
(:func:`~repro.geometry.grid.pack_keys`).  Every update — a cloud
insertion, a mover's box, a forget pass — is one batch of array operations,
and every query (membership, segment probes, nearest obstacle, coarse keys)
reads the arrays directly, so no per-voxel Python loop and no rebuilt query
structure remains.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro.geometry.aabb import AABB
from repro.geometry.grid import (
    VoxelKey,
    pack_keys,
    packed_voxel_keys,
    sorted_key_bounds,
    unpack_keys,
    voxel_key,
)
from repro.geometry.vec3 import Vec3
from repro.perception.point_cloud import PointCloud
from repro.perception.spatial_index import contains, insert_keys, remove_keys, unique_keys


def _pack_one(key: VoxelKey) -> np.ndarray:
    return pack_keys(np.array([key], dtype=np.int64))


def _xyz(point: Vec3) -> np.ndarray:
    return np.array((point.x, point.y, point.z), dtype=np.float64)


def _squared_norms(d: np.ndarray) -> np.ndarray:
    """Squared row lengths of an ``(N, 3)`` array, summed as ``Vec3.dot`` does."""
    return (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2]


def centre_distances_sq(packed: np.ndarray, resolution: float, point: Vec3) -> np.ndarray:
    """Squared distance from each cell centre ``(k + 0.5) * resolution`` to ``point``."""
    return _squared_norms((unpack_keys(packed) + 0.5) * resolution - _xyz(point))


def _within(packed: np.ndarray, resolution: float, point: Vec3, radius_sq: float) -> np.ndarray:
    """The sorted keys whose cell centre lies within ``radius_sq`` of ``point``.

    When the bounding box's farthest corner is within, every key is, and the
    array comes back as it is.  That test is exact: ``(k + 0.5) * res - p``
    is monotone in ``k`` under rounding, so per axis the largest ``|s|`` sits
    at one end of the key range, and squaring and adding non-negative terms
    is monotone too, so no cell's computed distance exceeds the corner's.
    """
    if packed.shape[0] == 0:
        return packed
    corners = (sorted_key_bounds(packed) + 0.5) * resolution - _xyz(point)
    if _squared_norms(np.abs(corners).max(axis=0)[None])[0] <= radius_sq:
        return packed
    return packed[centre_distances_sq(packed, resolution, point) <= radius_sq]


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
        # Sorted, unique packed keys: occupied voxels at vox_min and
        # observed-free regions at free_resolution.
        self._occupied = np.empty(0, dtype=np.int64)
        self._free = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # Basic cell operations
    # ------------------------------------------------------------------
    def mark_occupied(self, point: Vec3) -> VoxelKey:
        """Mark the minimum-resolution voxel containing ``point`` as occupied."""
        key = voxel_key(point, self.vox_min)
        self._occupied = insert_keys(self._occupied, _pack_one(key))
        self._free = remove_keys(
            self._free, _pack_one(voxel_key(point, self.free_resolution))
        )
        return key

    def mark_box(self, box: AABB) -> np.ndarray:
        """Mark every minimum-resolution voxel overlapping a box as occupied.

        The dynamic-obstacle path: each mover's footprint is stamped into
        the map once per decision epoch, as one batch: the box's voxel keys
        come from one ``meshgrid``, in the same i-major order as nested
        ``i``/``j``/``k`` loops, which is also sorted packed order.

        Returns:
            The packed keys this call *newly* occupied — hand them back to
            :meth:`clear_cells` to un-mark the footprint before re-marking
            it elsewhere.  Voxels that were already occupied (e.g. a static
            wall the box overlaps, integrated from sensor data) are not
            returned, so clearing the footprint later cannot erase them.
        """
        lo = voxel_key(box.min_corner, self.vox_min)
        hi = voxel_key(box.max_corner, self.vox_min)
        axes = [np.arange(lo[axis], hi[axis] + 1, dtype=np.int64) for axis in range(3)]
        ijk = np.stack(
            [grid.ravel() for grid in np.meshgrid(*axes, indexing="ij")], axis=1
        )
        packed = pack_keys(ijk)
        new = ~contains(self._occupied, packed)
        packed = packed[new]
        self._occupied = insert_keys(self._occupied, packed)
        centres = (ijk[new] + 0.5) * self.vox_min
        self._free = remove_keys(
            self._free, packed_voxel_keys(centres, self.free_resolution)
        )
        return packed

    def clear_cells(self, keys: np.ndarray) -> int:
        """Un-mark the given packed voxel keys; returns the count cleared.

        Voxels that are no longer occupied (e.g. already erased by a
        measurement ray passing through) are skipped silently.
        """
        before = self._occupied.shape[0]
        self._occupied = remove_keys(self._occupied, np.asarray(keys, dtype=np.int64))
        return before - self._occupied.shape[0]

    def mark_free(self, point: Vec3) -> VoxelKey:
        """Mark the coarse region containing ``point`` as observed-free.

        A region that already contains an occupied voxel keeps its occupied
        voxels; the free mark only records that the region has been observed.
        """
        key = voxel_key(point, self.free_resolution)
        self._free = insert_keys(self._free, _pack_one(key))
        return key

    def is_occupied(self, point: Vec3) -> bool:
        """True when the minimum-resolution voxel containing the point is occupied."""
        return bool(contains(self._occupied, _pack_one(voxel_key(point, self.vox_min)))[0])

    def _in_free_region(self, point: Vec3) -> bool:
        key = _pack_one(voxel_key(point, self.free_resolution))
        return bool(contains(self._free, key)[0])

    def is_unknown(self, point: Vec3) -> bool:
        """True when the point's region has never been observed."""
        return not self.is_occupied(point) and not self._in_free_region(point)

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
        carved as free and the endpoint voxel is marked occupied.  Rays are
        integrated one by one in order of increasing distance to ``focus``;
        this method computes the state that sequence leaves in one batch.

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

        points = cloud.points
        count = points.shape[0]
        if count == 0:
            return {
                "points_integrated": 0.0,
                "points_skipped": 0.0,
                "cells_updated": 0.0,
                "integrated_volume": 0.0,
            }
        origin = _xyz(cloud.origin)
        anchor = _xyz(focus) if focus is not None else origin
        # A stable sort keeps the cloud's order among equally distant points.
        points = points[np.argsort(np.sqrt(_squared_norms(anchor - points)), kind="stable")]
        effective_step = max(
            ray_step if ray_step is not None else self.vox_min, self.vox_min
        )
        bookkeeping_step = max(effective_step, self.free_resolution)

        # Ray r samples origin + unit * t for t = 0, step, step + step, ...
        # below its length (none for a zero-length ray).  The t values are a
        # cumulative sum, the same sequential accumulation as stepping
        # t += step along repro.geometry.ray.sample_ray.
        d = points - origin
        lengths = np.sqrt(_squared_norms(d))
        live = lengths > 1e-12
        samples = np.zeros(count, dtype=np.int64)
        ts = np.zeros(1)
        if live.any():
            max_probes = int(float(lengths[live].max()) / bookkeeping_step) + 2
            ts = np.concatenate(
                ([0.0], np.cumsum(np.full(max_probes, bookkeeping_step)))
            )
            samples[live] = np.searchsorted(ts, lengths[live], side="left")

        # A ray with n samples covers its endpoint voxel plus n free regions,
        # added one += at a time: ray_volume[n].  The rays integrated are
        # those that start while the running total is still under the budget.
        free_regions = np.full(int(samples.max()), self.free_resolution**3)
        ray_volume = np.cumsum(np.concatenate(([self.vox_min**3], free_regions)))
        running = np.cumsum(ray_volume[samples])
        integrated = count
        if max_volume is not None:
            started = np.concatenate(([0.0], running[:-1]))
            integrated = int(np.searchsorted(started, max_volume, side="left"))
        charged = (lengths[:integrated] / effective_step).astype(np.int64) + 1

        # Samples of the integrated rays, ray by ray.
        per_ray = samples[:integrated]
        ray = np.repeat(np.arange(integrated), per_ray)
        offsets = np.cumsum(per_ray) - per_ray
        t = ts[np.arange(ray.shape[0]) - np.repeat(offsets, per_ray)]
        with np.errstate(divide="ignore", invalid="ignore"):
            unit = d[:integrated] / lengths[:integrated, None]
        positions = origin + unit[ray] * t[:, None]

        # Occupied: a ray erases the occupied voxels its samples pass through,
        # except the endpoints of this very cloud, which every ray marks.
        # The two key sets are disjoint, so the order of events is moot.
        endpoints = unique_keys(packed_voxel_keys(points, self.vox_min))
        passed = packed_voxel_keys(positions, self.vox_min)
        passed = passed[~contains(endpoints, passed)]
        self._occupied = insert_keys(remove_keys(self._occupied, passed), endpoints)

        # Free: ray r's samples add their regions (event 2r), then its
        # endpoint's region is discarded (event 2r + 1); per region the last
        # event wins, and regions no ray touches keep their state.
        keys = np.concatenate(
            (
                packed_voxel_keys(positions, self.free_resolution),
                packed_voxel_keys(points, self.free_resolution),
            )
        )
        events = np.concatenate((2 * ray, 2 * np.arange(count) + 1))
        order = np.argsort(keys)
        keys = keys[order]
        firsts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        last = np.maximum.reduceat(events[order], firsts)
        keys = keys[firsts]
        added = last % 2 == 0
        self._free = insert_keys(remove_keys(self._free, keys[~added]), keys[added])

        return {
            "points_integrated": float(integrated),
            "points_skipped": float(count - integrated),
            "cells_updated": float(int(charged.sum()) + count - integrated),
            "integrated_volume": float(running[integrated - 1]) if integrated else 0.0,
        }

    # ------------------------------------------------------------------
    # Aggregate queries
    # ------------------------------------------------------------------
    def occupied_keys(self) -> np.ndarray:
        """Copy of the occupied voxels' packed keys, sorted."""
        return self._occupied.copy()

    def occupied_voxel_count(self) -> int:
        """Number of occupied minimum-resolution voxels."""
        return int(self._occupied.shape[0])

    def observed_voxel_count(self) -> int:
        """Number of observed cells (occupied voxels plus free regions)."""
        return int(self._occupied.shape[0] + self._free.shape[0])

    def observed_volume(self) -> float:
        """Total observed (occupied + free) volume, m^3 — the paper's v_map."""
        return (
            self.occupied_voxel_count() * self.vox_min**3
            + int(self._free.shape[0]) * self.free_resolution**3
        )

    def nearest_occupied_distance(self, point: Vec3, max_radius: float = 100.0) -> float:
        """Distance from ``point`` to the nearest occupied voxel centre.

        One pass over the occupied array.  Returns ``max_radius`` when the
        map has no occupied voxel within the radius (or no occupied voxels at
        all), which the profilers interpret as "no known obstacle nearby".
        """
        if max_radius <= 0 or self._occupied.shape[0] == 0:
            return max(max_radius, 0.0)
        d_sq = centre_distances_sq(self._occupied, self.vox_min, point)
        return math.sqrt(min(max_radius * max_radius, float(d_sq.min())))

    def segment_occupied(
        self,
        start: Vec3,
        end: Vec3,
        step: Optional[float] = None,
        lateral: float = 0.0,
        include_start: bool = True,
    ) -> bool:
        """Sampled occupancy probe along a segment.

        Used by the simulator's emergency-brake check: probes the segment
        at ``step`` spacing (default the minimum voxel size), optionally
        widening the probe by ``±lateral`` along x and y, against the
        occupancy map at its native resolution.

        Probes ``intervals + 1`` evenly spaced points with
        ``intervals = max(1, int(length / step))``, so both endpoints are
        always probed but the spacing between probes can reach up to twice
        ``step`` on segments shorter than ``2 * step`` (a sampled, not exact,
        traversal).  At each probe the voxel containing it — and, when
        ``lateral > 0``, the four voxels at ``±lateral`` along x and y — is
        tested.  With ``include_start=False`` the probe at ``start`` itself
        is skipped (the brake excludes the drone's own voxel) and the
        spacing is tightened by one extra interval so coverage is preserved.
        """
        return bool(
            self._probe_segments(
                _xyz(start)[None, :], _xyz(end)[None, :], step, lateral, include_start
            )[0]
        )

    def segment_occupied_batch(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        step: Optional[float] = None,
        lateral: float = 0.0,
        include_start: bool = True,
    ) -> np.ndarray:
        """Batched :meth:`segment_occupied`: one boolean per ``(S, 3)`` segment."""
        return self._probe_segments(starts, ends, step, lateral, include_start)

    def _probe_segments(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        step: Optional[float],
        lateral: float,
        include_start: bool,
    ) -> np.ndarray:
        """Every probe of every segment, in one membership pass.

        The parameter of probe ``n`` is ``n / intervals``, so each segment's
        probes are the points ``start + (end - start) * n / intervals``.
        """
        step = step if step is not None else self.vox_min
        if step <= 0:
            raise ValueError("probe step must be positive")
        s = np.asarray(starts, dtype=np.float64).reshape(-1, 3)
        e = np.asarray(ends, dtype=np.float64).reshape(-1, 3)
        count = s.shape[0]
        if count == 0 or self._occupied.shape[0] == 0:
            return np.zeros(count, dtype=bool)
        d = e - s
        length = np.sqrt(_squared_norms(d))
        if include_start:
            intervals = np.maximum(1, (length / step).astype(np.int64))
            first = 0
        else:
            intervals = np.maximum(2, (length / step).astype(np.int64) + 1)
            first = 1
        probes_per_seg = intervals - first + 1
        total = int(probes_per_seg.sum())
        seg = np.repeat(np.arange(count), probes_per_seg)
        offsets = np.cumsum(probes_per_seg) - probes_per_seg
        n = np.arange(total) - np.repeat(offsets, probes_per_seg) + first
        t = n / intervals[seg]
        p = s[seg] + d[seg] * t[:, None]

        if lateral:
            # The centre probes and their four shifts along x and y, looked
            # up in one pass.
            p = np.repeat(p[None], 5, axis=0)
            p[1, :, 0] += lateral
            p[2, :, 0] -= lateral
            p[3, :, 1] += lateral
            p[4, :, 1] -= lateral
        hit = contains(self._occupied, packed_voxel_keys(p, self.vox_min))
        hit = hit.reshape(-1, total).any(axis=0)
        return np.bincount(seg, weights=hit, minlength=count) > 0

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
        before = self.observed_voxel_count()
        self._occupied = _within(self._occupied, self.vox_min, center, radius_sq)
        self._free = _within(self._free, self.free_resolution, center, radius_sq)
        return before - self.observed_voxel_count()

    # ------------------------------------------------------------------
    # Coarsening (perception→planning precision operator)
    # ------------------------------------------------------------------
    def coarsen_level_for(self, precision: float) -> int:
        """Map a requested precision to the closest allowed coarsening level."""
        if precision < self.vox_min:
            return 0
        level = int(round(math.log2(precision / self.vox_min)))
        return max(0, min(level, self.levels - 1))

    def coarse_occupied_keys(self, precision: float) -> np.ndarray:
        """Occupied cells at a coarser, power-of-two resolution.

        Returns the sorted packed keys of the cells at ``vox_min * 2**level``
        (the level closest to ``precision``) that hold at least one occupied
        minimum-resolution voxel.  This is the sub-sampling precision
        operator for the map handed to the planner.  At level 0 it is the
        occupied array itself, which the map replaces and never writes in
        place.
        """
        level = self.coarsen_level_for(precision)
        if level == 0:
            return self._occupied
        return unique_keys(pack_keys(unpack_keys(self._occupied) >> level))
