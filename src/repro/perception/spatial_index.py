"""Incremental spatial index for the occupancy map.

Before this module existed, every hot per-decision map query rescanned the
full occupied-voxel set in pure Python: ``nearest_occupied_distance`` was a
linear scan and ``coarse_occupied_cells`` re-aggregated every voxel for
each decision.  Decision cost therefore grew with total map size, which is
exactly what a runtime built around bounded per-decision budgets must avoid.

:class:`SpatialIndex` replaces those rescans with structures maintained
*incrementally* on every voxel insertion and removal:

* **Per-level coarse occupancy counts** — one dictionary per rung of the
  power-of-two precision ladder, mapping the coarse cell key at
  ``vox_min * 2**level`` to the number of occupied minimum-resolution voxels
  it aggregates.  ``coarse_occupied_cells`` becomes a dictionary copy.
* **A coarse bucket grid** — occupied voxel keys grouped into cubic buckets
  (default ``8 × vox_min`` per edge).  Proximity queries run an
  expanding-ring search over buckets and segment probes use the bucket grid
  as a broad phase, so their cost tracks the *local* obstacle density rather
  than the total map size.

The module also provides the grid-cell collision primitives shared by the
:class:`~repro.perception.planning_view.PlanningView` and the RRT* collision
checker (:func:`point_hits_cells`, :func:`segment_hits_cells`): scalar
re-implementations of the sampled ray cast that avoid allocating a ``Vec3``
per probe on the planner's hottest loop.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.geometry.grid import VoxelKey
from repro.geometry.vec3 import Vec3

_EPS = 1e-12

# Packed-key encoding: one int64 per (i, j, k) voxel key.  Components are
# shifted by _PACK_OFF and mixed in base _PACK_BASE, supporting |i| < 2**19
# (±100 km at 0.2 m voxels) without overflowing the 63-bit positive range.
_PACK_OFF = 1 << 19
_PACK_BASE = 1 << 20


def pack_keys(ijk: np.ndarray) -> np.ndarray:
    """Encode an ``(N, 3)`` int voxel-key array into ``(N,)`` int64 scalars."""
    ijk = np.asarray(ijk, dtype=np.int64)
    return (
        (ijk[..., 0] + _PACK_OFF) * _PACK_BASE + (ijk[..., 1] + _PACK_OFF)
    ) * _PACK_BASE + (ijk[..., 2] + _PACK_OFF)


class PackedCellTable:
    """Sorted int64 membership table over a set of voxel keys.

    Batched ``key in cells``: keys are packed into single int64
    scalars and kept sorted, so a batch of probes answers membership with one
    :func:`np.searchsorted` pass instead of a Python hash lookup per probe.
    """

    __slots__ = ("packed", "size")

    def __init__(self, cells: Iterable[VoxelKey]) -> None:
        keys = np.array(list(cells), dtype=np.int64).reshape(-1, 3)
        self.packed = np.unique(pack_keys(keys)) if keys.size else np.empty(0, np.int64)
        self.size = int(self.packed.shape[0])

    def contains_packed(self, packed: np.ndarray) -> np.ndarray:
        """Boolean membership per packed probe key."""
        if self.size == 0:
            return np.zeros(packed.shape, dtype=bool)
        pos = np.searchsorted(self.packed, packed)
        pos = np.minimum(pos, self.size - 1)
        return self.packed[pos] == packed

    def contains_batch(self, ijk: np.ndarray, radius: int = 0) -> np.ndarray:
        """Membership per ``(P, 3)`` probe key, inflated by a cube neighbourhood.

        With ``radius > 0`` a probe counts as a hit when *any* key of its
        ``(2r+1)³`` Chebyshev neighbourhood is present — the batched
        equivalent of looping :func:`neighbour_offsets`.
        """
        ijk = np.asarray(ijk, dtype=np.int64)
        if self.size == 0:
            return np.zeros(ijk.shape[0], dtype=bool)
        if radius == 0:
            return self.contains_packed(pack_keys(ijk))
        offsets = np.array(neighbour_offsets(radius), dtype=np.int64)  # (O, 3)
        probe = ijk[:, None, :] + offsets[None, :, :]  # (P, O, 3)
        return self.contains_packed(pack_keys(probe)).any(axis=1)

# Cube neighbourhood offsets by Chebyshev radius, shared by the grid-cell
# collision helpers (margins are capped at two cells by the planning view).
_NEIGHBOUR_OFFSETS: Dict[int, Tuple[VoxelKey, ...]] = {}


def neighbour_offsets(radius: int) -> Tuple[VoxelKey, ...]:
    """The (2r+1)³ integer offsets of the cube neighbourhood of radius ``r``."""
    if radius < 0:
        raise ValueError("neighbourhood radius cannot be negative")
    cached = _NEIGHBOUR_OFFSETS.get(radius)
    if cached is None:
        span = range(-radius, radius + 1)
        cached = tuple((di, dj, dk) for di in span for dj in span for dk in span)
        _NEIGHBOUR_OFFSETS[radius] = cached
    return cached


def cell_margin_radius(margin: float, resolution: float) -> int:
    """Obstacle inflation in whole cells (rounded, capped at two cells).

    The cell quantisation itself already provides roughly half a cell of
    clearance, and ceiling the radius at coarse precisions would close every
    narrow passage the planner needs — hence round-to-nearest and the cap.
    """
    if margin <= 0:
        return 0
    return min(2, int(round(margin / resolution)))


def point_hits_cells(
    cells: FrozenSet[VoxelKey] | Set[VoxelKey] | Mapping[VoxelKey, int],
    resolution: float,
    point: Vec3,
    margin: float = 0.0,
) -> bool:
    """True when ``point`` lies inside (or within ``margin`` of) an occupied cell."""
    if not cells:
        return False
    i = math.floor(point.x / resolution)
    j = math.floor(point.y / resolution)
    k = math.floor(point.z / resolution)
    radius = cell_margin_radius(margin, resolution)
    if radius == 0:
        return (i, j, k) in cells
    for di, dj, dk in neighbour_offsets(radius):
        if (i + di, j + dj, k + dk) in cells:
            return True
    return False


def segment_hits_cells(
    cells: FrozenSet[VoxelKey] | Set[VoxelKey] | Mapping[VoxelKey, int],
    resolution: float,
    start: Vec3,
    end: Vec3,
    step: Optional[float] = None,
    margin: float = 0.0,
) -> bool:
    """Sampled collision test for a straight segment against grid cells.

    Probes the segment at ``step`` intervals (clamped to one cell so thin
    obstacles are never skipped), plus the exact end point.  Semantically
    identical to sampling the ray and testing each point, but runs on raw
    scalars with the neighbourhood offsets precomputed once per call.
    """
    if not cells:
        return False
    effective = step if step is not None else resolution
    if effective <= 0:
        raise ValueError("ray step must be positive")
    effective = min(effective, resolution)

    sx, sy, sz = start.x, start.y, start.z
    dx, dy, dz = end.x - sx, end.y - sy, end.z - sz
    length = math.sqrt(dx * dx + dy * dy + dz * dz)
    radius = cell_margin_radius(margin, resolution)
    offsets = neighbour_offsets(radius) if radius else None
    floor = math.floor

    def probe(px: float, py: float, pz: float) -> bool:
        i = floor(px / resolution)
        j = floor(py / resolution)
        k = floor(pz / resolution)
        if offsets is None:
            return (i, j, k) in cells
        for di, dj, dk in offsets:
            if (i + di, j + dj, k + dk) in cells:
                return True
        return False

    if length <= _EPS:
        return probe(sx, sy, sz)
    ux, uy, uz = dx / length, dy / length, dz / length
    t = 0.0
    while t < length:
        if probe(sx + ux * t, sy + uy * t, sz + uz * t):
            return True
        t += effective
    return probe(end.x, end.y, end.z)


class SpatialIndex:
    """Multi-resolution voxel-bucket index over occupied minimum-size voxels.

    The index is owned by the occupancy octree and updated on every voxel
    insertion/removal, so queries never rescan the occupied set:

    * ``level_cells(level)`` — the maintained coarse occupancy counts at
      ``vox_min * 2**level`` (level 0 maps every occupied key to 1).
    * ``nearest_occupied_distance`` — expanding-ring search over buckets.
    * ``segment_occupied`` — sampled segment probe with the bucket grid as a
      broad phase.
    * ``keys_outside`` — bucket-pruned enumeration for locality eviction.

    Attributes:
        vox_min: edge length of the indexed (minimum-resolution) voxels.
        levels: number of rungs on the power-of-two coarsening ladder.
        bucket_resolution: edge length of the proximity buckets (an integer
            multiple of ``vox_min``).
    """

    __slots__ = (
        "vox_min",
        "levels",
        "bucket_resolution",
        "_bucket_factor",
        "_levels",
        "_buckets",
        "_table",
    )

    def __init__(
        self,
        vox_min: float,
        levels: int,
        bucket_resolution: Optional[float] = None,
    ) -> None:
        if vox_min <= 0:
            raise ValueError("minimum voxel size must be positive")
        if levels < 1:
            raise ValueError("index needs at least one level")
        self.vox_min = vox_min
        self.levels = levels
        requested = bucket_resolution if bucket_resolution is not None else vox_min * 8.0
        factor = int(round(requested / vox_min))
        if factor < 1:
            raise ValueError("bucket resolution cannot be finer than vox_min")
        self._bucket_factor = factor
        self.bucket_resolution = vox_min * factor
        self._levels: List[Dict[VoxelKey, int]] = [{} for _ in range(levels)]
        self._buckets: Dict[VoxelKey, Set[VoxelKey]] = {}
        # Lazily rebuilt packed-key table for the batch segment probe.
        # Mutations only drop it, so bursts of insertions (one scan's worth of
        # point-cloud updates) pay a single rebuild at the next batch query.
        self._table: Optional[PackedCellTable] = None

    # ------------------------------------------------------------------
    # Maintenance (called by the octree on every occupancy change)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._levels[0])

    def __contains__(self, key: VoxelKey) -> bool:
        return key in self._levels[0]

    def add(self, key: VoxelKey) -> bool:
        """Index a newly occupied voxel key; returns False if already present."""
        level0 = self._levels[0]
        if key in level0:
            return False
        level0[key] = 1
        self._table = None
        i, j, k = key
        for level in range(1, self.levels):
            i //= 2
            j //= 2
            k //= 2
            counts = self._levels[level]
            coarse = (i, j, k)
            counts[coarse] = counts.get(coarse, 0) + 1
        factor = self._bucket_factor
        bucket_key = (key[0] // factor, key[1] // factor, key[2] // factor)
        bucket = self._buckets.get(bucket_key)
        if bucket is None:
            self._buckets[bucket_key] = {key}
        else:
            bucket.add(key)
        return True

    def remove(self, key: VoxelKey) -> bool:
        """Drop a no-longer-occupied voxel key; returns False if absent."""
        level0 = self._levels[0]
        if key not in level0:
            return False
        del level0[key]
        self._table = None
        i, j, k = key
        for level in range(1, self.levels):
            i //= 2
            j //= 2
            k //= 2
            counts = self._levels[level]
            coarse = (i, j, k)
            remaining = counts[coarse] - 1
            if remaining:
                counts[coarse] = remaining
            else:
                del counts[coarse]
        factor = self._bucket_factor
        bucket_key = (key[0] // factor, key[1] // factor, key[2] // factor)
        bucket = self._buckets[bucket_key]
        bucket.discard(key)
        if not bucket:
            del self._buckets[bucket_key]
        return True

    def clear(self) -> None:
        """Reset the index to empty."""
        for counts in self._levels:
            counts.clear()
        self._buckets.clear()
        self._table = None

    # ------------------------------------------------------------------
    # Maintained aggregates
    # ------------------------------------------------------------------
    def level_cells(self, level: int) -> Mapping[VoxelKey, int]:
        """Coarse occupancy counts at ladder rung ``level`` (live, read-only).

        Maps each occupied coarse cell at ``vox_min * 2**level`` to the number
        of occupied minimum-resolution voxels it aggregates.  Callers that
        need a mutable or stable snapshot must copy.
        """
        if not 0 <= level < self.levels:
            raise ValueError(f"level must be in [0, {self.levels - 1}]")
        return self._levels[level]

    # ------------------------------------------------------------------
    # Proximity queries
    # ------------------------------------------------------------------
    def nearest_occupied_distance(self, point: Vec3, max_radius: float = 100.0) -> float:
        """Distance from ``point`` to the nearest indexed voxel centre.

        Expanding-ring search: buckets are visited in shells of increasing
        Chebyshev radius around the query point's bucket, and the search stops
        as soon as no unvisited shell can contain a closer voxel.  When a
        shell would touch more buckets than the map holds, the search falls
        back to one pruned pass over all buckets, bounding the worst case at
        O(total buckets) instead of O(total voxels).

        Returns ``max_radius`` when no indexed voxel lies within the radius.
        """
        if max_radius <= 0 or not self._buckets:
            return max(max_radius, 0.0)
        vox = self.vox_min
        bres = self.bucket_resolution
        px, py, pz = point.x, point.y, point.z
        bi = math.floor(px / bres)
        bj = math.floor(py / bres)
        bk = math.floor(pz / bres)
        best_sq = max_radius * max_radius
        buckets = self._buckets
        get = buckets.get
        total = len(buckets)

        r = 0
        while True:
            inner = (r - 1) * bres
            if inner > 0 and inner * inner >= best_sq:
                break
            shell_size = 1 if r == 0 else (2 * r + 1) ** 3 - (2 * r - 1) ** 3
            if shell_size > 2 * total + 8:
                best_sq = self._nearest_over_all_buckets(px, py, pz, best_sq)
                break
            for bucket_key in self._shell(bi, bj, bk, r):
                keys = get(bucket_key)
                if not keys:
                    continue
                for (i, j, k) in keys:
                    dx = (i + 0.5) * vox - px
                    dy = (j + 0.5) * vox - py
                    dz = (k + 0.5) * vox - pz
                    d_sq = dx * dx + dy * dy + dz * dz
                    if d_sq < best_sq:
                        best_sq = d_sq
            r += 1
        return math.sqrt(best_sq)

    @staticmethod
    def _shell(bi: int, bj: int, bk: int, r: int) -> Iterator[VoxelKey]:
        """Bucket keys at exactly Chebyshev radius ``r`` from ``(bi, bj, bk)``."""
        if r == 0:
            yield (bi, bj, bk)
            return
        full = range(-r, r + 1)
        inner = range(-r + 1, r)
        for di in (-r, r):
            for dj in full:
                for dk in full:
                    yield (bi + di, bj + dj, bk + dk)
        for dj in (-r, r):
            for di in inner:
                for dk in full:
                    yield (bi + di, bj + dj, bk + dk)
        for dk in (-r, r):
            for di in inner:
                for dj in inner:
                    yield (bi + di, bj + dj, bk + dk)

    def _nearest_over_all_buckets(self, px: float, py: float, pz: float, best_sq: float) -> float:
        """One pruned pass over every bucket; returns the improved ``best_sq``."""
        vox = self.vox_min
        bres = self.bucket_resolution
        for (bi, bj, bk), keys in self._buckets.items():
            lo_x = bi * bres
            lo_y = bj * bres
            lo_z = bk * bres
            dx = lo_x - px if px < lo_x else (px - lo_x - bres if px > lo_x + bres else 0.0)
            dy = lo_y - py if py < lo_y else (py - lo_y - bres if py > lo_y + bres else 0.0)
            dz = lo_z - pz if pz < lo_z else (pz - lo_z - bres if pz > lo_z + bres else 0.0)
            if dx * dx + dy * dy + dz * dz >= best_sq:
                continue
            for (i, j, k) in keys:
                ddx = (i + 0.5) * vox - px
                ddy = (j + 0.5) * vox - py
                ddz = (k + 0.5) * vox - pz
                d_sq = ddx * ddx + ddy * ddy + ddz * ddz
                if d_sq < best_sq:
                    best_sq = d_sq
        return best_sq

    def segment_occupied(
        self,
        start: Vec3,
        end: Vec3,
        step: float,
        lateral: float = 0.0,
        include_start: bool = True,
    ) -> bool:
        """Sampled occupancy probe along a segment, bucket grid as broad phase.

        Probes ``intervals + 1`` evenly spaced points with
        ``intervals = max(1, int(length / step))``, so both endpoints are
        always probed but the spacing between probes can reach up to twice
        ``step`` on segments shorter than ``2 * step`` (the sampling the
        simulator's checks have always used — this is a sampled, not exact,
        traversal).  At each probe the voxel containing it — and, when
        ``lateral > 0``, the four voxels at ``±lateral`` along x and y — is
        tested.  Probes whose bucket is empty (and whose lateral offsets
        cannot reach a neighbouring bucket) skip the per-voxel lookups
        entirely.

        Args:
            start: segment start.
            end: segment end.
            step: probe spacing in metres.
            lateral: half-width of the probed tube (0 probes the centre line
                only); used by the emergency brake's grazing check.
            include_start: when False the probe at ``start`` itself is skipped
                (the brake excludes the drone's own voxel) and the spacing is
                tightened by one extra interval so coverage is preserved.
        """
        if step <= 0:
            raise ValueError("probe step must be positive")
        occupied = self._levels[0]
        if not occupied:
            return False
        sx, sy, sz = start.x, start.y, start.z
        ex, ey, ez = end.x, end.y, end.z
        dx, dy, dz = ex - sx, ey - sy, ez - sz
        length = math.sqrt(dx * dx + dy * dy + dz * dz)
        if include_start:
            intervals = max(1, int(length / step))
            first = 0
        else:
            intervals = max(2, int(length / step) + 1)
            first = 1

        vox = self.vox_min
        bres = self.bucket_resolution
        buckets = self._buckets
        floor = math.floor
        for n in range(first, intervals + 1):
            t = n / intervals
            px = sx + dx * t
            py = sy + dy * t
            pz = sz + dz * t
            bucket_key = (floor(px / bres), floor(py / bres), floor(pz / bres))
            if bucket_key not in buckets:
                if lateral == 0.0:
                    continue
                fx = px - bucket_key[0] * bres
                fy = py - bucket_key[1] * bres
                if lateral < fx < bres - lateral and lateral < fy < bres - lateral:
                    continue
            i = floor(px / vox)
            j = floor(py / vox)
            k = floor(pz / vox)
            if (i, j, k) in occupied:
                return True
            if lateral:
                if (floor((px + lateral) / vox), j, k) in occupied:
                    return True
                if (floor((px - lateral) / vox), j, k) in occupied:
                    return True
                if (i, floor((py + lateral) / vox), k) in occupied:
                    return True
                if (i, floor((py - lateral) / vox), k) in occupied:
                    return True
        return False

    # ------------------------------------------------------------------
    # Batch segment probe
    # ------------------------------------------------------------------
    def segment_occupied_batch(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        step: float,
        lateral: float = 0.0,
        include_start: bool = True,
    ) -> np.ndarray:
        """Batched :meth:`segment_occupied`: one boolean per segment.

        Probe positions replicate :meth:`segment_occupied` exactly — the
        parameter of probe ``n`` is ``n / intervals`` with the same interval
        count — so a segment reports occupied if and only if the one-segment
        probe would.  Its bucket broad phase is replaced by one sorted-table
        membership pass, which cannot change the outcome (a voxel absent from
        every bucket is absent from the table).
        """
        if step <= 0:
            raise ValueError("probe step must be positive")
        s = np.asarray(starts, dtype=np.float64).reshape(-1, 3)
        e = np.asarray(ends, dtype=np.float64).reshape(-1, 3)
        count = s.shape[0]
        if count == 0 or not self._levels[0]:
            return np.zeros(count, dtype=bool)
        d = e - s
        length = np.sqrt(
            (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2]
        )
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

        if self._table is None:
            self._table = PackedCellTable(self._levels[0])
        table = self._table
        vox = self.vox_min
        keys = np.floor(p / vox).astype(np.int64)
        hit = table.contains_packed(pack_keys(keys))
        if lateral:
            for axis, delta in ((0, lateral), (0, -lateral), (1, lateral), (1, -lateral)):
                shifted = keys.copy()
                shifted[:, axis] = np.floor((p[:, axis] + delta) / vox).astype(np.int64)
                hit = hit | table.contains_packed(pack_keys(shifted))
        return np.bincount(seg, weights=hit, minlength=count) > 0

    # ------------------------------------------------------------------
    # Locality eviction support
    # ------------------------------------------------------------------
    def keys_outside(self, center: Vec3, radius: float) -> List[VoxelKey]:
        """Indexed keys whose voxel centre lies strictly beyond ``radius``.

        Buckets entirely beyond the radius contribute all their keys without
        per-voxel tests; buckets entirely inside contribute none; only the
        boundary shell is examined voxel by voxel.
        """
        if radius < 0:
            raise ValueError("radius cannot be negative")
        vox = self.vox_min
        bres = self.bucket_resolution
        half = 0.5 * vox
        cx, cy, cz = center.x, center.y, center.z
        radius_sq = radius * radius
        outside: List[VoxelKey] = []
        for (bi, bj, bk), keys in self._buckets.items():
            # Voxel centres within this bucket span [lo + half, hi - half].
            lo_x = bi * bres + half
            hi_x = (bi + 1) * bres - half
            lo_y = bj * bres + half
            hi_y = (bj + 1) * bres - half
            lo_z = bk * bres + half
            hi_z = (bk + 1) * bres - half
            near_x = lo_x - cx if cx < lo_x else (cx - hi_x if cx > hi_x else 0.0)
            near_y = lo_y - cy if cy < lo_y else (cy - hi_y if cy > hi_y else 0.0)
            near_z = lo_z - cz if cz < lo_z else (cz - hi_z if cz > hi_z else 0.0)
            if near_x * near_x + near_y * near_y + near_z * near_z > radius_sq:
                outside.extend(keys)
                continue
            far_x = max(cx - lo_x, hi_x - cx)
            far_y = max(cy - lo_y, hi_y - cy)
            far_z = max(cz - lo_z, hi_z - cz)
            if far_x * far_x + far_y * far_y + far_z * far_z <= radius_sq:
                continue
            for (i, j, k) in keys:
                dx = (i + 0.5) * vox - cx
                dy = (j + 0.5) * vox - cy
                dz = (k + 0.5) * vox - cz
                if dx * dx + dy * dy + dz * dz > radius_sq:
                    outside.append((i, j, k))
        return outside

    # ------------------------------------------------------------------
    # Validation (used by tests)
    # ------------------------------------------------------------------
    def matches(self, occupied: Set[VoxelKey]) -> bool:
        """True when the index is exactly consistent with an occupied set."""
        if set(self._levels[0]) != occupied:
            return False
        for level in range(1, self.levels):
            factor = 2**level
            expected: Dict[VoxelKey, int] = {}
            for (i, j, k) in occupied:
                coarse = (i // factor, j // factor, k // factor)
                expected[coarse] = expected.get(coarse, 0) + 1
            if self._levels[level] != expected:
                return False
        factor = self._bucket_factor
        expected_buckets: Dict[VoxelKey, Set[VoxelKey]] = {}
        for (i, j, k) in occupied:
            expected_buckets.setdefault((i // factor, j // factor, k // factor), set()).add(
                (i, j, k)
            )
        return self._buckets == expected_buckets
