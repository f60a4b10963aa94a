"""Sorted packed-key stores and the grid-cell collision primitives.

The occupancy map keeps each of its voxel sets as a sorted, unique int64
array of :func:`~repro.geometry.grid.pack_keys` keys.  A batch of probes
answers membership with one :func:`np.searchsorted` pass
(:func:`contains`), and a batch of keys is added or removed with one
``searchsorted`` and one array copy (:func:`insert_keys`,
:func:`remove_keys`), so the map's hot paths do no per-key Python work.

The module also provides the grid-cell collision primitives shared by the
:class:`~repro.perception.planning_view.PlanningView` and the RRT* collision
checker (:func:`point_hits_cells`, :func:`segment_hits_cells`): scalar
re-implementations of the sampled ray cast that avoid allocating a ``Vec3``
per probe on the planner's hottest loop, and their batched form
:func:`contains_batch`.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Mapping, Optional, Set, Tuple

import numpy as np

from repro.geometry.grid import VoxelKey, pack_keys
from repro.geometry.vec3 import Vec3

_EPS = 1e-12


def contains(table: np.ndarray, packed: np.ndarray) -> np.ndarray:
    """Boolean membership of each packed probe key in a sorted key array."""
    size = table.shape[0]
    if size == 0:
        return np.zeros(np.shape(packed), dtype=bool)
    pos = np.minimum(np.searchsorted(table, packed), size - 1)
    return table[pos] == packed


def insert_keys(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The sorted union of a sorted key array and sorted, unique ``keys``."""
    new = keys[~contains(table, keys)]
    if new.shape[0] == 0:
        return table
    return np.insert(table, np.searchsorted(table, new), new)


def remove_keys(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """A sorted key array without ``keys`` (any order, repeats allowed)."""
    size = table.shape[0]
    if size == 0 or keys.shape[0] == 0:
        return table
    pos = np.minimum(np.searchsorted(table, keys), size - 1)
    hit = table[pos] == keys
    if not hit.any():
        return table
    return np.delete(table, pos[hit])


def contains_batch(table: np.ndarray, ijk: np.ndarray, radius: int = 0) -> np.ndarray:
    """Membership per ``(P, 3)`` probe key, inflated by a cube neighbourhood.

    With ``radius > 0`` a probe counts as a hit when *any* key of its
    ``(2r+1)³`` Chebyshev neighbourhood is in the sorted packed ``table`` —
    the batched equivalent of :func:`point_hits_cells`.
    """
    ijk = np.asarray(ijk, dtype=np.int64)
    if radius == 0:
        return contains(table, pack_keys(ijk))
    offsets = np.array(neighbour_offsets(radius), dtype=np.int64)  # (O, 3)
    probe = ijk[:, None, :] + offsets[None, :, :]  # (P, O, 3)
    return contains(table, pack_keys(probe)).any(axis=1)


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
