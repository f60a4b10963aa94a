"""Sorted packed-key stores and the planner's segment collision probe.

The occupancy map keeps each of its voxel sets as a sorted, unique int64
array of :func:`~repro.geometry.grid.pack_keys` keys.  A batch of probes
answers membership with one :func:`np.searchsorted` pass
(:func:`contains`), a batch of keys is deduplicated with one sort
(:func:`unique_keys`), and added or removed with one
``searchsorted`` and one array copy (:func:`insert_keys`,
:func:`remove_keys`), so the map's hot paths do no per-key Python work.

The planning view holds its cells in the same form, and
:func:`segment_hits_table` is the one sampled collision probe that the RRT*
checker and the path smoother run against it.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro.geometry.grid import pack_keys
from repro.geometry.vec3 import Vec3

_EPS = 1e-12


def contains(table: np.ndarray, packed: np.ndarray) -> np.ndarray:
    """Boolean membership of each packed probe key in a sorted key array."""
    size = table.shape[0]
    if size == 0:
        return np.zeros(np.shape(packed), dtype=bool)
    pos = np.minimum(np.searchsorted(table, packed), size - 1)
    return table[pos] == packed


def unique_keys(keys: np.ndarray) -> np.ndarray:
    """The sorted, unique values of an int64 key array, as :func:`np.unique` gives.

    One sort and an adjacent-inequality mask: ``np.unique`` answers a plain
    int64 array from a hash table and sorts afterwards, which is slower on
    packed keys.
    """
    keys = np.sort(keys)
    first = np.empty(keys.shape, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


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


# Packed-key deltas of the cube neighbourhood by Chebyshev radius (margins
# are capped at two cells by cell_margin_radius).
_PACKED_OFFSETS: Dict[int, np.ndarray] = {}


def packed_neighbour_offsets(radius: int) -> np.ndarray:
    """Packed deltas of the (2r+1)³ cube neighbourhood of radius ``r``.

    :func:`pack_keys` is linear in the key, so in int64
    ``pack(k + o) == pack(k) + pack(o) - pack(0)``: adding these deltas to a
    packed key gives the packed keys of its neighbours.
    """
    if radius < 0:
        raise ValueError("neighbourhood radius cannot be negative")
    cached = _PACKED_OFFSETS.get(radius)
    if cached is None:
        span = np.arange(-radius, radius + 1)
        ijk = np.stack(np.meshgrid(span, span, span, indexing="ij"), axis=-1)
        cached = pack_keys(ijk.reshape(-1, 3)) - pack_keys(np.zeros(3, dtype=np.int64))
        _PACKED_OFFSETS[radius] = cached
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


def segment_hits_table(
    table: np.ndarray,
    resolution: float,
    start: Vec3,
    end: Vec3,
    step: Optional[float] = None,
    margin: float = 0.0,
) -> bool:
    """Sampled collision test for a straight segment against a cell table.

    ``table`` holds the sorted packed keys of the occupied cells of edge
    ``resolution``.  The segment is probed at ``t = 0, step, step + step,
    ...`` while ``t < length`` (``step`` clamped to one cell so thin
    obstacles are never skipped), plus its exact end point; a zero-length
    segment probes its start.  A probe hits when its cell, or any cell
    within ``margin`` (see :func:`cell_margin_radius`), is in the table.

    The probes are looked up in chunks of 4, 8, 16, ... distinct sample
    cells, and the walk stops at the first chunk that hits.
    """
    if table.shape[0] == 0:
        return False
    effective = step if step is not None else resolution
    if effective <= 0:
        raise ValueError("ray step must be positive")
    effective = min(effective, resolution)

    sx, sy, sz = start.x, start.y, start.z
    dx, dy, dz = end.x - sx, end.y - sy, end.z - sz
    length = math.sqrt(dx * dx + dy * dy + dz * dz)
    if length <= _EPS:
        points = np.array(((sx, sy, sz),))
    else:
        # t is a cumulative sum, the same sequential accumulation as
        # stepping t += step.
        max_probes = int(length / effective) + 2
        ts = np.concatenate(([0.0], np.cumsum(np.full(max_probes, effective))))
        ts = ts[ts < length]
        unit = np.array((dx / length, dy / length, dz / length))
        points = np.empty((ts.shape[0] + 1, 3))
        points[:-1] = np.array((sx, sy, sz)) + unit[None, :] * ts[:, None]
        points[-1] = (end.x, end.y, end.z)
    keys = pack_keys(np.floor(points / resolution).astype(np.int64))
    # A sample in the cell of the one before it repeats its lookups.
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    offsets = packed_neighbour_offsets(cell_margin_radius(margin, resolution))
    first, size = 0, 4
    while first < keys.shape[0]:
        chunk = keys[first : first + size, None] + offsets[None, :]
        if contains(table, chunk).any():
            return True
        first += size
        size *= 2
    return False
