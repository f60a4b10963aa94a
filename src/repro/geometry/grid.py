"""Voxel indexing and grid-average downsampling.

The paper's point-cloud precision operator works by "gridding the space into
cells, mapping the points onto the cells using their coordinates, and then
reducing each cell to a single average point" (§III-B).  :func:`downsample`
implements exactly that bucketing on an ``(N, 3)`` point array, and
``voxel_key`` is the shared world-coordinate → integer-cell mapping used by
the downsampler, the octree and the collision checkers so that all of them
agree on voxel boundaries.  :func:`pack_keys` encodes a key as one int64, the
form the occupancy map stores and sorts.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.geometry.vec3 import Vec3

VoxelKey = Tuple[int, int, int]


def voxel_key(point: Vec3, resolution: float) -> VoxelKey:
    """Map a world-space point to the integer index of its containing voxel.

    Voxel ``(i, j, k)`` spans ``[i*res, (i+1)*res)`` along each axis, so the
    voxel centre is at ``(i + 0.5) * res``.

    Args:
        point: world-space coordinates in metres.
        resolution: voxel edge length in metres; must be positive.
    """
    if resolution <= 0:
        raise ValueError("voxel resolution must be positive")
    return (
        int(math.floor(point.x / resolution)),
        int(math.floor(point.y / resolution)),
        int(math.floor(point.z / resolution)),
    )


def voxel_center(key: VoxelKey, resolution: float) -> Vec3:
    """Return the world-space centre of the voxel with the given index."""
    return Vec3(
        (key[0] + 0.5) * resolution,
        (key[1] + 0.5) * resolution,
        (key[2] + 0.5) * resolution,
    )


# Packed-key encoding: one int64 per (i, j, k) voxel key.  Components are
# shifted by _PACK_OFF and mixed in base _PACK_BASE, supporting |i| < 2**19
# (±157 km at 0.3 m voxels) without overflowing the 63-bit positive range.
# Packed order is the lexicographic order of (i, j, k).
_PACK_BITS = 20
_PACK_OFF = 1 << 19
_PACK_BASE = 1 << _PACK_BITS


def pack_keys(ijk: np.ndarray) -> np.ndarray:
    """Encode an ``(N, 3)`` int voxel-key array into ``(N,)`` int64 scalars."""
    ijk = np.asarray(ijk, dtype=np.int64)
    return (
        (ijk[..., 0] + _PACK_OFF) * _PACK_BASE + (ijk[..., 1] + _PACK_OFF)
    ) * _PACK_BASE + (ijk[..., 2] + _PACK_OFF)


def unpack_keys(packed: np.ndarray) -> np.ndarray:
    """Decode ``(N,)`` packed keys back into an ``(N, 3)`` int64 key array."""
    packed = np.asarray(packed, dtype=np.int64)
    ijk = np.empty(packed.shape + (3,), dtype=np.int64)
    ijk[..., 0] = packed >> (2 * _PACK_BITS)
    ijk[..., 1] = (packed >> _PACK_BITS) & (_PACK_BASE - 1)
    ijk[..., 2] = packed & (_PACK_BASE - 1)
    ijk -= _PACK_OFF
    return ijk


def sorted_key_bounds(packed: np.ndarray) -> np.ndarray:
    """The bounding box of sorted, non-empty packed keys, as ``(2, 3)`` keys.

    Row 0 holds the least ``i``, ``j`` and ``k``, row 1 the greatest.  Packed
    order is ``i``-major, so the ``i`` range is read off the first and last
    key; ``j`` and ``k`` each take one ``min`` and one ``max``.
    """
    bounds = unpack_keys(packed[[0, -1]])
    j = (packed >> _PACK_BITS) & (_PACK_BASE - 1)
    k = packed & (_PACK_BASE - 1)
    bounds[:, 1] = (j.min(), j.max())
    bounds[:, 2] = (k.min(), k.max())
    bounds[:, 1:] -= _PACK_OFF
    return bounds


def packed_voxel_keys(points: np.ndarray, resolution: float) -> np.ndarray:
    """Packed keys of the voxels containing each row of an ``(N, 3)`` array.

    Row by row equal to packing :func:`voxel_key` of the same point.
    """
    return pack_keys(np.floor(points / resolution).astype(np.int64))


def downsample(points: np.ndarray, resolution: float) -> np.ndarray:
    """Grid-average downsampling of an ``(N, 3)`` point array.

    Each ``resolution``-sized cell that holds a point becomes the mean of its
    points; cells come out in the order their first point went in.  The
    per-axis sums are accumulated by :func:`np.bincount`, which adds the
    weights one by one in input order, so every mean equals a running
    ``sum += x`` per cell divided by the cell's count.
    """
    if resolution <= 0:
        raise ValueError("voxel resolution must be positive")
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if points.shape[0] == 0:
        return points
    _, first, inverse = np.unique(
        packed_voxel_keys(points, resolution), return_index=True, return_inverse=True
    )
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.shape[0])
    cell = rank[inverse]
    counts = np.bincount(cell)
    means = np.empty((first.shape[0], 3), dtype=np.float64)
    for axis in range(3):
        means[:, axis] = np.bincount(cell, weights=points[:, axis]) / counts
    return means
