"""Rays, ray/box intersection and voxel traversal.

Two of RoboRun's precision operators are ray-caster step-size controls: the
OctoMap insertion ray caster and the planner's collision ray caster both have
their step size scaled with the requested precision (§III-B, "Precision
Operators").  This module provides the underlying machinery:

* :func:`ray_aabb_intersect` — slab-test intersection used for obstacle and
  frustum clipping.
* :func:`traverse_voxels` — exact Amanatides–Woo voxel walking, the
  "infinitely fine" reference traversal.
* :func:`sample_ray` — fixed-step sampling along a ray, whose step size is the
  knob the precision operators turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.geometry.aabb import AABB
from repro.geometry.grid import VoxelKey, voxel_key
from repro.geometry.vec3 import Vec3

_EPS = 1e-12


@dataclass(frozen=True, slots=True)
class Ray:
    """A half-line defined by an origin and a (not necessarily unit) direction."""

    origin: Vec3
    direction: Vec3

    def __post_init__(self) -> None:
        if self.direction.norm_sq() <= _EPS:
            raise ValueError("ray direction must be non-zero")

    def point_at(self, t: float) -> Vec3:
        """The point ``origin + t * direction``."""
        return self.origin + self.direction * t

    def unit(self) -> "Ray":
        """Return a copy with a unit-length direction."""
        return Ray(self.origin, self.direction.normalized())

    @staticmethod
    def between(start: Vec3, end: Vec3) -> "Ray":
        """Ray from ``start`` towards ``end`` (t=1 lands exactly on ``end``)."""
        return Ray(start, end - start)


def ray_aabb_intersect(ray: Ray, box: AABB) -> Optional[Tuple[float, float]]:
    """Slab-test ray/box intersection.

    Returns:
        ``(t_enter, t_exit)`` such that ``ray.point_at(t)`` lies inside the
        box for ``t_enter <= t <= t_exit`` and ``t_exit >= 0``, or ``None``
        when the ray misses the box entirely or the box lies behind the
        origin.
    """
    t_min = -math.inf
    t_max = math.inf
    for axis in range(3):
        o = ray.origin[axis]
        d = ray.direction[axis]
        lo = box.min_corner[axis]
        hi = box.max_corner[axis]
        if abs(d) < _EPS:
            if o < lo or o > hi:
                return None
            continue
        t1 = (lo - o) / d
        t2 = (hi - o) / d
        if t1 > t2:
            t1, t2 = t2, t1
        t_min = max(t_min, t1)
        t_max = min(t_max, t2)
        if t_min > t_max:
            return None
    if t_max < 0:
        return None
    return (t_min, t_max)


def raycast_aabbs_batch(
    origin: Vec3,
    directions: np.ndarray,
    box_lo: np.ndarray,
    box_hi: np.ndarray,
    max_range: float,
) -> np.ndarray:
    """Nearest entry distance per ray against a stack of boxes, batched.

    The depth camera's ray cast: one slab test per axis over the
    ``(R rays, O boxes)`` plane, folded across the three axes with
    elementwise maxima/minima.  Elementwise arithmetic reproduces
    :func:`ray_aabb_intersect` operation for operation, so the returned
    depths are bit-identical to looping it over the obstacles per ray.

    Args:
        origin: shared ray origin (one sensor pose).
        directions: ``(R, 3)`` float64 ray directions (need not be unit).
        box_lo: ``(O, 3)`` float64 minimum corners.
        box_hi: ``(O, 3)`` float64 maximum corners.
        max_range: depths beyond this report ``inf`` (nothing sensed).

    Returns:
        ``(R,)`` float64 array: ``max(t_enter, 0)`` of the closest box hit
        with ``t_exit >= 0``, or ``inf`` when no box is hit within range.
    """
    rays = np.asarray(directions, dtype=np.float64)
    lo = np.asarray(box_lo, dtype=np.float64)
    hi = np.asarray(box_hi, dtype=np.float64)
    if lo.shape[0] == 0:
        return np.full(rays.shape[0], math.inf)
    o = (origin.x, origin.y, origin.z)

    # The xyz axis stays out of the broadcast blocks: numpy reduces a
    # length-3 trailing axis with a slow strided loop, so each axis gets its
    # own (R, O) planes and the slab bounds fold with elementwise max/min,
    # starting from the scalar test's (-inf, inf).  The five planes are
    # allocated once and written in place on every axis.
    shape = (rays.shape[0], lo.shape[0])
    t_enter = np.full(shape, -np.inf)
    t_exit = np.full(shape, np.inf)
    t1, t2, near = np.empty(shape), np.empty(shape), np.empty(shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for axis in range(3):
            d = rays[:, axis, None]  # (R, 1)
            lo_rel = lo[:, axis] - o[axis]  # (O,)
            hi_rel = hi[:, axis] - o[axis]
            np.divide(lo_rel, d, out=t1)
            np.divide(hi_rel, d, out=t2)
            np.minimum(t1, t2, out=near)
            far = np.maximum(t1, t2, out=t1)

            # A ray parallel to this axis gets no constraint from the slab
            # when its origin lies inside it and an immediate miss otherwise —
            # the same two branches the scalar slab test takes for
            # abs(d) < eps.
            parallel = np.flatnonzero(np.abs(rays[:, axis]) < _EPS)
            if parallel.size:
                inside = (lo_rel <= 0.0) & (hi_rel >= 0.0)
                near[parallel] = np.where(inside, -np.inf, np.inf)
                far[parallel] = np.where(inside, np.inf, -np.inf)

            np.maximum(t_enter, near, out=t_enter)
            np.minimum(t_exit, far, out=t_exit)

    hit = (t_enter <= t_exit) & (t_exit >= 0.0)
    entry = np.maximum(t_enter, 0.0, out=t_enter)
    entry[~hit] = np.inf
    nearest = entry.min(axis=1)  # (R,)
    return np.where(nearest > max_range, np.inf, nearest)


def segment_intersects_aabb(start: Vec3, end: Vec3, box: AABB) -> bool:
    """True when the straight segment from ``start`` to ``end`` enters the box."""
    if box.contains(start) or box.contains(end):
        return True
    direction = end - start
    if direction.norm_sq() <= _EPS:
        return box.contains(start)
    hit = ray_aabb_intersect(Ray(start, direction), box)
    if hit is None:
        return False
    t_enter, t_exit = hit
    return t_enter <= 1.0 and t_exit >= 0.0


def traverse_voxels(
    start: Vec3,
    end: Vec3,
    resolution: float,
    max_voxels: Optional[int] = None,
) -> Iterator[VoxelKey]:
    """Amanatides–Woo traversal of the voxels between two points.

    Yields every voxel the segment passes through, beginning with the voxel
    containing ``start`` and ending with the voxel containing ``end``.  This
    is the exact traversal used as the reference (highest precision) ray cast
    by the OctoMap insertion and the collision checker.

    Args:
        start: segment start point.
        end: segment end point.
        resolution: voxel edge length in metres.
        max_voxels: optional safety cap on the number of voxels yielded.
    """
    if resolution <= 0:
        raise ValueError("voxel resolution must be positive")

    current = list(voxel_key(start, resolution))
    last = voxel_key(end, resolution)
    direction = end - start
    length = direction.norm()

    yield tuple(current)  # type: ignore[misc]
    if tuple(current) == last or length <= _EPS:
        return

    step = [0, 0, 0]
    t_max = [math.inf, math.inf, math.inf]
    t_delta = [math.inf, math.inf, math.inf]
    for axis in range(3):
        d = direction[axis]
        if d > _EPS:
            step[axis] = 1
            boundary = (current[axis] + 1) * resolution
            t_max[axis] = (boundary - start[axis]) / d
            t_delta[axis] = resolution / d
        elif d < -_EPS:
            step[axis] = -1
            boundary = current[axis] * resolution
            t_max[axis] = (boundary - start[axis]) / d
            t_delta[axis] = -resolution / d

    count = 1
    # Traverse until we reach the end voxel or pass t = 1 (the end point).
    while True:
        axis = t_max.index(min(t_max))
        if t_max[axis] > 1.0 + _EPS:
            return
        current[axis] += step[axis]
        t_max[axis] += t_delta[axis]
        key = (current[0], current[1], current[2])
        yield key
        count += 1
        if key == last:
            return
        if max_voxels is not None and count >= max_voxels:
            return


def sample_ray(start: Vec3, end: Vec3, step: float) -> List[Vec3]:
    """Sample points along a segment at a fixed step, always including the end.

    This is the approximate ray cast whose ``step`` is controlled by the
    OctoMap and planning precision operators: a larger step visits fewer
    sample points (cheaper, coarser) while a smaller step approaches the
    exact traversal.
    """
    if step <= 0:
        raise ValueError("sampling step must be positive")
    direction = end - start
    length = direction.norm()
    if length <= _EPS:
        return [start]
    unit = direction / length
    points: List[Vec3] = []
    t = 0.0
    while t < length:
        points.append(start + unit * t)
        t += step
    points.append(end)
    return points
