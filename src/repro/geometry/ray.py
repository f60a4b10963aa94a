"""Rays, ray/box intersection and ray sampling.

Two of RoboRun's precision operators are ray-caster step-size controls: the
OctoMap insertion ray caster and the planner's collision ray caster both have
their step size scaled with the requested precision (§III-B, "Precision
Operators").  This module provides the underlying machinery:

* :func:`ray_aabb_intersect` — slab-test intersection used for obstacle and
  frustum clipping.
* :func:`sample_ray` — fixed-step sampling along a ray, whose step size is the
  knob the precision operators turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.geometry.aabb import AABB
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

    def unit(self) -> "Ray":
        """Return a copy with a unit-length direction."""
        return Ray(self.origin, self.direction.normalized())


def ray_aabb_intersect(ray: Ray, box: AABB) -> Optional[Tuple[float, float]]:
    """Slab-test ray/box intersection.

    Returns:
        ``(t_enter, t_exit)`` such that ``origin + t * direction`` lies
        inside the box for ``t_enter <= t <= t_exit`` and ``t_exit >= 0``,
        or ``None`` when the ray misses the box entirely or the box lies
        behind the origin.
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
