"""Geometric primitives shared by every substrate in the RoboRun reproduction.

The paper's pipeline operates on 3-D space: point clouds from depth cameras,
voxelised occupancy maps (OctoMap), ray casting for map insertion and
collision checking, and field-of-view frustums that bound the volume of space
a sensor can observe.  This package provides those primitives:

* :class:`~repro.geometry.vec3.Vec3` — an immutable 3-D vector.
* :class:`~repro.geometry.aabb.AABB` — axis-aligned bounding boxes.
* :class:`~repro.geometry.ray.Ray` and
  :func:`~repro.geometry.ray.ray_aabb_intersect` — the slab test behind the
  depth cameras' ray cast.
* :func:`~repro.geometry.grid.downsample` — the grid-average downsampling
  behind the point-cloud precision operator.
* :class:`~repro.geometry.frustum.Frustum` — a camera viewing frustum used by
  the sensor models and the space-volume profilers.
"""

from repro.geometry.aabb import AABB
from repro.geometry.frustum import Frustum
from repro.geometry.grid import downsample, voxel_key
from repro.geometry.ray import Ray, ray_aabb_intersect
from repro.geometry.vec3 import Vec3

__all__ = [
    "AABB",
    "Frustum",
    "Ray",
    "Vec3",
    "downsample",
    "ray_aabb_intersect",
    "voxel_key",
]
