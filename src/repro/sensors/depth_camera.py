"""A ray-casting depth camera.

The real system converts camera pixels into 3-D points in the Point Cloud
kernel.  Our substitute produces the depth image directly by casting one ray
per pixel against the obstacle world; the point-cloud kernel then performs
the same depth→3-D conversion the paper describes.  The camera also reports
the visibility (distance to the first hit, or max range) per pixel, which the
profilers aggregate into the space-visibility feature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.environment.world import World
from repro.geometry.frustum import Frustum
from repro.geometry.ray import raycast_aabbs_batch
from repro.geometry.vec3 import Vec3


@dataclass(frozen=True, slots=True)
class DepthImage:
    """Output of one camera capture.

    Attributes:
        origin: camera optical centre at capture time.
        directions: unit ray direction per pixel (row-major).
        depths: measured depth per pixel; ``math.inf`` where nothing was hit
            within the maximum range.
        max_range: the camera's maximum sensing range.
        width: horizontal pixel count.
        height: vertical pixel count.
    """

    origin: Vec3
    directions: Tuple[Vec3, ...]
    depths: Tuple[float, ...]
    max_range: float
    width: int
    height: int
    _dir_array: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.directions) != len(self.depths):
            raise ValueError("directions and depths must have the same length")
        if len(self.depths) != self.width * self.height:
            raise ValueError("pixel count does not match width * height")

    def hit_points(self) -> List[Vec3]:
        """World-space 3-D points for every pixel that hit an obstacle.

        Each point is ``origin + direction * depth`` with the same per-axis
        multiply-then-add as the ``Vec3`` arithmetic, so it is bit-identical
        to computing the points one pixel at a time.
        """
        depths = np.array(self.depths, dtype=np.float64)
        idx = np.flatnonzero(np.isfinite(depths))
        if idx.size == 0:
            return []
        directions = self._dir_array
        if directions is None:
            directions = np.array(
                [(d.x, d.y, d.z) for d in self.directions], dtype=np.float64
            )
        o = np.array((self.origin.x, self.origin.y, self.origin.z))
        pts = o + directions[idx] * depths[idx][:, None]
        return [Vec3(x, y, z) for x, y, z in pts.tolist()]

    def hit_count(self) -> int:
        """Number of pixels that measured a finite depth."""
        return sum(1 for d in self.depths if math.isfinite(d))

    def min_depth(self) -> float:
        """The closest measured depth (max range when nothing was hit)."""
        finite = [d for d in self.depths if math.isfinite(d)]
        return min(finite) if finite else self.max_range

    def mean_visibility(self) -> float:
        """Mean unobstructed distance across all pixels.

        Pixels that saw nothing contribute the maximum range, so an empty
        scene reports full visibility.
        """
        if not self.depths:
            return self.max_range
        total = 0.0
        for depth in self.depths:
            total += depth if math.isfinite(depth) else self.max_range
        return total / len(self.depths)


@dataclass
class DepthCamera:
    """A pin-hole depth camera simulated by per-pixel ray casting.

    Attributes:
        horizontal_fov_deg: total horizontal field of view in degrees.
        vertical_fov_deg: total vertical field of view in degrees.
        width: horizontal resolution in pixels (rays).
        height: vertical resolution in pixels (rays).
        max_range: maximum sensing range in metres; beyond it, pixels report
            infinity.
        mount_yaw_deg: yaw offset of the camera relative to the drone body,
            used by the rig to point the six cameras in different directions.
    """

    horizontal_fov_deg: float = 90.0
    vertical_fov_deg: float = 60.0
    width: int = 16
    height: int = 12
    max_range: float = 40.0
    mount_yaw_deg: float = 0.0

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("camera resolution must be at least 1x1")
        if self.max_range <= 0:
            raise ValueError("camera max range must be positive")
        # Ray-fan memo: the pixel directions depend only on the total yaw (the
        # fan is position-independent), so repeated captures at the same yaw —
        # the common case, the pipeline flies yaw-locked — reuse one fan.
        self._fan_cache: Dict[float, Tuple[Tuple[Vec3, ...], np.ndarray]] = {}

    def pixel_count(self) -> int:
        """Total rays cast per capture."""
        return self.width * self.height

    def frustum(self, position: Vec3, body_yaw_deg: float = 0.0) -> Frustum:
        """The camera's viewing frustum at the given drone pose."""
        yaw = math.radians(body_yaw_deg + self.mount_yaw_deg)
        forward = Vec3(math.cos(yaw), math.sin(yaw), 0.0)
        return Frustum(
            apex=position,
            forward=forward,
            up=Vec3.unit_z(),
            horizontal_fov_deg=self.horizontal_fov_deg,
            vertical_fov_deg=self.vertical_fov_deg,
            max_range=self.max_range,
        )

    def ray_fan(
        self, position: Vec3, body_yaw_deg: float = 0.0
    ) -> Tuple[Tuple[Vec3, ...], np.ndarray]:
        """The per-pixel ray directions at a pose, as Vec3s and an ``(R, 3)`` array.

        Directions depend only on the yaw, so the fan is memoised per yaw: the
        trigonometric sampling pass runs once per distinct heading instead of
        once per capture.
        """
        yaw = body_yaw_deg + self.mount_yaw_deg
        cached = self._fan_cache.get(yaw)
        if cached is None:
            directions = tuple(
                self.frustum(position, body_yaw_deg).sample_directions(
                    self.width, self.height
                )
            )
            array = np.array(
                [(d.x, d.y, d.z) for d in directions], dtype=np.float64
            ).reshape(len(directions), 3)
            cached = (directions, array)
            self._fan_cache[yaw] = cached
        return cached

    def capture(self, world: World, position: Vec3, body_yaw_deg: float = 0.0) -> DepthImage:
        """Capture a depth image of the world from the given pose.

        One batched slab test runs over every ``(ray, obstacle)`` pair; each
        pixel's depth is the nearest non-negative entry distance, or
        infinity when nothing is hit within the maximum range.
        """
        directions, dir_array = self.ray_fan(position, body_yaw_deg)
        box_lo, box_hi = world.obstacle_arrays_near(position, self.max_range)
        depths_array = raycast_aabbs_batch(
            position, dir_array, box_lo, box_hi, self.max_range
        )
        image = DepthImage(
            origin=position,
            directions=directions,
            depths=tuple(depths_array.tolist()),
            max_range=self.max_range,
            width=self.width,
            height=self.height,
        )
        object.__setattr__(image, "_dir_array", dir_array)
        return image
