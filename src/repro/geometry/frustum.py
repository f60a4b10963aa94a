"""Camera viewing frustums.

The space-volume feature in the paper is defined by what the drone's field of
view (FOV) covers: "Larger volumes require processing more voxels" (Fig. 1a/1b)
and occlusion near obstacles shrinks the effectively observable volume.  The
``Frustum`` class models a single depth camera's FOV as a pyramid with a
maximum sensing range, supports containment tests for point culling and
reports its volume so the profilers can compute the sensor volume of Table I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.geometry.vec3 import Vec3


@dataclass(frozen=True, slots=True)
class Frustum:
    """A rectangular pyramid representing a depth camera's field of view.

    Attributes:
        apex: camera optical centre in world coordinates.
        forward: unit vector along the camera's optical axis.
        up: unit vector defining the camera's vertical direction.
        horizontal_fov_deg: total horizontal field of view, degrees.
        vertical_fov_deg: total vertical field of view, degrees.
        max_range: far-plane distance (maximum sensing range), metres.
    """

    apex: Vec3
    forward: Vec3
    up: Vec3
    horizontal_fov_deg: float
    vertical_fov_deg: float
    max_range: float

    def __post_init__(self) -> None:
        if not 0 < self.horizontal_fov_deg < 180:
            raise ValueError("horizontal FOV must be in (0, 180) degrees")
        if not 0 < self.vertical_fov_deg < 180:
            raise ValueError("vertical FOV must be in (0, 180) degrees")
        if self.max_range <= 0:
            raise ValueError("max range must be positive")

    # ------------------------------------------------------------------
    # Derived frame
    # ------------------------------------------------------------------
    def right(self) -> Vec3:
        """Unit vector to the camera's right."""
        return self.forward.cross(self.up).normalized()

    def basis(self) -> tuple[Vec3, Vec3, Vec3]:
        """Orthonormal (forward, right, up) camera basis."""
        f = self.forward.normalized()
        r = self.right()
        u = r.cross(f).normalized()
        return f, r, u

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def contains(self, point: Vec3) -> bool:
        """True when the point lies inside the frustum (within max range)."""
        f, r, u = self.basis()
        rel = point - self.apex
        depth = rel.dot(f)
        if depth < 0 or depth > self.max_range:
            return False
        half_w = depth * math.tan(math.radians(self.horizontal_fov_deg) / 2.0)
        half_h = depth * math.tan(math.radians(self.vertical_fov_deg) / 2.0)
        return abs(rel.dot(r)) <= half_w and abs(rel.dot(u)) <= half_h

    def volume(self) -> float:
        """Frustum volume in cubic metres (rectangular pyramid formula)."""
        half_w = self.max_range * math.tan(math.radians(self.horizontal_fov_deg) / 2.0)
        half_h = self.max_range * math.tan(math.radians(self.vertical_fov_deg) / 2.0)
        base_area = (2.0 * half_w) * (2.0 * half_h)
        return base_area * self.max_range / 3.0

    def sample_directions(self, n_horizontal: int, n_vertical: int) -> List[Vec3]:
        """Unit direction vectors on a regular angular grid across the FOV.

        These are the per-pixel ray directions used by the simulated depth
        camera: an ``n_horizontal x n_vertical`` image resolution produces one
        ray per pixel.
        """
        if n_horizontal < 1 or n_vertical < 1:
            raise ValueError("sample counts must be at least 1")
        f, r, u = self.basis()
        h_half = math.radians(self.horizontal_fov_deg) / 2.0
        v_half = math.radians(self.vertical_fov_deg) / 2.0
        directions: List[Vec3] = []
        for i in range(n_horizontal):
            if n_horizontal == 1:
                az = 0.0
            else:
                az = -h_half + (2.0 * h_half) * i / (n_horizontal - 1)
            for j in range(n_vertical):
                if n_vertical == 1:
                    el = 0.0
                else:
                    el = -v_half + (2.0 * v_half) * j / (n_vertical - 1)
                direction = (
                    f * (math.cos(el) * math.cos(az))
                    + r * (math.cos(el) * math.sin(az))
                    + u * math.sin(el)
                )
                directions.append(direction.normalized())
        return directions
