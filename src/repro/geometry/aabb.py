"""Axis-aligned bounding boxes.

AABBs describe obstacles in the synthetic environment, the bounds of the
occupancy map, camera frustum bounds and the volume windows enforced by the
volume operators.  Volumes throughout the reproduction are reported in cubic
metres to match the paper's knob tables (Table II uses m^3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.vec3 import Vec3


@dataclass(frozen=True, slots=True)
class AABB:
    """An axis-aligned box defined by its minimum and maximum corners.

    The box is considered to contain points with ``min <= p <= max``
    (closed on both ends), which matches how the occupancy grid treats voxel
    boundaries.
    """

    min_corner: Vec3
    max_corner: Vec3

    def __post_init__(self) -> None:
        if (
            self.min_corner.x > self.max_corner.x
            or self.min_corner.y > self.max_corner.y
            or self.min_corner.z > self.max_corner.z
        ):
            raise ValueError(
                f"AABB min corner {self.min_corner} exceeds max corner {self.max_corner}"
            )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_center(center: Vec3, size: Vec3) -> "AABB":
        """Build a box from its centre and full edge lengths."""
        half = size * 0.5
        return AABB(center - half, center + half)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def center(self) -> Vec3:
        """The centre point of the box."""
        return (self.min_corner + self.max_corner) * 0.5

    @property
    def size(self) -> Vec3:
        """Edge lengths along each axis."""
        return self.max_corner - self.min_corner

    @property
    def volume(self) -> float:
        """Volume in cubic metres."""
        s = self.size
        return s.x * s.y * s.z

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def contains(self, point: Vec3) -> bool:
        """True when the point lies inside or on the boundary of the box."""
        lo, hi = self.min_corner, self.max_corner
        return (
            lo.x <= point.x <= hi.x
            and lo.y <= point.y <= hi.y
            and lo.z <= point.z <= hi.z
        )

    def expanded(self, margin: float) -> "AABB":
        """Return a copy grown by ``margin`` metres on every side."""
        m = Vec3(margin, margin, margin)
        return AABB(self.min_corner - m, self.max_corner + m)

    def closest_point(self, point: Vec3) -> Vec3:
        """The point inside the box closest to ``point``."""
        return point.clamp(self.min_corner, self.max_corner)

    def distance_to_point(self, point: Vec3) -> float:
        """Euclidean distance from the box surface to the point (0 if inside)."""
        return self.closest_point(point).distance_to(point)

    def clamp_point(self, point: Vec3) -> Vec3:
        """Alias of :meth:`closest_point`, kept for call-site readability."""
        return self.closest_point(point)
