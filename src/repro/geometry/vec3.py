"""An immutable 3-D vector type.

``Vec3`` is the fundamental coordinate type used throughout the reproduction:
drone positions, velocities, point-cloud points, voxel centres and waypoints
are all ``Vec3`` instances.  It is deliberately a plain, hashable, frozen
dataclass rather than a numpy array so that it can be used as a dictionary key
(voxel keys, visited sets) and compared for equality in tests without
tolerance headaches.  Bulk numeric work (point clouds, grids) uses numpy
arrays directly and converts at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True, slots=True)
class Vec3:
    """A 3-D vector with float components.

    The class supports the arithmetic needed by the kinematics, planners and
    profilers: addition, subtraction, scalar multiplication/division, dot and
    cross products, norms and normalisation, element-wise min/max and linear
    interpolation.
    """

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zero() -> "Vec3":
        """Return the zero vector."""
        return Vec3(0.0, 0.0, 0.0)

    @staticmethod
    def unit_x() -> "Vec3":
        """Return the +x unit vector."""
        return Vec3(1.0, 0.0, 0.0)

    @staticmethod
    def unit_z() -> "Vec3":
        """Return the +z unit vector."""
        return Vec3(0.0, 0.0, 1.0)

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y
        yield self.z

    def __getitem__(self, index: int) -> float:
        return (self.x, self.y, self.z)[index]

    def __len__(self) -> int:
        return 3

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __mul__(self, scalar: float) -> "Vec3":
        return Vec3(self.x * scalar, self.y * scalar, self.z * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Vec3":
        return Vec3(self.x / scalar, self.y / scalar, self.z / scalar)

    def scale(self, other: "Vec3") -> "Vec3":
        """Element-wise (Hadamard) product."""
        return Vec3(self.x * other.x, self.y * other.y, self.z * other.z)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def dot(self, other: "Vec3") -> float:
        """Dot product."""
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        """Cross product."""
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        """Euclidean length."""
        return math.sqrt(self.dot(self))

    def norm_sq(self) -> float:
        """Squared Euclidean length (avoids the sqrt when comparing)."""
        return self.dot(self)

    def normalized(self) -> "Vec3":
        """Return a unit-length copy.

        Raises:
            ZeroDivisionError: if the vector has zero length.
        """
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalise the zero vector")
        return self / n

    def distance_to(self, other: "Vec3") -> float:
        """Euclidean distance between two points."""
        return (self - other).norm()

    def horizontal_distance_to(self, other: "Vec3") -> float:
        """Distance projected onto the x-y plane (useful for ground range)."""
        dx = self.x - other.x
        dy = self.y - other.y
        return math.hypot(dx, dy)

    def lerp(self, other: "Vec3", t: float) -> "Vec3":
        """Linear interpolation: returns ``self`` at t=0 and ``other`` at t=1."""
        return self + (other - self) * t

    def elementwise_min(self, other: "Vec3") -> "Vec3":
        """Element-wise minimum."""
        return Vec3(min(self.x, other.x), min(self.y, other.y), min(self.z, other.z))

    def elementwise_max(self, other: "Vec3") -> "Vec3":
        """Element-wise maximum."""
        return Vec3(max(self.x, other.x), max(self.y, other.y), max(self.z, other.z))

    def clamp(self, lo: "Vec3", hi: "Vec3") -> "Vec3":
        """Clamp every component into ``[lo, hi]``."""
        return self.elementwise_max(lo).elementwise_min(hi)
