"""The point-cloud kernel.

"We use the Point cloud kernel to extract obstacle positions by converting
pixels to 3D coordinates" (§III-A).  The kernel consumes the depth images
captured by the camera rig and produces a :class:`PointCloud`.  Its precision
operator "is enforced by controlling the sampling distance between points. We
grid the space into cells, map the points onto the cells using their
coordinates, and then reduce each cell to a single average point" (§III-B) —
implemented here via :func:`~repro.geometry.grid.downsample` on the scan's
``(N, 3)`` hit-point array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.geometry.grid import downsample
from repro.geometry.vec3 import Vec3
from repro.sensors.rig import RigScan


@dataclass(frozen=True, slots=True, eq=False)
class PointCloud:
    """A set of 3-D obstacle points measured from a single drone pose.

    Attributes:
        origin: the sensor position the points were observed from.
        points: obstacle surface points in world coordinates, an ``(N, 3)``
            float64 array.
        raw_point_count: number of points before precision downsampling, used
            by the compute model to charge the fixed point-cloud conversion
            cost the paper reports (about 210 ms regardless of the knobs).
        resolution: the grid resolution the cloud was downsampled at, metres.
    """

    origin: Vec3
    points: np.ndarray
    raw_point_count: int
    resolution: float
    _origin_distances: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return int(self.points.shape[0])

    def is_empty(self) -> bool:
        """True when no obstacle points were observed."""
        return self.points.shape[0] == 0

    def origin_distances(self) -> np.ndarray:
        """Cached per-point distance to the sensor origin, ``(N,)`` float64.

        Computed with the same left-to-right summation order as
        ``Vec3.distance_to`` so every entry equals the scalar distance bit
        for bit.
        """
        distances = self._origin_distances
        if distances is None:
            d = self.points - np.array(
                (self.origin.x, self.origin.y, self.origin.z), dtype=np.float64
            )
            distances = np.sqrt(
                (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2]
            )
            object.__setattr__(self, "_origin_distances", distances)
        return distances

    def nearest_distance(self) -> float:
        """Distance from the origin to the closest observed point.

        Returns ``math.inf`` for an empty cloud, signalling "no visible
        obstacle" to the profilers.
        """
        if self.is_empty():
            return math.inf
        return float(self.origin_distances().min())

    def points_within(self, radius: float) -> np.ndarray:
        """The ``(M, 3)`` points within ``radius`` metres of the sensor origin."""
        return self.points[self.origin_distances() <= radius]


@dataclass
class PointCloudKernel:
    """Converts rig scans into (optionally downsampled) point clouds.

    Attributes:
        default_resolution: grid resolution used when the runtime does not
            override precision, metres.  The static baseline keeps this at the
            worst-case 0.3 m from Table II.
    """

    default_resolution: float = 0.3

    def __post_init__(self) -> None:
        if self.default_resolution <= 0:
            raise ValueError("point-cloud resolution must be positive")

    def process(self, scan: RigScan, resolution: Optional[float] = None) -> PointCloud:
        """Convert a rig scan into a point cloud at the requested precision.

        Args:
            scan: the merged depth images from the camera rig.
            resolution: grid cell edge used for the precision operator; when
                ``None`` the kernel's default (static) resolution is used.

        Returns:
            The downsampled point cloud.
        """
        res = self.default_resolution if resolution is None else resolution
        if res <= 0:
            raise ValueError("point-cloud resolution must be positive")
        raw_points = scan.hit_array()
        return PointCloud(
            origin=scan.position,
            points=downsample(raw_points, res),
            raw_point_count=raw_points.shape[0],
            resolution=res,
        )

    @staticmethod
    def from_points(
        origin: Vec3, points: Sequence[Vec3], resolution: float
    ) -> PointCloud:
        """Build a cloud directly from points (used heavily by unit tests)."""
        array = np.array([(p.x, p.y, p.z) for p in points], dtype=np.float64)
        return PointCloud(
            origin=origin,
            points=downsample(array.reshape(len(points), 3), resolution),
            raw_point_count=len(points),
            resolution=resolution,
        )
