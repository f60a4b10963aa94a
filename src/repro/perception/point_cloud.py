"""The point-cloud kernel.

"We use the Point cloud kernel to extract obstacle positions by converting
pixels to 3D coordinates" (§III-A).  The kernel consumes the depth images
captured by the camera rig and produces a :class:`PointCloud`.  Its precision
operator "is enforced by controlling the sampling distance between points. We
grid the space into cells, map the points onto the cells using their
coordinates, and then reduce each cell to a single average point" (§III-B) —
implemented here via :class:`~repro.geometry.grid.VoxelGrid`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.geometry.aabb import AABB
from repro.geometry.grid import downsample_points
from repro.geometry.vec3 import Vec3, centroid
from repro.sensors.rig import RigScan


@dataclass(frozen=True, slots=True)
class PointCloud:
    """A set of 3-D obstacle points measured from a single drone pose.

    Attributes:
        origin: the sensor position the points were observed from.
        points: obstacle surface points in world coordinates.
        raw_point_count: number of points before precision downsampling, used
            by the compute model to charge the fixed point-cloud conversion
            cost the paper reports (about 210 ms regardless of the knobs).
        resolution: the grid resolution the cloud was downsampled at, metres.
    """

    origin: Vec3
    points: tuple[Vec3, ...]
    raw_point_count: int
    resolution: float
    _array: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )
    _origin_distances: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.points)

    def is_empty(self) -> bool:
        """True when no obstacle points were observed."""
        return not self.points

    def as_array(self) -> np.ndarray:
        """The points as a cached, contiguous ``(N, 3)`` float64 array."""
        array = self._array
        if array is None:
            array = np.array(
                [(p.x, p.y, p.z) for p in self.points], dtype=np.float64
            ).reshape(len(self.points), 3)
            object.__setattr__(self, "_array", array)
        return array

    def origin_distances(self) -> np.ndarray:
        """Cached per-point distance to the sensor origin, ``(N,)`` float64.

        Computed with the same left-to-right summation order as
        ``Vec3.distance_to`` so every entry equals the scalar distance bit
        for bit.
        """
        distances = self._origin_distances
        if distances is None:
            pts = self.as_array()
            d = pts - np.array(
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
        if not self.points:
            return math.inf
        return float(self.origin_distances().min())

    def centroid(self) -> Optional[Vec3]:
        """Mean of the observed points, or ``None`` when empty."""
        if not self.points:
            return None
        return centroid(list(self.points))

    def points_within(self, radius: float) -> List[Vec3]:
        """Points within ``radius`` metres of the sensor origin."""
        mask = self.origin_distances() <= radius
        return [self.points[i] for i in np.flatnonzero(mask)]

    def bounding_volume(self) -> float:
        """Volume (m^3) of the axis-aligned box containing all points (0 when < 2 points)."""
        if len(self.points) < 2:
            return 0.0
        return AABB.from_points(list(self.points)).volume


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

    def process(
        self,
        scan: RigScan,
        resolution: Optional[float] = None,
        max_points: Optional[int] = None,
    ) -> PointCloud:
        """Convert a rig scan into a point cloud at the requested precision.

        Args:
            scan: the merged depth images from the camera rig.
            resolution: grid cell edge used for the precision operator; when
                ``None`` the kernel's default (static) resolution is used.
            max_points: optional hard cap applied after downsampling, keeping
                the points closest to the sensor (a volume-style guard used
                in stress tests; the paper's volume operators act on the map
                instead).

        Returns:
            The downsampled point cloud.
        """
        res = self.default_resolution if resolution is None else resolution
        if res <= 0:
            raise ValueError("point-cloud resolution must be positive")
        raw_points = scan.all_hit_points()
        reduced = downsample_points(raw_points, res) if raw_points else []
        if max_points is not None and len(reduced) > max_points:
            reduced.sort(key=lambda p: scan.position.distance_to(p))
            reduced = reduced[:max_points]
        return PointCloud(
            origin=scan.position,
            points=tuple(reduced),
            raw_point_count=len(raw_points),
            resolution=res,
        )

    @staticmethod
    def from_points(
        origin: Vec3, points: Sequence[Vec3], resolution: float
    ) -> PointCloud:
        """Build a cloud directly from points (used heavily by unit tests)."""
        reduced = downsample_points(list(points), resolution) if points else []
        return PointCloud(
            origin=origin,
            points=tuple(reduced),
            raw_point_count=len(points),
            resolution=resolution,
        )
