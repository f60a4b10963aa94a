"""Profilers (paper Table I).

"To adjust precision and volume knobs, environmental information, e.g., gaps
between obstacles, and internal drone states, e.g., velocity, are profiled
from the sensors and navigation pipeline.  Profilers post-process each stage's
data structures, e.g., point cloud array, tree map, and trajectory to extract
space characteristics" (§III-C).

Table I lists the profiled variables, which pipeline stage each is extracted
from and what it is used for.  :class:`SpaceProfile` is the bundle of all of
them for one decision; :class:`ProfilerSuite` produces it from the live data
structures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.geometry.vec3 import Vec3
from repro.perception.octomap import OccupancyOctree
from repro.perception.point_cloud import PointCloud
from repro.planning.trajectory import Trajectory
from repro.sensors.rig import RigScan
from repro.sensors.state_sensors import StateEstimate


@dataclass(frozen=True, slots=True)
class SpaceProfile:
    """Spatial features extracted for one decision (Table I).

    Attributes:
        timestamp: when the profile was taken (simulated seconds).
        gap_min: smallest gap between nearby obstacles, metres (point cloud).
        gap_avg: average gap between nearby obstacles, metres (point cloud).
        closest_obstacle: distance to the nearest observed obstacle, metres
            (point cloud / OctoMap / smoother).
        closest_unknown: distance to the nearest unobserved space, metres
            (OctoMap); unknown space also bounds how far ahead the drone may
            trust its map.
        visibility: usable look-ahead distance, metres — the smaller of the
            sensed visibility and the distance to unknown space.
        sensor_volume: volume observable by the sensor rig this decision, m³.
        map_volume: volume already present in the map, m³.
        velocity: current speed, m/s (sensors).
        position: current position (sensors).
        trajectory: the currently tracked trajectory, if any (smoother).
    """

    timestamp: float
    gap_min: float
    gap_avg: float
    closest_obstacle: float
    closest_unknown: float
    visibility: float
    sensor_volume: float
    map_volume: float
    velocity: float
    position: Vec3
    trajectory: Optional[Trajectory]

    def __post_init__(self) -> None:
        for name in (
            "gap_min",
            "gap_avg",
            "closest_obstacle",
            "closest_unknown",
            "visibility",
            "sensor_volume",
            "map_volume",
            "velocity",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")

    def is_near_obstacles(self, threshold: float = 10.0) -> bool:
        """True when the nearest observed obstacle is within ``threshold`` metres."""
        return self.closest_obstacle <= threshold


class ProfilerSuite:
    """Extracts a :class:`SpaceProfile` from the pipeline's data structures.

    Attributes:
        gap_neighbourhood: radius (metres) around the drone inside which point
            pairs contribute to the gap statistics.
        open_space_gap: the gap value reported when fewer than two obstacle
            points are nearby — effectively "no precision constraint".
        unknown_search_radius: how far the map is probed for unknown space.
        max_visibility: cap on the usable visibility, metres (sensor range /
            weather).
    """

    def __init__(
        self,
        gap_neighbourhood: float = 25.0,
        open_space_gap: float = 25.0,
        unknown_search_radius: float = 40.0,
        max_visibility: float = 40.0,
    ) -> None:
        if gap_neighbourhood <= 0:
            raise ValueError("gap neighbourhood must be positive")
        if open_space_gap <= 0:
            raise ValueError("open-space gap must be positive")
        if unknown_search_radius <= 0:
            raise ValueError("unknown search radius must be positive")
        if max_visibility <= 0:
            raise ValueError("maximum visibility must be positive")
        self.gap_neighbourhood = gap_neighbourhood
        self.open_space_gap = open_space_gap
        self.unknown_search_radius = unknown_search_radius
        self.max_visibility = max_visibility

    # ------------------------------------------------------------------
    # Individual profilers (one per Table I row)
    # ------------------------------------------------------------------
    def gap_statistics(self, cloud: PointCloud) -> tuple[float, float]:
        """(min gap, average gap) between obstacle points near the drone.

        Profiled from the point-cloud array.  The gap between two observed
        points approximates the free corridor between the obstacles they lie
        on; the minimum gap lower-bounds the precision needed to see a path
        between them (Eq. 3's ``g_min`` and ``g_avg``).
        """
        nearby = cloud.points_within(self.gap_neighbourhood)
        if len(nearby) < 2:
            return (self.open_space_gap, self.open_space_gap)
        # Nearest-neighbour distance per point from one pairwise distance
        # matrix (the cloud is already grid downsampled, so it stays small).
        # The elementwise arithmetic matches Vec3.distance_to, and the mean is
        # summed sequentially (tolist + sum) rather than with numpy's pairwise
        # reduction, so both statistics equal the per-pair Python loop's.
        pts = np.array([(p.x, p.y, p.z) for p in nearby], dtype=np.float64)
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt(
            (diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1])
            + diff[..., 2] * diff[..., 2]
        )
        np.fill_diagonal(dist, np.inf)
        row_min = dist.min(axis=1)
        gaps = row_min[np.isfinite(row_min)].tolist()
        if not gaps:
            return (self.open_space_gap, self.open_space_gap)
        gap_min = max(min(gaps), 1e-3)
        gap_avg = max(sum(gaps) / len(gaps), gap_min)
        return (gap_min, gap_avg)

    def closest_obstacle(
        self,
        cloud: PointCloud,
        octree: Optional[OccupancyOctree],
        position: Vec3,
    ) -> float:
        """Distance to the nearest known obstacle (point cloud, then map).

        The freshest estimate comes from the current point cloud; the map is
        consulted only when the cloud is empty (nothing currently in view),
        capped at the profiler's visibility limit.  The map query is the
        spatial index's expanding-ring search, which already returns the
        visibility cap on an empty map, so no emptiness guard is needed.
        """
        cloud_distance = cloud.nearest_distance()
        if math.isfinite(cloud_distance):
            return min(cloud_distance, self.max_visibility)
        if octree is not None:
            return octree.nearest_occupied_distance(position, self.max_visibility)
        return self.max_visibility

    def closest_unknown(
        self,
        octree: Optional[OccupancyOctree],
        position: Vec3,
        heading: Optional[Vec3] = None,
    ) -> float:
        """Distance to the nearest unobserved space ahead of the drone (OctoMap).

        Unknown space only limits the usable look-ahead along the direction of
        travel, so the probe walks the heading direction (falling back to +x
        when the drone has no meaningful heading) rather than all axes.
        """
        if octree is None or octree.observed_voxel_count() == 0:
            return 0.0
        direction = (
            heading if heading is not None and heading.norm_sq() > 1e-9 else Vec3.unit_x()
        )
        direction = direction.normalized()
        step = max(octree.free_resolution, 1.0)
        r = step
        while r <= self.unknown_search_radius:
            if octree.is_unknown(position + direction * r):
                return r
            r += step
        return self.unknown_search_radius

    def visibility(self, scan: Optional[RigScan], closest_unknown: float) -> float:
        """Usable look-ahead distance.

        Visibility is limited by the closest return of the forward camera (the
        nearest thing in the direction of travel) and by how far the map has
        been observed: space beyond the nearest unknown region cannot be
        trusted to be free.
        """
        sensed = scan.forward_min_depth() if scan is not None else self.max_visibility
        usable = min(sensed, self.max_visibility)
        if closest_unknown > 0:
            usable = min(usable, max(closest_unknown, 1.0))
        return usable

    def sensor_volume(self, scan: Optional[RigScan], rig_max_volume: float) -> float:
        """Observable volume this decision, m³ (the v_sensor bound of Eq. 3).

        Occlusion shrinks the usable frustum: the volume is scaled by the cube
        of the mean visible fraction of the sensing range.
        """
        if scan is None:
            return rig_max_volume
        max_range = scan.images[0].max_range if scan.images else 1.0
        fraction = min(1.0, scan.mean_visibility() / max_range)
        return rig_max_volume * fraction**3

    def map_volume(self, octree: Optional[OccupancyOctree]) -> float:
        """Observed map volume, m³ (the v_map bound of Eq. 3)."""
        if octree is None:
            return 0.0
        return octree.observed_volume()

    # ------------------------------------------------------------------
    # Full profile
    # ------------------------------------------------------------------
    def profile(
        self,
        timestamp: float,
        state: StateEstimate,
        cloud: PointCloud,
        scan: Optional[RigScan],
        octree: Optional[OccupancyOctree],
        trajectory: Optional[Trajectory],
        rig_max_volume: float,
        heading: Optional[Vec3] = None,
    ) -> SpaceProfile:
        """Assemble the full Table I profile for one decision.

        Args:
            heading: direction of travel used for the unknown-space probe;
                defaults to the current velocity direction (or +x when
                hovering).
        """
        travel_direction = heading
        if travel_direction is None and state.velocity.norm_sq() > 1e-9:
            travel_direction = state.velocity
        gap_min, gap_avg = self.gap_statistics(cloud)
        closest_obs = self.closest_obstacle(cloud, octree, state.position)
        closest_unknown = self.closest_unknown(octree, state.position, travel_direction)
        visibility = self.visibility(scan, closest_unknown)
        return SpaceProfile(
            timestamp=timestamp,
            gap_min=gap_min,
            gap_avg=gap_avg,
            closest_obstacle=closest_obs,
            closest_unknown=closest_unknown,
            visibility=visibility,
            sensor_volume=self.sensor_volume(scan, rig_max_volume),
            map_volume=self.map_volume(octree),
            velocity=state.speed,
            position=state.position,
            trajectory=trajectory,
        )
