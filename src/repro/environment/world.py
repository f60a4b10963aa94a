"""The obstacle world.

A :class:`World` is a bounded 3-D region containing axis-aligned box
obstacles.  It provides the spatial queries that both the simulated sensors
and RoboRun's profilers rely on:

* occupancy tests and segment collision checks (planner collision checking);
* distance to the nearest obstacle (drives the precision demand near
  obstacles, Table I "closest obstacle");
* visibility along a heading (the space-visibility feature of §II-A);
* local obstacle density and gap statistics (drive the precision constraint
  ``g_min <= p_0 <= min(p_1, g_avg, d_obs)`` of Eq. 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.aabb import AABB
from repro.geometry.ray import Ray, ray_aabb_intersect, segment_intersects_aabb
from repro.geometry.vec3 import Vec3


def _corner_arrays(obstacles: Sequence[Obstacle]) -> Tuple[np.ndarray, np.ndarray]:
    """Stack obstacle boxes into contiguous ``(N, 3)`` min/max corner arrays."""
    n = len(obstacles)
    lo = np.empty((n, 3), dtype=np.float64)
    hi = np.empty((n, 3), dtype=np.float64)
    for row, obstacle in enumerate(obstacles):
        box = obstacle.box
        lo[row, 0] = box.min_corner.x
        lo[row, 1] = box.min_corner.y
        lo[row, 2] = box.min_corner.z
        hi[row, 0] = box.max_corner.x
        hi[row, 1] = box.max_corner.y
        hi[row, 2] = box.max_corner.z
    return lo, hi


def _boxes_distance_to_point(
    lo: np.ndarray, hi: np.ndarray, point: Vec3
) -> np.ndarray:
    """Surface distance from each box to a point (0 when inside), batched.

    Reproduces ``AABB.distance_to_point`` per box: clamp the point to the box
    then take the euclidean distance, with the same left-to-right summation
    order as ``Vec3.distance_to`` so results are bit-identical.
    """
    p = np.array((point.x, point.y, point.z), dtype=np.float64)
    closest = np.minimum(np.maximum(p, lo), hi)
    d = closest - p
    return np.sqrt((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2])


@dataclass(frozen=True, slots=True)
class Obstacle:
    """A static, axis-aligned box obstacle."""

    box: AABB
    name: str = "obstacle"

    @property
    def center(self) -> Vec3:
        """Obstacle centre point."""
        return self.box.center

    def distance_to(self, point: Vec3) -> float:
        """Distance from the obstacle surface to a point (0 when inside)."""
        return self.box.distance_to_point(point)


class World:
    """A bounded region populated with box obstacles.

    The world uses a coarse 2-D spatial hash over the x-y plane to keep
    nearest-obstacle and collision queries fast even with hundreds of
    obstacles; drones fly well above or below obstacles rarely enough in the
    paper's warehouse scenarios that a 2-D bucketing is an effective filter.

    Besides the hashed static obstacles, the world carries a small *dynamic*
    obstacle layer (:meth:`set_dynamic_obstacles`): the current boxes of the
    kinematic movers from :mod:`repro.worlds.movers`.  Movers are replaced
    wholesale once per decision epoch and number at most a handful, so they
    are scanned linearly instead of re-hashed — every occupancy, collision,
    proximity and density query below folds them in.
    """

    def __init__(
        self,
        bounds: AABB,
        obstacles: Optional[Iterable[Obstacle]] = None,
        hash_cell: float = 20.0,
    ) -> None:
        if hash_cell <= 0:
            raise ValueError("spatial hash cell size must be positive")
        self.bounds = bounds
        self._hash_cell = hash_cell
        self._obstacles: List[Obstacle] = []
        self._hash: dict[Tuple[int, int], List[int]] = {}
        self._dynamic: List[Obstacle] = []
        self._agents: List[Obstacle] = []
        # Lazily rebuilt corner-array snapshots.  The static snapshot changes
        # only when obstacles are added (construction time); the unhashed
        # (mover + agent) snapshot is invalidated when a layer is replaced —
        # once per decision epoch — so batched queries pay one stacking pass
        # per epoch rather than a Python loop per probe.
        self._static_arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._unhashed_arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None
        for obstacle in obstacles or []:
            self.add_obstacle(obstacle)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_obstacle(self, obstacle: Obstacle) -> None:
        """Add an obstacle, indexing it in the spatial hash."""
        index = len(self._obstacles)
        self._obstacles.append(obstacle)
        self._static_arrays = None
        for key in self._hash_keys_for_box(obstacle.box):
            self._hash.setdefault(key, []).append(index)

    def _hash_keys_for_box(self, box: AABB) -> Iterable[Tuple[int, int]]:
        x0 = int(math.floor(box.min_corner.x / self._hash_cell))
        x1 = int(math.floor(box.max_corner.x / self._hash_cell))
        y0 = int(math.floor(box.min_corner.y / self._hash_cell))
        y1 = int(math.floor(box.max_corner.y / self._hash_cell))
        for ix in range(x0, x1 + 1):
            for iy in range(y0, y1 + 1):
                yield (ix, iy)

    def _candidate_indices(self, point: Vec3, radius: float) -> List[int]:
        x0 = int(math.floor((point.x - radius) / self._hash_cell))
        x1 = int(math.floor((point.x + radius) / self._hash_cell))
        y0 = int(math.floor((point.y - radius) / self._hash_cell))
        y1 = int(math.floor((point.y + radius) / self._hash_cell))
        seen: set[int] = set()
        result: List[int] = []
        for ix in range(x0, x1 + 1):
            for iy in range(y0, y1 + 1):
                for idx in self._hash.get((ix, iy), ()):
                    if idx not in seen:
                        seen.add(idx)
                        result.append(idx)
        return result

    # ------------------------------------------------------------------
    # Dynamic obstacle layer
    # ------------------------------------------------------------------
    def set_dynamic_obstacles(self, obstacles: Iterable[Obstacle]) -> None:
        """Replace the dynamic obstacle layer (the movers' current boxes).

        Called once per decision epoch by
        :meth:`repro.worlds.movers.DynamicObstacleSet.step`; the layer is
        small and scanned linearly, so no re-hashing happens.
        """
        self._dynamic = list(obstacles)
        self._unhashed_arrays = None

    @property
    def dynamic_obstacles(self) -> Sequence[Obstacle]:
        """The dynamic obstacle layer at its most recently stepped epoch."""
        return tuple(self._dynamic)

    # ------------------------------------------------------------------
    # Agent (peer drone) layer
    # ------------------------------------------------------------------
    def set_agent_obstacles(self, obstacles: Iterable[Obstacle]) -> None:
        """Replace the agent layer: the other drones of a fleet, as boxes.

        Kept separate from the mover layer because
        :meth:`~repro.worlds.movers.DynamicObstacleSet.step` replaces the
        dynamic layer wholesale at the sense boundary; the fleet simulator
        refreshes this layer per drone turn instead.  Empty for single-drone
        missions, so they pay nothing.
        """
        self._agents = list(obstacles)
        self._unhashed_arrays = None

    @property
    def agent_obstacles(self) -> Sequence[Obstacle]:
        """The agent obstacle layer (peer drones), as most recently set."""
        return tuple(self._agents)

    def _unhashed_obstacles(self) -> List[Obstacle]:
        """Movers plus peer agents — the obstacles scanned linearly."""
        if not self._agents:
            return self._dynamic
        return self._dynamic + self._agents

    def _unhashed_corner_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The memoised per-epoch snapshot of the mover + agent boxes."""
        arrays = self._unhashed_arrays
        if arrays is None:
            arrays = _corner_arrays(self._unhashed_obstacles())
            self._unhashed_arrays = arrays
        return arrays

    def _static_corner_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Corner arrays for every static obstacle, rebuilt only on insertion."""
        arrays = self._static_arrays
        if arrays is None:
            arrays = _corner_arrays(self._obstacles)
            self._static_arrays = arrays
        return arrays

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def obstacles(self) -> Sequence[Obstacle]:
        """All static obstacles in insertion order (movers excluded)."""
        return tuple(self._obstacles)

    def obstacles_near(self, point: Vec3, radius: float) -> List[Obstacle]:
        """Obstacles whose spatial-hash cells fall within ``radius`` of a point.

        This is a broad-phase filter (it may return obstacles slightly beyond
        the radius) that spares a ray cast from testing every obstacle in the
        world; :meth:`obstacle_arrays_near` is the array form the depth
        cameras use.  Dynamic obstacles within the radius are appended after
        the static candidates.
        """
        result = [self._obstacles[idx] for idx in self._candidate_indices(point, radius)]
        result.extend(
            obstacle
            for obstacle in self._unhashed_obstacles()
            if obstacle.box.distance_to_point(point) <= radius
        )
        return result

    def obstacle_arrays_near(
        self, point: Vec3, radius: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Corner arrays of :meth:`obstacles_near`'s candidates, stacked.

        What the depth camera casts against: the same static hash candidates
        plus the same distance-filtered mover/agent boxes, but
        returned as two ``(K, 3)`` min/max corner arrays sliced out of the
        memoised snapshots instead of a list of :class:`Obstacle` objects.
        """
        static_lo, static_hi = self._static_corner_arrays()
        indices = self._candidate_indices(point, radius)
        lo = static_lo[indices]
        hi = static_hi[indices]
        if self._dynamic or self._agents:
            dyn_lo, dyn_hi = self._unhashed_corner_arrays()
            near = _boxes_distance_to_point(dyn_lo, dyn_hi, point) <= radius
            if near.any():
                lo = np.concatenate([lo, dyn_lo[near]])
                hi = np.concatenate([hi, dyn_hi[near]])
        return lo, hi

    def obstacle_count(self) -> int:
        """Number of static obstacles."""
        return len(self._obstacles)

    # ------------------------------------------------------------------
    # Occupancy / collision
    # ------------------------------------------------------------------
    def is_occupied(self, point: Vec3, margin: float = 0.0) -> bool:
        """True when a point is inside (or within ``margin`` of) an obstacle."""
        for idx in self._candidate_indices(point, margin + self._hash_cell):
            obstacle = self._obstacles[idx]
            if margin == 0.0:
                if obstacle.box.contains(point):
                    return True
            elif obstacle.box.expanded(margin).contains(point):
                return True
        for obstacle in self._unhashed_obstacles():
            box = obstacle.box if margin == 0.0 else obstacle.box.expanded(margin)
            if box.contains(point):
                return True
        return False

    def is_inside_bounds(self, point: Vec3) -> bool:
        """True when the point lies inside the world bounds."""
        return self.bounds.contains(point)

    def segment_collides(self, start: Vec3, end: Vec3, margin: float = 0.0) -> bool:
        """True when the straight segment hits any obstacle (inflated by margin)."""
        mid = start.lerp(end, 0.5)
        radius = start.distance_to(end) * 0.5 + margin + self._hash_cell
        for idx in self._candidate_indices(mid, radius):
            box = self._obstacles[idx].box
            if margin > 0.0:
                box = box.expanded(margin)
            if segment_intersects_aabb(start, end, box):
                return True
        for obstacle in self._unhashed_obstacles():
            box = obstacle.box if margin == 0.0 else obstacle.box.expanded(margin)
            if segment_intersects_aabb(start, end, box):
                return True
        return False

    # ------------------------------------------------------------------
    # Spatial features (the paper's four heterogeneity features live here)
    # ------------------------------------------------------------------
    def nearest_obstacle_distance(self, point: Vec3, search_radius: float = 200.0) -> float:
        """Distance to the closest obstacle surface.

        Returns ``search_radius`` when no obstacle lies within the radius,
        which mirrors the "no nearby threat" saturation the profilers use.
        """
        best = search_radius
        for idx in self._candidate_indices(point, search_radius):
            d = self._obstacles[idx].distance_to(point)
            if d < best:
                best = d
        for obstacle in self._unhashed_obstacles():
            d = obstacle.distance_to(point)
            if d < best:
                best = d
        return best

    def visibility_along(self, origin: Vec3, direction: Vec3, max_range: float) -> float:
        """Unobstructed distance along ``direction`` before hitting an obstacle.

        This is the paper's space-visibility feature: the further the drone
        can see, the longer its decision deadline can be (Figure 2b).  The
        returned value is clamped to ``max_range`` (sensor range / weather).
        """
        if max_range <= 0:
            return 0.0
        if direction.norm_sq() == 0.0:
            return max_range
        ray = Ray(origin, direction.normalized())
        nearest = max_range
        probe_point = origin + direction.normalized() * (max_range * 0.5)
        candidates = [
            self._obstacles[idx].box
            for idx in self._candidate_indices(probe_point, max_range)
        ]
        candidates.extend(obstacle.box for obstacle in self._unhashed_obstacles())
        for box in candidates:
            hit = ray_aabb_intersect(ray, box)
            if hit is None:
                continue
            t_enter, t_exit = hit
            if t_exit < 0:
                continue
            entry = max(t_enter, 0.0)
            if entry < nearest:
                nearest = entry
        return min(nearest, max_range)

    def obstacle_density(self, point: Vec3, radius: float) -> float:
        """Fraction of the sampling disc around ``point`` occupied by obstacles.

        Matches the generator's definition: "obstacle density determines the
        ratio of occupied cells around a grid cell" (§IV).  Estimated by
        sampling a coarse 2-D grid at the drone's altitude.
        """
        if radius <= 0:
            raise ValueError("density radius must be positive")
        step = max(radius / 8.0, 0.5)
        total = 0
        occupied = 0
        x = point.x - radius
        while x <= point.x + radius:
            y = point.y - radius
            while y <= point.y + radius:
                if math.hypot(x - point.x, y - point.y) <= radius:
                    total += 1
                    if self.is_occupied(Vec3(x, y, point.z)):
                        occupied += 1
                y += step
            x += step
        if total == 0:
            return 0.0
        return occupied / total

    def gap_statistics(
        self, point: Vec3, radius: float
    ) -> Tuple[float, float]:
        """Return ``(min_gap, avg_gap)`` between obstacles near a point.

        The gap between two obstacles is the surface-to-surface distance
        between their boxes.  Only obstacles within ``radius`` of the query
        point participate.  When fewer than two obstacles are nearby, both
        statistics saturate at ``radius`` — an "open sky" answer that lets
        the solver relax precision all the way to its upper bound.
        """
        nearby = [
            self._obstacles[idx]
            for idx in self._candidate_indices(point, radius)
            if self._obstacles[idx].distance_to(point) <= radius
        ]
        if len(nearby) < 2:
            return (radius, radius)
        gaps: List[float] = []
        for i in range(len(nearby)):
            best = math.inf
            for j in range(len(nearby)):
                if i == j:
                    continue
                gap = _box_gap(nearby[i].box, nearby[j].box)
                if gap < best:
                    best = gap
            if math.isfinite(best):
                gaps.append(best)
        if not gaps:
            return (radius, radius)
        return (min(gaps), sum(gaps) / len(gaps))

    def free_space_ratio_along(
        self, start: Vec3, end: Vec3, samples: int = 50
    ) -> float:
        """Fraction of sample points along a segment that are obstacle-free."""
        if samples < 1:
            raise ValueError("need at least one sample")
        free = 0
        for i in range(samples):
            t = i / max(samples - 1, 1)
            if not self.is_occupied(start.lerp(end, t)):
                free += 1
        return free / samples


def _box_gap(a: AABB, b: AABB) -> float:
    """Surface-to-surface distance between two boxes (0 when overlapping)."""
    dx = max(0.0, max(a.min_corner.x - b.max_corner.x, b.min_corner.x - a.max_corner.x))
    dy = max(0.0, max(a.min_corner.y - b.max_corner.y, b.min_corner.y - a.max_corner.y))
    dz = max(0.0, max(a.min_corner.z - b.max_corner.z, b.min_corner.z - a.max_corner.z))
    return math.sqrt(dx * dx + dy * dy + dz * dz)
