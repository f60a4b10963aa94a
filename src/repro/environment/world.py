"""The obstacle world.

A :class:`World` is a bounded 3-D region containing axis-aligned box
obstacles.  It provides the spatial queries that both the simulated sensors
and RoboRun's profilers rely on:

* occupancy tests and segment collision checks (planner collision checking);
* distance to the nearest obstacle (drives the precision demand near
  obstacles, Table I "closest obstacle");
* visibility along a heading (the space-visibility feature of §II-A);
* local obstacle density (the congestion the generator places, §IV).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _points_in_boxes(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Which rows of a ``(P, 3)`` array lie in some box, closed ``<=`` on every face.

    The batched :meth:`AABB.contains` over ``(B, 3)`` corner arrays.
    """
    p = points[:, None, :]
    inside = (lo <= p) & (p <= hi)
    return (inside[..., 0] & inside[..., 1] & inside[..., 2]).any(axis=1)


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

    A world starts empty; :meth:`add_obstacle` places its static boxes.
    Besides the static obstacles, the world carries two small layers that
    change while a mission flies: the *dynamic* layer
    (:meth:`set_dynamic_obstacles`) holds the kinematic movers from
    :mod:`repro.worlds.movers`, replaced once per decision epoch, and the
    agent layer (:meth:`set_agent_obstacles`) holds a fleet's other drones.
    Every query folds in all three.

    There is no spatial index.  The occupancy and range queries make one
    numpy pass over the corner arrays of every box: the static boxes are
    stacked once after construction and the two layers' boxes appended once
    per change.  A world holds a few hundred boxes, so one pass over all of
    them costs less than narrowing them down in Python first.
    """

    def __init__(self, bounds: AABB) -> None:
        self.bounds = bounds
        self._obstacles: List[Obstacle] = []
        self._dynamic: List[Obstacle] = []
        self._agents: List[Obstacle] = []
        # Lazily rebuilt corner-array snapshots.  The static one changes only
        # when obstacles are added (construction time); the full one (static,
        # then movers, then agents) also whenever a layer is replaced — the
        # movers once per epoch, the agents once per drone turn — so the
        # queries pay one stacking pass per change rather than a Python loop
        # per probe.
        self._static_arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_obstacle(self, obstacle: Obstacle) -> None:
        """Add a static obstacle."""
        self._obstacles.append(obstacle)
        self._static_arrays = None
        self._arrays = None

    # ------------------------------------------------------------------
    # Dynamic obstacle layer
    # ------------------------------------------------------------------
    def set_dynamic_obstacles(self, obstacles: Iterable[Obstacle]) -> None:
        """Replace the dynamic obstacle layer (the movers' current boxes).

        Called once per decision epoch by
        :meth:`repro.worlds.movers.DynamicObstacleSet.step`.
        """
        self._dynamic = list(obstacles)
        self._arrays = None

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
        self._arrays = None

    def _every_obstacle(self) -> List[Obstacle]:
        """Static obstacles, then movers, then agents: the full snapshot's order."""
        return self._obstacles + self._dynamic + self._agents

    def _corner_snapshot(self) -> Tuple[np.ndarray, np.ndarray]:
        """The memoised corner arrays of every box, in :meth:`_every_obstacle` order."""
        arrays = self._arrays
        if arrays is None:
            static = self._static_arrays
            if static is None:
                static = self._static_arrays = _corner_arrays(self._obstacles)
            arrays = static
            if self._dynamic or self._agents:
                lo, hi = _corner_arrays(self._dynamic + self._agents)
                arrays = (np.concatenate([static[0], lo]), np.concatenate([static[1], hi]))
            self._arrays = arrays
        return arrays

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def obstacles(self) -> Sequence[Obstacle]:
        """All static obstacles in insertion order (movers excluded)."""
        return tuple(self._obstacles)

    def obstacles_near(self, point: Vec3, radius: float) -> List[Obstacle]:
        """Every obstacle whose surface lies within ``radius`` of a point.

        The per-obstacle form of :meth:`obstacle_arrays_near`: static
        obstacles, then movers, then agents, each kept when its
        :meth:`Obstacle.distance_to` the point is at most ``radius``.
        """
        return [
            obstacle
            for obstacle in self._every_obstacle()
            if obstacle.distance_to(point) <= radius
        ]

    def obstacle_arrays_near(
        self, point: Vec3, radius: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Corner arrays of the boxes within ``radius`` of a point, stacked.

        What a camera rig casts against: one clamped-distance test over the
        full snapshot, the same boxes in the same order as
        :meth:`obstacles_near`, returned as two ``(K, 3)`` min/max corner
        arrays instead of a list of :class:`Obstacle` objects.
        """
        lo, hi = self._corner_snapshot()
        near = _boxes_distance_to_point(lo, hi, point) <= radius
        return lo[near], hi[near]

    # ------------------------------------------------------------------
    # Occupancy / collision
    # ------------------------------------------------------------------
    def is_occupied(self, point: Vec3, margin: float = 0.0) -> bool:
        """True when a point is inside (or within ``margin`` of) an obstacle.

        One vector pass over every box: each grows by ``lo - margin`` and
        ``hi + margin``, the float operations of :meth:`AABB.expanded`, and
        holds the point under the closed ``<=`` of :meth:`AABB.contains`.
        """
        lo, hi = self._corner_snapshot()
        p = np.array(((point.x, point.y, point.z),))
        return bool(_points_in_boxes(p, lo - margin, hi + margin)[0])

    def segment_collides(self, start: Vec3, end: Vec3, margin: float = 0.0) -> bool:
        """True when the straight segment hits any obstacle (inflated by margin)."""
        for obstacle in self._every_obstacle():
            box = obstacle.box if margin == 0.0 else obstacle.box.expanded(margin)
            if segment_intersects_aabb(start, end, box):
                return True
        return False

    # ------------------------------------------------------------------
    # Spatial features (the paper's four heterogeneity features live here)
    # ------------------------------------------------------------------

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
        for obstacle in self._every_obstacle():
            hit = ray_aabb_intersect(ray, obstacle.box)
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

        The samples are tested in one pass, under :meth:`is_occupied`'s closed
        box test, against the boxes that overlap their x/y extent: a box that
        holds a sample overlaps it, so no other box can count.
        """
        if radius <= 0:
            raise ValueError("density radius must be positive")
        step = max(radius / 8.0, 0.5)
        samples = []
        x = point.x - radius
        while x <= point.x + radius:
            y = point.y - radius
            while y <= point.y + radius:
                if math.hypot(x - point.x, y - point.y) <= radius:
                    samples.append((x, y, point.z))
                y += step
            x += step
        if not samples:
            return 0.0
        p = np.array(samples)
        lo, hi = self._corner_snapshot()
        near = (
            (lo[:, 0] <= p[:, 0].max()) & (hi[:, 0] >= p[:, 0].min())
            & (lo[:, 1] <= p[:, 1].max()) & (hi[:, 1] >= p[:, 1].min())
        )
        occupied = int(_points_in_boxes(p, lo[near], hi[near]).sum())
        return occupied / len(samples)
