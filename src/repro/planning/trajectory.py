"""Time-parameterised trajectories.

A :class:`Trajectory` is the output of the path smoother and the input to the
flight controller.  The RoboRun profilers also read it: upcoming waypoints and
their planned velocities feed Algorithm 1's global time budget, and the
distance from the drone to the trajectory orders points for the OctoMap
volume operator.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.geometry.vec3 import Vec3


@dataclass(frozen=True, slots=True)
class TrajectoryPoint:
    """One sample of a time-parameterised trajectory."""

    time: float
    position: Vec3
    velocity: Vec3

    @property
    def speed(self) -> float:
        """Scalar speed at this sample."""
        return self.velocity.norm()


@dataclass(frozen=True, slots=True)
class NearestWaypoint:
    """A trajectory sample together with its index in the sample sequence.

    Returned by :meth:`Trajectory.nearest_point_to` so callers that walk the
    trajectory from the nearest sample (e.g. the simulator's blocked-path
    check) can anchor at the exact sample rather than re-finding it by
    position equality — which silently picks the *first* occurrence when a
    path revisits a waypoint.
    """

    index: int
    point: TrajectoryPoint

    @property
    def position(self) -> Vec3:
        """Position of the underlying sample."""
        return self.point.position

    @property
    def time(self) -> float:
        """Timestamp of the underlying sample."""
        return self.point.time

    @property
    def velocity(self) -> Vec3:
        """Velocity of the underlying sample."""
        return self.point.velocity


class Trajectory:
    """A piecewise-linear, time-parameterised path.

    Samples must be strictly increasing in time.  Queries between samples
    interpolate linearly, which is adequate because the smoother emits densely
    spaced samples.
    """

    def __init__(self, points: Sequence[TrajectoryPoint]) -> None:
        if not points:
            raise ValueError("a trajectory needs at least one point")
        times = [p.time for p in points]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("trajectory sample times must be strictly increasing")
        self._points: List[TrajectoryPoint] = list(points)
        self._times = times
        self._positions: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> Sequence[TrajectoryPoint]:
        """The underlying samples."""
        return tuple(self._points)

    @property
    def start_time(self) -> float:
        """Time of the first sample."""
        return self._times[0]

    @property
    def end_time(self) -> float:
        """Time of the last sample."""
        return self._times[-1]

    @property
    def start(self) -> Vec3:
        """First position."""
        return self._points[0].position

    @property
    def goal(self) -> Vec3:
        """Last position."""
        return self._points[-1].position

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, time: float) -> TrajectoryPoint:
        """Interpolate the trajectory at an absolute time (clamped to the ends)."""
        if time <= self.start_time:
            return self._points[0]
        if time >= self.end_time:
            return self._points[-1]
        hi = bisect.bisect_right(self._times, time)
        lo = hi - 1
        a, b = self._points[lo], self._points[hi]
        span = b.time - a.time
        alpha = (time - a.time) / span
        return TrajectoryPoint(
            time=time,
            position=a.position.lerp(b.position, alpha),
            velocity=a.velocity.lerp(b.velocity, alpha),
        )

    def position_at(self, time: float) -> Vec3:
        """Interpolated position at an absolute time."""
        return self.sample(time).position

    # ------------------------------------------------------------------
    # Queries used by RoboRun
    # ------------------------------------------------------------------
    def nearest_point_to(self, position: Vec3) -> NearestWaypoint:
        """The sample closest to a world-space position, with its index.

        Exact distance ties — duplicate waypoints where the path revisits a
        position — resolve to the *latest* matching sample: the drone has
        already consumed the earlier visit, so look-ahead checks anchored at
        the returned index must start from the later one.
        """
        d_sq = self.squared_distances_to(position)
        best_index = d_sq.shape[0] - 1 - int(np.argmin(d_sq[::-1]))
        return NearestWaypoint(index=best_index, point=self._points[best_index])

    def squared_distances_to(self, position: Vec3) -> np.ndarray:
        """Squared distance from every sample to a position, summed as ``Vec3.dot`` does.

        The ``(N, 3)`` sample positions are stacked on first use and kept:
        a trajectory never changes after construction.
        """
        if self._positions is None:
            self._positions = np.array(
                [(p.x, p.y, p.z) for p in self.waypoint_positions()], dtype=np.float64
            )
        d = self._positions - (position.x, position.y, position.z)
        return (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2]

    def distance_to(self, position: Vec3) -> float:
        """Distance from a position to the nearest trajectory sample."""
        return self.nearest_point_to(position).position.distance_to(position)

    def upcoming_waypoints(self, time: float, count: int) -> List[TrajectoryPoint]:
        """Up to ``count`` samples at or after the given time.

        Algorithm 1 iterates over "the planned velocity and visibility for
        upcoming waypoints (W)"; the governor obtains W from this method.
        """
        if count < 0:
            raise ValueError("waypoint count cannot be negative")
        idx = bisect.bisect_left(self._times, time)
        return self._points[idx : idx + count]

    def waypoint_positions(self) -> List[Vec3]:
        """All sample positions, in order."""
        return [p.position for p in self._points]

    def remaining_length(self, time: float) -> float:
        """Path length from the sample nearest ``time`` to the end."""
        idx = bisect.bisect_left(self._times, time)
        idx = min(idx, len(self._points) - 1)
        total = 0.0
        for a, b in zip(self._points[idx:], self._points[idx + 1 :]):
            total += a.position.distance_to(b.position)
        return total

    @staticmethod
    def hover(position: Vec3, start_time: float = 0.0, duration: float = 1.0) -> "Trajectory":
        """A degenerate trajectory that stays at one position (hover)."""
        return Trajectory(
            [
                TrajectoryPoint(start_time, position, Vec3.zero()),
                TrajectoryPoint(start_time + duration, position, Vec3.zero()),
            ]
        )
