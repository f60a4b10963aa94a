"""Pure-pursuit trajectory following.

The mission simulator advances flight in small control steps between
decisions.  Tracking the smoother's trajectory purely by timestamp is brittle
when the runtime's velocity cap differs from the speed the trajectory was
timed at (the reference runs away or lags), so the simulator uses a
pure-pursuit follower instead: aim at a look-ahead point along the path and
fly towards it at the currently allowed velocity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.vec3 import Vec3
from repro.planning.trajectory import Trajectory


@dataclass
class PurePursuitFollower:
    """Follows a trajectory's geometric path at a commanded speed.

    Attributes:
        lookahead: distance along the path, in metres, of the pursuit target.
        goal_slowdown_radius: within this distance of the path's end the
            commanded speed tapers linearly so the drone settles on the goal.
    """

    lookahead: float = 3.0
    goal_slowdown_radius: float = 8.0

    def __post_init__(self) -> None:
        if self.lookahead <= 0:
            raise ValueError("lookahead must be positive")
        if self.goal_slowdown_radius <= 0:
            raise ValueError("goal slowdown radius must be positive")

    def velocity_command(
        self, trajectory: Trajectory, position: Vec3, speed: float
    ) -> Vec3:
        """Commanded velocity towards the look-ahead point.

        Args:
            trajectory: the path being followed.
            position: current drone position.
            speed: allowed speed (the runtime's velocity cap), m/s.

        Returns:
            The commanded velocity; zero when already at the path's end.
        """
        if speed < 0:
            raise ValueError("speed cannot be negative")
        target = self._lookahead_point(trajectory, position)
        to_target = target - position
        distance = to_target.norm()
        if distance < 1e-6:
            return Vec3.zero()

        goal_distance = position.distance_to(trajectory.goal)
        commanded_speed = speed
        if goal_distance < self.goal_slowdown_radius:
            commanded_speed = speed * max(goal_distance / self.goal_slowdown_radius, 0.1)
        return to_target * (commanded_speed / distance)

    def _lookahead_point(self, trajectory: Trajectory, position: Vec3) -> Vec3:
        """The point on the path roughly ``lookahead`` metres past the nearest sample."""
        points = trajectory.waypoint_positions()
        if len(points) == 1:
            return points[0]
        # Find the nearest sample (the first of equals, by the rounded
        # distances Vec3.distance_to gives), then walk forward along the path.
        nearest_index = int(np.argmin(np.sqrt(trajectory.squared_distances_to(position))))
        remaining = self.lookahead
        index = nearest_index
        while index < len(points) - 1 and remaining > 0:
            segment = points[index + 1] - points[index]
            length = segment.norm()
            if length >= remaining and length > 0:
                return points[index] + segment * (remaining / length)
            remaining -= length
            index += 1
        return points[-1]
