"""Time budgeting (paper Equation 1 and Algorithm 1).

The time budget (decision deadline) is "the maximum time the MAV can spend
processing a sampled input while ensuring a safe flight":

    budget(v, d) = (d − d_stop(v)) / v                         (Eq. 1)

where ``v`` is the traversal velocity, ``d`` the visibility and ``d_stop`` the
stopping distance (Eq. 2).  Because velocity and visibility change along the
planned path, Algorithm 1 refines the naive local budget into a *global*
budget computed as a running sum over upcoming waypoints: at each waypoint the
remaining budget is reduced by the flight time from the previous waypoint and
clamped by that waypoint's local budget, so a tight spot ahead shortens the
deadline even if the drone currently enjoys open space.

The module also provides the inverse query the runtime needs when choosing a
safe velocity: the largest velocity whose budget still covers an expected
processing latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.dynamics.stopping import StoppingDistanceModel
from repro.planning.trajectory import TrajectoryPoint


@dataclass(frozen=True, slots=True)
class WaypointObservation:
    """Velocity and visibility expected at one upcoming waypoint.

    Algorithm 1 consumes a sequence of these (``W``): the first entry is the
    drone's instantaneous state and the rest come from the planned trajectory
    and the map's visibility estimates at those waypoints.
    """

    position_along_path: float
    velocity: float
    visibility: float

    def __post_init__(self) -> None:
        if self.velocity < 0:
            raise ValueError("waypoint velocity cannot be negative")
        if self.visibility < 0:
            raise ValueError("waypoint visibility cannot be negative")


class TimeBudgeter:
    """Computes decision deadlines from velocity and visibility.

    Implements Eq. 1 (and Algorithm 1 over an upcoming trajectory): the
    decision deadline is the time the drone can afford to "fly blind" —
    usable visibility (metres) minus the stopping distance at the current
    velocity (m/s), divided by that velocity — capped at ``max_budget_s``
    seconds so hovering drones get a large but finite budget.  The budget is
    what the knob solver spends and what the governor inverts to derive the
    safe velocity cap.

    Attributes:
        stopping_model: converts velocity (m/s) into stopping distance (m).
        min_velocity: floor applied to the velocity, m/s, so budgets stay
            finite while hovering.
        max_budget_s: deadline ceiling, seconds.
    """

    def __init__(
        self,
        stopping_model: Optional[StoppingDistanceModel] = None,
        min_velocity: float = 0.1,
        max_budget_s: float = 60.0,
    ) -> None:
        if min_velocity <= 0:
            raise ValueError("minimum velocity must be positive")
        if max_budget_s <= 0:
            raise ValueError("maximum budget must be positive")
        self.stopping_model = stopping_model or StoppingDistanceModel()
        self.min_velocity = min_velocity
        self.max_budget_s = max_budget_s

    # ------------------------------------------------------------------
    # Equation 1
    # ------------------------------------------------------------------
    def local_budget(self, velocity: float, visibility: float) -> float:
        """Equation 1 at a single point: ``(d − d_stop(v)) / v``.

        Velocities below ``min_velocity`` are floored so a hovering drone gets
        the (large but finite) budget of a very slow one rather than an
        infinite deadline, and budgets are capped at ``max_budget_s``.
        A non-positive numerator (the drone cannot stop within its visible
        distance) yields a zero budget — the unsafe regime.
        """
        if velocity < 0:
            raise ValueError("velocity cannot be negative")
        if visibility < 0:
            raise ValueError("visibility cannot be negative")
        v = max(velocity, self.min_velocity)
        numerator = visibility - self.stopping_model.distance(v)
        if numerator <= 0:
            return 0.0
        return min(numerator / v, self.max_budget_s)

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def global_budget(self, waypoints: Sequence[WaypointObservation]) -> float:
        """Algorithm 1: the running-sum global budget over upcoming waypoints.

        Args:
            waypoints: W_0 … W_n, where W_0 describes the drone's current
                state.  Positions along the path must be non-decreasing.

        Returns:
            The global time budget b_g in seconds.
        """
        if not waypoints:
            raise ValueError("Algorithm 1 needs at least the current waypoint W0")

        b_g = 0.0
        b_r = self.local_budget(waypoints[0].velocity, waypoints[0].visibility)
        for previous, current in zip(waypoints, waypoints[1:]):
            if current.position_along_path < previous.position_along_path - 1e-9:
                raise ValueError("waypoints must be ordered along the path")
            flight_time = self._flight_time(previous, current)
            b_r -= flight_time
            b_l = self.local_budget(current.velocity, current.visibility)
            b_r = min(b_r, b_l)
            if b_r <= 0:
                break
            b_g += flight_time
        # When every waypoint keeps a positive remaining budget, the horizon
        # itself does not constrain the deadline: the budget is the remaining
        # slack plus the flight time already accumulated.
        else:
            b_g += max(b_r, 0.0)
        return min(max(b_g, 0.0), self.max_budget_s)

    def _flight_time(
        self, previous: WaypointObservation, current: WaypointObservation
    ) -> float:
        """Flight time between consecutive waypoints at their mean velocity."""
        distance = current.position_along_path - previous.position_along_path
        mean_velocity = max(
            0.5 * (previous.velocity + current.velocity), self.min_velocity
        )
        return max(distance, 0.0) / mean_velocity

    def budget_from_trajectory(
        self,
        current_velocity: float,
        current_visibility: float,
        upcoming: Sequence[TrajectoryPoint],
        visibility_at: Optional[Sequence[float]] = None,
    ) -> float:
        """Convenience wrapper building Algorithm 1's W from a trajectory tail.

        Args:
            current_velocity: the drone's instantaneous speed.
            current_visibility: visibility at the drone's current position.
            upcoming: upcoming trajectory samples (may be empty).
            visibility_at: optional per-sample visibility estimates; when
                omitted the current visibility is assumed to persist, which is
                the conservative choice only if visibility does not improve —
                callers with map access should supply real estimates.
        """
        observations = [
            WaypointObservation(0.0, current_velocity, current_visibility)
        ]
        cumulative = 0.0
        previous_position = None
        for index, sample in enumerate(upcoming):
            if previous_position is not None:
                cumulative += previous_position.distance_to(sample.position)
            previous_position = sample.position
            visibility = (
                visibility_at[index]
                if visibility_at is not None and index < len(visibility_at)
                else current_visibility
            )
            observations.append(
                WaypointObservation(cumulative, sample.speed, visibility)
            )
        return self.global_budget(observations)

    # ------------------------------------------------------------------
    # Inverse query: safe velocity for a given latency
    # ------------------------------------------------------------------
    def max_safe_velocity(
        self,
        visibility: float,
        required_budget: float,
        velocity_ceiling: float,
        tolerance: float = 1e-3,
    ) -> float:
        """Largest velocity whose Eq. 1 budget still covers ``required_budget``.

        The budget is monotonically decreasing in velocity (faster flight
        both shortens the available distance margin and divides by a larger
        v), so a bisection over [min_velocity, velocity_ceiling] finds the
        crossover.  Returns ``min_velocity`` when even the slowest flight
        cannot cover the required budget.
        """
        if required_budget < 0:
            raise ValueError("required budget cannot be negative")
        if velocity_ceiling < self.min_velocity:
            raise ValueError("velocity ceiling is below the minimum velocity")

        if self.local_budget(velocity_ceiling, visibility) >= required_budget:
            return velocity_ceiling
        lo, hi = self.min_velocity, velocity_ceiling
        if self.local_budget(lo, visibility) < required_budget:
            return self.min_velocity
        while hi - lo > tolerance:
            mid = 0.5 * (lo + hi)
            if self.local_budget(mid, visibility) >= required_budget:
                lo = mid
            else:
                hi = mid
        return lo
