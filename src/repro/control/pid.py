"""PID controllers.

A scalar PID with clamped output and anti-windup, plus a three-axis wrapper
used by the flight controller to track position errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.geometry.vec3 import Vec3


@dataclass(frozen=True, slots=True)
class PIDGains:
    """Proportional, integral and derivative gains."""

    kp: float
    ki: float = 0.0
    kd: float = 0.0

    def __post_init__(self) -> None:
        if self.kp < 0 or self.ki < 0 or self.kd < 0:
            raise ValueError("PID gains must be non-negative")


class PIDController:
    """A scalar PID controller with output clamping and integral anti-windup."""

    def __init__(
        self,
        gains: PIDGains,
        output_limit: Optional[float] = None,
        integral_limit: Optional[float] = None,
    ) -> None:
        if output_limit is not None and output_limit <= 0:
            raise ValueError("output limit must be positive")
        if integral_limit is not None and integral_limit <= 0:
            raise ValueError("integral limit must be positive")
        self.gains = gains
        self.output_limit = output_limit
        self.integral_limit = integral_limit
        self._integral = 0.0
        self._previous_error: Optional[float] = None

    def reset(self) -> None:
        """Clear the accumulated integral and derivative history."""
        self._integral = 0.0
        self._previous_error = None

    def update(self, error: float, dt: float) -> float:
        """Advance the controller by one step.

        Args:
            error: setpoint minus measurement.
            dt: time step in seconds; must be positive.

        Returns:
            The clamped control output.
        """
        if dt <= 0:
            raise ValueError("PID time step must be positive")
        self._integral += error * dt
        if self.integral_limit is not None:
            self._integral = max(-self.integral_limit, min(self.integral_limit, self._integral))
        derivative = 0.0
        if self._previous_error is not None:
            derivative = (error - self._previous_error) / dt
        self._previous_error = error

        output = (
            self.gains.kp * error
            + self.gains.ki * self._integral
            + self.gains.kd * derivative
        )
        if self.output_limit is not None:
            output = max(-self.output_limit, min(self.output_limit, output))
        return output

    @property
    def integral(self) -> float:
        """The accumulated (clamped) integral term."""
        return self._integral


class Vec3PID:
    """Three independent scalar PIDs, one per axis."""

    def __init__(
        self,
        gains: PIDGains,
        output_limit: Optional[float] = None,
        integral_limit: Optional[float] = None,
    ) -> None:
        self._axes = [
            PIDController(gains, output_limit, integral_limit) for _ in range(3)
        ]

    def reset(self) -> None:
        """Reset every axis controller."""
        for axis in self._axes:
            axis.reset()

    def update(self, error: Vec3, dt: float) -> Vec3:
        """Advance all three axes and return the control output vector."""
        return Vec3(
            self._axes[0].update(error.x, dt),
            self._axes[1].update(error.y, dt),
            self._axes[2].update(error.z, dt),
        )
