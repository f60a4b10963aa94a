"""The state estimate the profilers read.

The profilers read "velocity, position" from the IMU and GPS (Table I).  In
the offline reproduction the true drone state is known exactly, so the
sense stage stamps that state as the decision's estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.vec3 import Vec3


@dataclass(frozen=True, slots=True)
class StateEstimate:
    """A timestamped estimate of the drone's kinematic state."""

    timestamp: float
    position: Vec3
    velocity: Vec3

    @property
    def speed(self) -> float:
        """Scalar speed in metres per second."""
        return self.velocity.norm()
