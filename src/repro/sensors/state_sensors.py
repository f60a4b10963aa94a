"""State sensors: IMU and GPS.

The profilers read "velocity, position" from the sensors (Table I).  In the
offline reproduction the true drone state is known exactly, so these sensors
simply expose that state, optionally corrupted with Gaussian noise so tests
can exercise the profilers' robustness to measurement error.
"""

from __future__ import annotations

import random
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


@dataclass
class GPS:
    """Position sensor with optional additive Gaussian noise."""

    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.noise_std < 0:
            raise ValueError("noise standard deviation cannot be negative")
        self._rng = random.Random(self.seed)

    def measure(self, true_position: Vec3) -> Vec3:
        """Return a (possibly noisy) position measurement."""
        if self.noise_std == 0.0:
            return true_position
        return Vec3(
            true_position.x + self._rng.gauss(0.0, self.noise_std),
            true_position.y + self._rng.gauss(0.0, self.noise_std),
            true_position.z + self._rng.gauss(0.0, self.noise_std),
        )


@dataclass
class IMU:
    """Velocity sensor with optional additive Gaussian noise.

    A real IMU measures accelerations and angular rates; the navigation stack
    integrates them into a velocity estimate.  The reproduction skips the
    integration and reports velocity directly, because velocity is the only
    IMU-derived quantity the RoboRun profilers consume.
    """

    noise_std: float = 0.0
    seed: int = 1

    def __post_init__(self) -> None:
        if self.noise_std < 0:
            raise ValueError("noise standard deviation cannot be negative")
        self._rng = random.Random(self.seed)

    def measure(self, true_velocity: Vec3) -> Vec3:
        """Return a (possibly noisy) velocity measurement."""
        if self.noise_std == 0.0:
            return true_velocity
        return Vec3(
            true_velocity.x + self._rng.gauss(0.0, self.noise_std),
            true_velocity.y + self._rng.gauss(0.0, self.noise_std),
            true_velocity.z + self._rng.gauss(0.0, self.noise_std),
        )


@dataclass
class StateSensorSuite:
    """Bundles GPS and IMU into one state-estimate source."""

    gps: GPS
    imu: IMU

    @staticmethod
    def ideal() -> "StateSensorSuite":
        """A noise-free sensor suite (the default for experiments)."""
        return StateSensorSuite(gps=GPS(), imu=IMU())

    def estimate(
        self, timestamp: float, true_position: Vec3, true_velocity: Vec3
    ) -> StateEstimate:
        """Produce a state estimate from the true state."""
        return StateEstimate(
            timestamp=timestamp,
            position=self.gps.measure(true_position),
            velocity=self.imu.measure(true_velocity),
        )
