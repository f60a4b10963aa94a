"""Quadrotor kinematics.

A deliberately simple, acceleration-limited kinematic model: the drone tracks
commanded velocities with a first-order response bounded by a maximum
acceleration.  The paper's evaluation depends on velocity, stopping distance
and collision outcomes rather than attitude dynamics, so a point-mass model
is the appropriate level of fidelity (and keeps missions fast to simulate).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.vec3 import Vec3


@dataclass(frozen=True, slots=True)
class DroneState:
    """The drone's kinematic state at an instant."""

    time: float
    position: Vec3
    velocity: Vec3

    @property
    def speed(self) -> float:
        """Scalar speed, m/s."""
        return self.velocity.norm()


@dataclass
class QuadrotorKinematics:
    """Acceleration-limited velocity-tracking point-mass model.

    Attributes:
        max_acceleration: magnitude limit on acceleration, m/s^2.
        max_velocity: hard physical velocity limit of the airframe, m/s
            (the runtime usually commands well below this).
        drag_time_constant: first-order time constant with which commanded
            velocity is approached, seconds.
    """

    max_acceleration: float = 3.5
    max_velocity: float = 10.0
    drag_time_constant: float = 0.25

    def __post_init__(self) -> None:
        if self.max_acceleration <= 0:
            raise ValueError("max acceleration must be positive")
        if self.max_velocity <= 0:
            raise ValueError("max velocity must be positive")
        if self.drag_time_constant <= 0:
            raise ValueError("drag time constant must be positive")

    def step(self, state: DroneState, commanded_velocity: Vec3, dt: float) -> DroneState:
        """Advance the drone by one control period.

        The commanded velocity is clamped to the airframe limit, approached
        with a first-order response and the resulting acceleration is clamped
        to the airframe's maximum.

        Args:
            state: current state.
            commanded_velocity: velocity requested by the flight controller.
            dt: step duration in seconds; must be positive.
        """
        if dt <= 0:
            raise ValueError("time step must be positive")

        command = commanded_velocity
        speed = command.norm()
        if speed > self.max_velocity:
            command = command * (self.max_velocity / speed)

        # First-order velocity tracking with acceleration clamping.
        alpha = min(1.0, dt / self.drag_time_constant)
        desired_delta = (command - state.velocity) * alpha
        max_delta = self.max_acceleration * dt
        delta_norm = desired_delta.norm()
        if delta_norm > max_delta and delta_norm > 0.0:
            desired_delta = desired_delta * (max_delta / delta_norm)

        new_velocity = state.velocity + desired_delta
        new_position = state.position + (state.velocity + new_velocity) * (0.5 * dt)
        return DroneState(
            time=state.time + dt,
            position=new_position,
            velocity=new_velocity,
        )

    def coast_to_stop(self, state: DroneState, dt: float = 0.05) -> DroneState:
        """Brake at maximum deceleration until the drone stops.

        Used to measure stopping distances when calibrating the stopping
        model, mirroring how the paper fits Eq. 2 "by flying the drone with
        various velocities in simulation and measuring the stopping distance".
        """
        current = state
        guard = 0
        while current.speed > 1e-3:
            current = self.step(current, Vec3.zero(), dt)
            guard += 1
            if guard > 100_000:
                raise RuntimeError("drone failed to stop; check the dynamics parameters")
        return current

    def stopping_distance(self, speed: float, dt: float = 0.05) -> float:
        """Measured distance needed to stop from the given speed."""
        if speed < 0:
            raise ValueError("speed cannot be negative")
        start = DroneState(time=0.0, position=Vec3.zero(), velocity=Vec3(speed, 0.0, 0.0))
        stopped = self.coast_to_stop(start, dt)
        return stopped.position.distance_to(start.position)
