"""The flight controller.

Tracks a time-parameterised trajectory by combining its feed-forward velocity
with a PID correction on position error, and clamps the command to the
velocity cap currently allowed by the runtime (the governor lowers the cap
when decisions are slow, raising it again when latency shrinks — that is how
compute latency turns into flight velocity in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.control.pid import PIDGains, Vec3PID
from repro.geometry.vec3 import Vec3
from repro.planning.trajectory import Trajectory


@dataclass
class FlightController:
    """Cascaded feed-forward + PID trajectory-tracking controller.

    Attributes:
        position_gains: PID gains on position error (output is a velocity
            correction).
        max_velocity: hard velocity limit applied to the commanded velocity,
            m/s; the runtime updates this every decision.
    """

    position_gains: PIDGains = PIDGains(kp=1.2, ki=0.0, kd=0.1)
    max_velocity: float = 2.5

    def __post_init__(self) -> None:
        if self.max_velocity <= 0:
            raise ValueError("max velocity must be positive")
        self._pid = Vec3PID(self.position_gains, output_limit=self.max_velocity)

    def reset(self) -> None:
        """Clear the PID state (called when a new trajectory is adopted)."""
        self._pid.reset()

    def velocity_command(
        self,
        trajectory: Trajectory,
        position: Vec3,
        time: float,
        dt: float,
    ) -> Vec3:
        """Compute the commanded velocity for the current control step.

        Args:
            trajectory: the trajectory being tracked.
            position: current drone position.
            time: current simulated time.
            dt: control period in seconds.

        Returns:
            The commanded velocity, clamped to the current velocity limit.
        """
        reference = trajectory.sample(time)
        feed_forward = reference.velocity
        correction = self._pid.update(reference.position - position, dt)
        command = feed_forward + correction
        speed = command.norm()
        if speed > self.max_velocity and speed > 0.0:
            command = command * (self.max_velocity / speed)
        return command
