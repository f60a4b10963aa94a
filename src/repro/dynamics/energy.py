"""Flight and compute energy models.

The paper's energy argument (§V-A) has two parts the model must preserve:

1. "flight energy is highly correlated with flight time, as propellers
   consume large amounts of energy even when hovering" — so flight power is
   dominated by a large hover term with a comparatively small
   velocity-dependent term; and
2. "compute consumes less than 0.05% of the overall MAV's energy" — so
   reducing compute *power* barely matters; compute helps energy only by
   raising velocity and shortening the mission.

The default constants reproduce the paper's overall magnitudes: the baseline
mission (~2000 s) lands near 1000 kJ, i.e. roughly 500 W of flight power.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class EnergyModel:
    """Hover-dominated drone power model.

    Attributes:
        hover_power_w: power drawn while hovering, watts.
        velocity_power_coeff: additional power per (m/s), watts — parasitic
            and induced drag grow with speed but remain small relative to the
            hover term at the paper's velocities.
        compute_power_w: average power of the onboard compute platform, watts.
            Chosen so compute stays well below 0.05% of total mission energy,
            matching the paper's observation.
    """

    hover_power_w: float = 450.0
    velocity_power_coeff: float = 20.0
    compute_power_w: float = 15.0

    def __post_init__(self) -> None:
        if self.hover_power_w <= 0:
            raise ValueError("hover power must be positive")
        if self.velocity_power_coeff < 0:
            raise ValueError("velocity power coefficient cannot be negative")
        if self.compute_power_w < 0:
            raise ValueError("compute power cannot be negative")

    # ------------------------------------------------------------------
    # Power
    # ------------------------------------------------------------------
    def flight_power(self, speed: float) -> float:
        """Instantaneous flight power (watts) at the given speed."""
        if speed < 0:
            raise ValueError("speed cannot be negative")
        return self.hover_power_w + self.velocity_power_coeff * speed

    # ------------------------------------------------------------------
    # Energy
    # ------------------------------------------------------------------
    def flight_energy(self, duration_s: float, mean_speed: float = 0.0) -> float:
        """Flight energy in joules over a duration at a mean speed."""
        if duration_s < 0:
            raise ValueError("duration cannot be negative")
        return self.flight_power(mean_speed) * duration_s

    def compute_energy(self, busy_seconds: float) -> float:
        """Energy consumed by the compute platform while busy, joules."""
        if busy_seconds < 0:
            raise ValueError("busy time cannot be negative")
        return self.compute_power_w * busy_seconds

    def mission_energy(
        self, flight_time_s: float, mean_speed: float, compute_busy_s: float
    ) -> float:
        """Total mission energy in joules (flight plus compute)."""
        return self.flight_energy(flight_time_s, mean_speed) + self.compute_energy(
            compute_busy_s
        )
