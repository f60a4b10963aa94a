"""Mission zones.

Every generated environment in the paper "contains two congested (A and C)
zones and one non-congested (B) zone.  Congested zones are located at the
beginning and end of the mission to emulate warehouse-building or
hospital-building combinations" (§V-B).  The zone map partitions the mission
corridor so that the analysis code can attribute decisions, latencies and
velocities to zones A, B and C when reproducing Figures 10 and 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.geometry.vec3 import Vec3


@dataclass(frozen=True, slots=True)
class Zone:
    """One zone of the mission corridor.

    Zones are defined by their extent along the mission axis (the straight
    line from start to goal), expressed as fractions of the total goal
    distance, so the same zone layout applies to every goal-distance setting.
    """

    name: str
    start_fraction: float
    end_fraction: float
    congested: bool

    def __post_init__(self) -> None:
        if not 0.0 <= self.start_fraction < self.end_fraction <= 1.0:
            raise ValueError(
                f"zone fractions must satisfy 0 <= start < end <= 1, got "
                f"[{self.start_fraction}, {self.end_fraction}]"
            )

    def contains_fraction(self, fraction: float) -> bool:
        """True when a normalised mission progress value falls in this zone."""
        return self.start_fraction <= fraction <= self.end_fraction


class ZoneMap:
    """Maps positions along the mission corridor to zones A, B and C."""

    def __init__(self, start: Vec3, goal: Vec3, zones: Optional[Sequence[Zone]] = None) -> None:
        if start.distance_to(goal) <= 0:
            raise ValueError("mission start and goal must be distinct")
        self.start = start
        self.goal = goal
        self.zones: List[Zone] = list(zones) if zones is not None else self.default_zones()

    @staticmethod
    def default_zones() -> List[Zone]:
        """The paper's A/B/C layout: congested ends, a long homogeneous middle."""
        return [
            Zone("A", 0.0, 0.25, congested=True),
            Zone("B", 0.25, 0.75, congested=False),
            Zone("C", 0.75, 1.0, congested=True),
        ]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def progress_fraction(self, position: Vec3) -> float:
        """Project a position onto the start→goal axis, clamped to [0, 1]."""
        axis = self.goal - self.start
        length_sq = axis.norm_sq()
        t = (position - self.start).dot(axis) / length_sq
        return min(1.0, max(0.0, t))

    def zone_at(self, position: Vec3) -> Zone:
        """The zone containing a position (positions past the goal map to the last zone)."""
        fraction = self.progress_fraction(position)
        for zone in self.zones:
            if zone.contains_fraction(fraction):
                return zone
        return self.zones[-1]
