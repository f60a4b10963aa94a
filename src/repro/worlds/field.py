"""Continuous heterogeneity / difficulty fields along the mission corridor.

The paper's thesis is that environments are spatially *heterogeneous* — the
space around the robot varies in difficulty, and a spatial-aware governor
wins exactly where that variation is large.  A
:class:`HeterogeneityField` makes the variation a first-class, serialisable
quantity: local obstacle density sampled at evenly spaced stations along
the straight start→goal corridor, with linear interpolation in between.

The field is pure data (tuples of floats), so it

* is byte-reproducible: the same world always yields the same samples,
  which the worlds determinism suite pins alongside the obstacle list;
* costs one interpolation per query, cheap enough for the flight stage
  to stamp a per-decision ``difficulty`` into every
  :class:`~repro.analysis.trace.DecisionRecord`; and
* round-trips through JSON for storage next to a
  :class:`~repro.worlds.spec.WorldSpec`.

Difficulty is dimensionless in ``[0, 1]``: the fraction of the sampling
disc (radius ``sample_radius`` metres, at flight altitude) occupied by
obstacles — the same "local obstacle density" definition the generator's
congestion maps use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple, TYPE_CHECKING

from repro.geometry.vec3 import Vec3

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.environment.world import World

Point = Tuple[float, float, float]


@dataclass(frozen=True, slots=True)
class HeterogeneityField:
    """Local difficulty sampled along the start→goal corridor.

    Attributes:
        start: mission start (x, y, z), metres.
        goal: mission goal (x, y, z), metres.
        samples: difficulty values at evenly spaced stations from start
            (first sample) to goal (last sample), each in ``[0, 1]``.
        sample_radius: radius of the density sampling disc, metres.
    """

    start: Point
    goal: Point
    samples: Tuple[float, ...]
    sample_radius: float

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("a heterogeneity field needs at least one sample")
        if self.sample_radius <= 0:
            raise ValueError("sample radius must be positive metres")
        object.__setattr__(self, "start", tuple(float(v) for v in self.start))
        object.__setattr__(self, "goal", tuple(float(v) for v in self.goal))
        object.__setattr__(self, "samples", tuple(float(v) for v in self.samples))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_world(
        cls,
        world: "World",
        start: Vec3,
        goal: Vec3,
        sample_count: int = 48,
        sample_radius: float = 20.0,
    ) -> "HeterogeneityField":
        """Sample a world's local obstacle density along the corridor.

        Args:
            world: the obstacle world to sample.  The registry samples the
                field *before* binding any movers, so built worlds' fields
                describe the static corridor only — movers change position
                every epoch, and freezing one arbitrary epoch into the
                field would misreport every other.
            start / goal: corridor endpoints, metres.
            sample_count: number of evenly spaced stations (≥ 2 unless the
                corridor is degenerate).
            sample_radius: density disc radius, metres.
        """
        if sample_count < 1:
            raise ValueError("need at least one sample station")
        denominator = max(sample_count - 1, 1)
        values = tuple(
            world.obstacle_density(start.lerp(goal, i / denominator), sample_radius)
            for i in range(sample_count)
        )
        return cls(
            start=(start.x, start.y, start.z),
            goal=(goal.x, goal.y, goal.z),
            samples=values,
            sample_radius=sample_radius,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def progress_fraction(self, position: Vec3) -> float:
        """Project a position onto the start→goal axis, clamped to [0, 1]."""
        start = Vec3(*self.start)
        axis = Vec3(*self.goal) - start
        length_sq = axis.norm_sq()
        if length_sq == 0.0:
            return 0.0
        t = (position - start).dot(axis) / length_sq
        return min(1.0, max(0.0, t))

    def difficulty_at(self, position: Vec3) -> float:
        """Interpolated difficulty at a position (one lerp, no world query)."""
        if len(self.samples) == 1:
            return self.samples[0]
        station = self.progress_fraction(position) * (len(self.samples) - 1)
        low = int(station)
        high = min(low + 1, len(self.samples) - 1)
        t = station - low
        return self.samples[low] * (1.0 - t) + self.samples[high] * t

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "start": list(self.start),
            "goal": list(self.goal),
            "samples": list(self.samples),
            "sample_radius": self.sample_radius,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HeterogeneityField":
        return cls(
            start=tuple(data["start"]),
            goal=tuple(data["goal"]),
            samples=tuple(data["samples"]),
            sample_radius=float(data["sample_radius"]),
        )
