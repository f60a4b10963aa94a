"""Knob policies.

A :class:`KnobPolicy` is one assignment of RoboRun's six knobs (Table II):

================================  =========  ======================
Knob                              Static     Dynamic range
================================  =========  ======================
Point-cloud precision (m)         0.3        [0.3 … 9.6]
OctoMap→planner precision (m)     0.3        [0.3 … 9.6]
OctoMap volume (m³)               46 000     [0 … 60 000]
OctoMap→planner volume (m³)       150 000    [0 … 1 000 000]
Planner volume (m³)               150 000    [0 … 1 000 000]
================================  =========  ======================

(The sixth knob, planning precision, is constrained by Eq. 3 to equal the
OctoMap→planner precision, so the policy carries it implicitly.)

:data:`STATIC_BASELINE_POLICY` is the spatial-oblivious design's fixed,
worst-case setting; :class:`KnobLimits` captures the dynamic ranges RoboRun's
solver may pick from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

# Table II constants.
STATIC_POINT_CLOUD_PRECISION_M = 0.3
STATIC_MAP_TO_PLANNER_PRECISION_M = 0.3
STATIC_OCTOMAP_VOLUME_M3 = 46_000.0
STATIC_MAP_TO_PLANNER_VOLUME_M3 = 150_000.0
STATIC_PLANNER_VOLUME_M3 = 150_000.0

DYNAMIC_PRECISION_MIN_M = 0.3
DYNAMIC_PRECISION_MAX_M = 9.6
DYNAMIC_OCTOMAP_VOLUME_MAX_M3 = 60_000.0
DYNAMIC_MAP_TO_PLANNER_VOLUME_MAX_M3 = 1_000_000.0
DYNAMIC_PLANNER_VOLUME_MAX_M3 = 1_000_000.0


@dataclass(frozen=True, slots=True)
class KnobPolicy:
    """One concrete assignment of the pipeline's precision and volume knobs.

    Attributes:
        point_cloud_precision: grid cell edge used by the point-cloud
            precision operator, metres (stage-0 precision, p0).
        map_to_planner_precision: resolution of the map handed to the planner,
            metres (p1; the planner precision p2 is constrained equal to it).
        octomap_volume: volume budget for new space added to the map per
            decision, m³ (stage-0 volume, v0).
        map_to_planner_volume: volume budget of the map view given to the
            planner, m³ (v1).
        planner_volume: volume of space the planner may explore, m³ (v2).
    """

    point_cloud_precision: float
    map_to_planner_precision: float
    octomap_volume: float
    map_to_planner_volume: float
    planner_volume: float

    def __post_init__(self) -> None:
        if self.point_cloud_precision <= 0:
            raise ValueError("point-cloud precision must be positive")
        if self.map_to_planner_precision <= 0:
            raise ValueError("map-to-planner precision must be positive")
        if self.point_cloud_precision > self.map_to_planner_precision + 1e-9:
            raise ValueError(
                "Eq. 3 requires p0 <= p1: the point-cloud precision cannot be "
                "coarser than the map handed to the planner"
            )
        for name in ("octomap_volume", "map_to_planner_volume", "planner_volume"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")
        if self.octomap_volume > self.map_to_planner_volume + 1e-9:
            # Eq. 3: v0 <= v1 — the map cannot ingest more than it may pass on.
            raise ValueError("Eq. 3 requires v0 <= v1")

    @property
    def planning_precision(self) -> float:
        """The planner's ray-cast precision; Eq. 3 pins it to p1."""
        return self.map_to_planner_precision

    def as_dict(self) -> Dict[str, float]:
        """The policy as a plain dictionary (used by traces and reports)."""
        return {
            "point_cloud_precision": self.point_cloud_precision,
            "map_to_planner_precision": self.map_to_planner_precision,
            "octomap_volume": self.octomap_volume,
            "map_to_planner_volume": self.map_to_planner_volume,
            "planner_volume": self.planner_volume,
        }


#: The spatial-oblivious baseline's fixed, worst-case policy (Table II "Static").
STATIC_BASELINE_POLICY = KnobPolicy(
    point_cloud_precision=STATIC_POINT_CLOUD_PRECISION_M,
    map_to_planner_precision=STATIC_MAP_TO_PLANNER_PRECISION_M,
    octomap_volume=STATIC_OCTOMAP_VOLUME_M3,
    map_to_planner_volume=STATIC_MAP_TO_PLANNER_VOLUME_M3,
    planner_volume=STATIC_PLANNER_VOLUME_M3,
)


@dataclass(frozen=True, slots=True)
class KnobLimits:
    """The dynamic ranges RoboRun's solver may choose from (Table II "Dynamic").

    Attributes:
        precision_min: finest allowed precision (the minimum voxel size), m.
        precision_max: coarsest allowed precision, m.
        octomap_volume_max: upper bound on the per-decision map volume, m³.
        map_to_planner_volume_max: upper bound on the planner-view volume, m³.
        planner_volume_max: upper bound on the planner's explored volume, m³.
        precision_levels: size of the power-of-two precision ladder (Eq. 3's
            ``p ∈ {vox_min·2ⁿ : 0 ≤ n ≤ d−1}``); 6 levels span 0.3 m → 9.6 m.
    """

    precision_min: float = DYNAMIC_PRECISION_MIN_M
    precision_max: float = DYNAMIC_PRECISION_MAX_M
    octomap_volume_max: float = DYNAMIC_OCTOMAP_VOLUME_MAX_M3
    map_to_planner_volume_max: float = DYNAMIC_MAP_TO_PLANNER_VOLUME_MAX_M3
    planner_volume_max: float = DYNAMIC_PLANNER_VOLUME_MAX_M3
    precision_levels: int = 6

    def __post_init__(self) -> None:
        if self.precision_min <= 0:
            raise ValueError("minimum precision must be positive")
        if self.precision_max < self.precision_min:
            raise ValueError("maximum precision cannot be finer than the minimum")
        if self.precision_levels < 1:
            raise ValueError("need at least one precision level")
        for name in (
            "octomap_volume_max",
            "map_to_planner_volume_max",
            "planner_volume_max",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def precision_ladder(self) -> list[float]:
        """Allowed precisions: power-of-two multiples of the minimum voxel size."""
        ladder = []
        for n in range(self.precision_levels):
            value = self.precision_min * (2**n)
            if value > self.precision_max + 1e-9:
                break
            ladder.append(value)
        return ladder
