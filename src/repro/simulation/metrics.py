"""Mission metrics and per-zone summaries of the decision records.

The mission-level metrics mirror Figure 7 (flight velocity, flight time,
flight energy, CPU utilisation); the per-decision records
(:class:`~repro.analysis.trace.DecisionRecord`, built by the pipeline's
flight stage) carry everything the analysis layer needs to rebuild the
representative-mission figures: policy knobs over time (Figure 10c),
velocity over time (Figure 10b), deadlines (Figure 5b) and the per-stage
latency breakdown (Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.trace import DecisionRecord


@dataclass
class MissionMetrics:
    """Mission-level summary (the Figure 7 quantities plus bookkeeping).

    Attributes:
        design: name of the runtime evaluated ("roborun" / "spatial_oblivious").
        success: True when the drone reached the goal without colliding.
        collided: True when the drone hit an obstacle.
        mission_time_s: total simulated time from launch until goal/termination.
        distance_travelled_m: integrated path length actually flown.
        mean_velocity_mps: distance travelled divided by mission time.
        energy_j: total mission energy (flight plus compute), joules.
        mean_cpu_utilization: average per-decision CPU utilisation in [0, 1].
        decision_count: number of pipeline decisions executed.
        median_latency_s: median end-to-end decision latency.
        max_latency_s: worst-case end-to-end decision latency.
        deadline_miss_rate: fraction of decisions whose latency exceeded their
            budget.
        replan_count: number of piece-wise planner invocations.
    """

    design: str
    success: bool
    collided: bool
    mission_time_s: float
    distance_travelled_m: float
    mean_velocity_mps: float
    energy_j: float
    mean_cpu_utilization: float
    decision_count: int
    median_latency_s: float
    max_latency_s: float
    deadline_miss_rate: float
    replan_count: int

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary used by the benchmark tables."""
        return {
            "success": float(self.success),
            "collided": float(self.collided),
            "mission_time_s": self.mission_time_s,
            "distance_travelled_m": self.distance_travelled_m,
            "mean_velocity_mps": self.mean_velocity_mps,
            "energy_kj": self.energy_j / 1000.0,
            "mean_cpu_utilization": self.mean_cpu_utilization,
            "decision_count": float(self.decision_count),
            "median_latency_s": self.median_latency_s,
            "max_latency_s": self.max_latency_s,
            "deadline_miss_rate": self.deadline_miss_rate,
            "replan_count": float(self.replan_count),
        }


def summarise_zone_velocity(traces: List[DecisionRecord]) -> Dict[str, float]:
    """Mean flown speed per zone (zone B should be fastest for RoboRun)."""
    by_zone: Dict[str, List[float]] = {}
    for trace in traces:
        by_zone.setdefault(trace.zone, []).append(trace.speed)
    return {
        zone: (sum(values) / len(values)) if values else 0.0
        for zone, values in by_zone.items()
    }
