"""CPU-utilisation accounting.

The paper reports that RoboRun "reduces CPU-utilization by 36% on average per
decision by lowering the computational load when possible" (§V-A), freeing
resources for higher-level cognitive tasks.  Per decision we therefore define
utilisation as the fraction of the decision interval the CPU spends busy on
the navigation pipeline:

    utilisation = busy_seconds / decision_interval

where the decision interval runs from the start of one decision to the start
of the next (it is never shorter than the busy time itself, and never shorter
than the sensor sampling period — the pipeline cannot start a new decision
before new sensor data exists).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True, slots=True)
class DecisionUtilization:
    """Utilisation of one decision."""

    decision_index: int
    busy_seconds: float
    interval_seconds: float

    def __post_init__(self) -> None:
        if self.busy_seconds < 0:
            raise ValueError("busy time cannot be negative")
        if self.interval_seconds <= 0:
            raise ValueError("decision interval must be positive")

    @property
    def utilization(self) -> float:
        """Busy fraction of the decision interval, clamped to [0, 1]."""
        return min(1.0, self.busy_seconds / self.interval_seconds)


class CpuUtilizationTracker:
    """Collects per-decision utilisation samples across a mission."""

    def __init__(self, sensor_period_s: float = 0.5) -> None:
        if sensor_period_s <= 0:
            raise ValueError("sensor period must be positive")
        self.sensor_period_s = sensor_period_s
        self._samples: List[DecisionUtilization] = []

    def record_decision(self, decision_index: int, busy_seconds: float) -> DecisionUtilization:
        """Record one decision's busy time.

        The decision interval is the larger of the busy time and the sensor
        sampling period: a decision that finishes early must still wait for
        fresh sensor data, which is exactly the idle time RoboRun frees up for
        other tasks.
        """
        interval = max(busy_seconds, self.sensor_period_s)
        sample = DecisionUtilization(
            decision_index=decision_index,
            busy_seconds=busy_seconds,
            interval_seconds=interval,
        )
        self._samples.append(sample)
        return sample

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def samples(self) -> List[DecisionUtilization]:
        """All recorded samples in decision order."""
        return list(self._samples)

    def mean_utilization(self) -> float:
        """Average per-decision utilisation (0 when nothing recorded)."""
        if not self._samples:
            return 0.0
        return sum(s.utilization for s in self._samples) / len(self._samples)

    def total_busy_seconds(self) -> float:
        """Total CPU-busy seconds across the mission."""
        return sum(s.busy_seconds for s in self._samples)

    def headroom(self) -> float:
        """Average idle fraction per decision — the capacity freed for
        higher-level cognitive tasks such as semantic labelling."""
        return 1.0 - self.mean_utilization()
