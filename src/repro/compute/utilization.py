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

from typing import Sequence


def mean_utilization(busy_seconds: Sequence[float], sensor_period_s: float) -> float:
    """Average per-decision utilisation (0 when there are no decisions).

    Each decision's interval is the larger of its busy time and the sensor
    sampling period: a decision that finishes early must still wait for
    fresh sensor data, which is exactly the idle time RoboRun frees up for
    other tasks.
    """
    if not busy_seconds:
        return 0.0
    return sum(
        min(1.0, busy / max(busy, sensor_period_s)) for busy in busy_seconds
    ) / len(busy_seconds)
