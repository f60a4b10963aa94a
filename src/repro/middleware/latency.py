"""Per-decision latency accounting.

Figure 11 of the paper breaks the end-to-end decision latency into
computation stages (point cloud, OctoMap, perception→planning, piecewise
planning, path smoothing, runtime) and communication stages between them.
Each decision's record carries its stage latencies; the
:class:`LatencyLedger` folds one mission's records into the breakdown and
the median and worst-case latencies.
"""

from __future__ import annotations

import statistics
from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - the trace module imports this one
    from repro.analysis.trace import DecisionRecord

# Canonical stage names, in pipeline order.  "comm" stages model the
# serialisation/deserialisation cost of passing data between nodes.
COMPUTE_STAGES: Sequence[str] = (
    "point_cloud",
    "octomap",
    "perception_to_planning",
    "piecewise_planning",
    "path_smoothing",
    "runtime",
)
COMM_STAGES: Sequence[str] = (
    "comm_point_cloud",
    "comm_octomap",
    "comm_planning",
    "comm_control",
)
ALL_STAGES: Sequence[str] = tuple(COMPUTE_STAGES) + tuple(COMM_STAGES)

#: Naming convention separating communication hops from compute stages.
COMM_STAGE_PREFIX = "comm_"


def is_comm_stage(stage: str) -> bool:
    """True when a stage name denotes a communication hop (``comm_*``)."""
    return stage.startswith(COMM_STAGE_PREFIX)


def compute_seconds(stage_latencies: Mapping[str, float]) -> float:
    """Sum of the computation (non-``comm_*``) stages, seconds.

    The single definition of the compute-vs-communication split, behind
    each decision's compute energy and
    :attr:`~repro.analysis.trace.DecisionRecord.compute_latency`, which the
    mission's CPU-utilisation and energy metrics fold.
    """
    return sum(
        seconds
        for stage, seconds in stage_latencies.items()
        if not is_comm_stage(stage)
    )


class LatencyLedger:
    """Read-only per-stage view of one mission's decision records.

    Every :class:`~repro.analysis.trace.DecisionRecord` carries its stage
    latencies; the ledger folds them into the Figure 11 breakdown.
    """

    def __init__(self, records: Sequence["DecisionRecord"]) -> None:
        self._records = records

    def end_to_end_latencies(self) -> List[float]:
        """End-to-end latency of every decision, in decision order."""
        return [record.end_to_end_latency for record in self._records]

    def stage_totals(self) -> Dict[str, float]:
        """Total seconds spent in each stage across the mission."""
        totals: Dict[str, float] = {}
        for record in self._records:
            for stage, seconds in record.stage_latencies.items():
                totals[stage] = totals.get(stage, 0.0) + seconds
        return totals

    def stage_shares(self) -> Dict[str, float]:
        """Fraction of total latency consumed by each stage (Figure 11b)."""
        totals = self.stage_totals()
        grand = sum(totals.values())
        if grand == 0:
            return {stage: 0.0 for stage in totals}
        return {stage: seconds / grand for stage, seconds in totals.items()}

    def median_latency(self) -> float:
        """Median end-to-end decision latency (0 when no decisions)."""
        latencies = self.end_to_end_latencies()
        return statistics.median(latencies) if latencies else 0.0

    def max_latency(self) -> float:
        """Worst-case end-to-end decision latency (0 when no decisions)."""
        latencies = self.end_to_end_latencies()
        return max(latencies) if latencies else 0.0
