"""Per-decision latency accounting.

Figure 11 of the paper breaks the end-to-end decision latency into
computation stages (point cloud, OctoMap, perception→planning, piecewise
planning, path smoothing, runtime) and communication stages between them.
The :class:`LatencyLedger` records one :class:`LatencyRecord` per stage per
decision so that the breakdown, the median latency reduction and the
zone-level variation statistics can all be reconstructed after a mission.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence

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

    The single definition of the compute-vs-communication split used by the
    pipeline's CPU accounting, the decision traces and the trace records.
    """
    return sum(
        seconds
        for stage, seconds in stage_latencies.items()
        if not is_comm_stage(stage)
    )


def comm_seconds(stage_latencies: Mapping[str, float]) -> float:
    """Sum of the communication (``comm_*`` hop) stages, seconds."""
    return sum(
        seconds
        for stage, seconds in stage_latencies.items()
        if is_comm_stage(stage)
    )


@dataclass(frozen=True, slots=True)
class LatencyRecord:
    """Latency of one pipeline stage during one decision."""

    decision_index: int
    stage: str
    seconds: float
    timestamp: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError("stage latency cannot be negative")


@dataclass
class DecisionLatency:
    """All stage latencies belonging to a single decision."""

    decision_index: int
    timestamp: float
    stages: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        """End-to-end latency of the decision."""
        return sum(self.stages.values())

    @property
    def compute_total(self) -> float:
        """Sum of computation stages only."""
        return sum(v for k, v in self.stages.items() if k in COMPUTE_STAGES)

    @property
    def comm_total(self) -> float:
        """Sum of communication stages only."""
        return sum(v for k, v in self.stages.items() if k in COMM_STAGES)

    def share(self, stage: str) -> float:
        """Fraction of the end-to-end latency consumed by one stage."""
        total = self.total
        if total == 0:
            return 0.0
        return self.stages.get(stage, 0.0) / total


class LatencyLedger:
    """Accumulates per-stage latency records across a mission."""

    def __init__(self) -> None:
        self._records: List[LatencyRecord] = []
        self._decisions: Dict[int, DecisionLatency] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self, decision_index: int, stage: str, seconds: float, timestamp: float
    ) -> LatencyRecord:
        """Record the latency of one stage of one decision."""
        if stage not in ALL_STAGES:
            raise ValueError(f"unknown pipeline stage {stage!r}; expected one of {ALL_STAGES}")
        rec = LatencyRecord(decision_index, stage, seconds, timestamp)
        self._records.append(rec)
        decision = self._decisions.get(decision_index)
        if decision is None:
            decision = DecisionLatency(decision_index, timestamp)
            self._decisions[decision_index] = decision
        decision.stages[stage] = decision.stages.get(stage, 0.0) + seconds
        return rec

    def record_many(
        self, decision_index: int, stage_latencies: Mapping[str, float], timestamp: float
    ) -> None:
        """Record a full map of stage latencies for one decision."""
        for stage, seconds in stage_latencies.items():
            self.record(decision_index, stage, seconds, timestamp)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def decisions(self) -> List[DecisionLatency]:
        """Per-decision latencies, ordered by decision index."""
        return [self._decisions[i] for i in sorted(self._decisions.keys())]

    def end_to_end_latencies(self) -> List[float]:
        """End-to-end latency of every decision, in decision order."""
        return [d.total for d in self.decisions()]

    def stage_totals(self) -> Dict[str, float]:
        """Total seconds spent in each stage across the mission."""
        totals: Dict[str, float] = {}
        for rec in self._records:
            totals[rec.stage] = totals.get(rec.stage, 0.0) + rec.seconds
        return totals

    def stage_shares(self) -> Dict[str, float]:
        """Fraction of total latency consumed by each stage (Figure 11b)."""
        totals = self.stage_totals()
        grand = sum(totals.values())
        if grand == 0:
            return {stage: 0.0 for stage in totals}
        return {stage: seconds / grand for stage, seconds in totals.items()}

    def median_latency(self) -> float:
        """Median end-to-end decision latency."""
        return _median(self.end_to_end_latencies())

    def max_latency(self) -> float:
        """Worst-case end-to-end decision latency (0 when no decisions)."""
        latencies = self.end_to_end_latencies()
        return max(latencies) if latencies else 0.0

    def latency_range_in_window(self, t_start: float, t_end: float) -> float:
        """Max minus min end-to-end latency among decisions stamped in a window.

        The representative-mission analysis uses this to quantify how much
        latency varies inside each zone (the "0.15 s in zone B vs. 10–12.5 s
        in zones A/C" observation of §V-C).
        """
        window = [
            d.total for d in self.decisions() if t_start <= d.timestamp <= t_end
        ]
        if not window:
            return 0.0
        return max(window) - min(window)

    def total_compute_seconds(self) -> float:
        """Total computation (non-comm) seconds across the mission."""
        return sum(d.compute_total for d in self.decisions())

    def __len__(self) -> int:
        return len(self._records)


def _median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    n = len(ordered)
    mid = n // 2
    if n % 2 == 1:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])
