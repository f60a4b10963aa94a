"""The scenario orchestrator: resolves fault windows and answers per-decision queries.

:class:`FaultOrchestrator` is the engine between the declarative
:class:`~repro.simulation.faults.FaultSet` (data: which faults, which
windows) and the pipeline stages (mechanism: what changes this decision).
It is built once per mission from the scenario's fault set and seed:

* legacy always-on fields (``sensor_dropout`` / ``camera_degradation``)
  become ``[0, ∞)`` windows, preserving their original semantics exactly;
* each :class:`~repro.simulation.faults.FaultSchedule` entry is resolved
  against the mission seed — jitter applied deterministically — into a
  concrete half-open ``[start, end)`` decision window.

Stages then ask one question per decision through a layer-specific query
(:meth:`sensor_dropped`, :meth:`camera_resolution`, :meth:`budget_scale`,
:meth:`apply_stage_latencies`, :meth:`frozen_epoch`).  Every query gives
the nominal answer when no fault's window covers the decision, so a
fault-free mission is simply an orchestrator with no windows: it flies the
same code path as a faulted one.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.middleware.latency import is_comm_stage
from repro.simulation.faults import Fault, FaultSet

__all__ = ["FaultOrchestrator", "FaultWindow"]


class FaultWindow:
    """One resolved fault window: a fault plus its ``[start, end)`` bounds."""

    __slots__ = ("fault", "start", "end")

    def __init__(self, fault: Fault, start: int, end: Optional[int]) -> None:
        self.fault = fault
        self.start = start
        self.end = end

    def covers(self, index: int) -> bool:
        """True when ``index`` falls inside the window."""
        if index < self.start:
            return False
        return self.end is None or index < self.end

    def active_for(self, index: int) -> int:
        """Decisions elapsed since activation (0 on the activation decision)."""
        return index - self.start


class FaultOrchestrator:
    """Per-mission fault engine: resolved windows + per-decision queries.

    Args:
        faults: the scenario's fault set (``None`` ≡ empty).
        seed: the mission seed; schedule jitter resolves deterministically
            from it, so serial and multiprocessing campaign runs agree.
    """

    def __init__(self, faults: Optional[FaultSet], seed: int = 0) -> None:
        self.faults = faults if faults is not None else FaultSet()
        self.seed = seed
        self._windows: List[FaultWindow] = []
        if self.faults.sensor_dropout is not None:
            self._windows.append(FaultWindow(self.faults.sensor_dropout, 0, None))
        if self.faults.camera_degradation is not None:
            self._windows.append(FaultWindow(self.faults.camera_degradation, 0, None))
        for ordinal, entry in enumerate(self.faults.schedule):
            start, end = entry.resolve(seed, ordinal)
            self._windows.append(FaultWindow(entry.fault, start, end))

    def active(self, index: int) -> List[Tuple[Fault, int]]:
        """Every fault covering ``index``, as ``(fault, active_for)`` pairs."""
        return [
            (window.fault, window.active_for(index))
            for window in self._windows
            if window.covers(index)
        ]

    def active_fault_names(self, index: int) -> Tuple[str, ...]:
        """Sorted unique registry names of the faults active at ``index``."""
        return tuple(
            sorted(
                {
                    type(window.fault).fault_name
                    for window in self._windows
                    if window.covers(index)
                }
            )
        )

    # -- per-layer queries ----------------------------------------------
    def sensor_dropped(self, index: int) -> bool:
        """True when any active fault drops this decision's sensor frame."""
        return any(
            fault.sensor_dropped(index, active_for)
            for fault, active_for in self.active(index)
        )

    def camera_resolution(self, index: int) -> Optional[Tuple[int, int]]:
        """The degraded capture resolution, or ``None`` for nominal."""
        for fault, active_for in self.active(index):
            resolution = fault.camera_resolution(index, active_for)
            if resolution is not None:
                return resolution
        return None

    def budget_scale(self, index: int) -> float:
        """Product of every active fault's time-budget multiplier."""
        scale = 1.0
        for fault, active_for in self.active(index):
            scale *= fault.budget_scale(index, active_for)
        return scale

    def apply_stage_latencies(
        self, index: int, stage_latencies: Mapping[str, float]
    ) -> Dict[str, float]:
        """Fold the active faults into one decision's stage latencies.

        Comm stages pass through each active fault's
        :meth:`~repro.simulation.faults.Fault.comm_seconds` hook in window
        order; compute stages are multiplied by the product of the active
        faults' compute factors.  With no fault covering the decision the
        result is a fresh dict with the same float bits: the comm loop is
        empty and the factor is 1.0.
        """
        active = self.active(index)
        factor = 1.0
        for fault, active_for in active:
            factor *= fault.compute_factor(index, active_for)
        adjusted: Dict[str, float] = {}
        for stage, seconds in stage_latencies.items():
            if is_comm_stage(stage):
                for fault, active_for in active:
                    seconds = fault.comm_seconds(stage, seconds, index, active_for)
                adjusted[stage] = seconds
            else:
                adjusted[stage] = seconds * factor if factor != 1.0 else seconds
        return adjusted

    def frozen_epoch(self, mover_name: str, index: int) -> Optional[int]:
        """The epoch a stuck mover is pinned to, or ``None`` when it moves.

        A frozen mover holds the position it had at its window's activation
        decision, so the pinned epoch is the earliest covering window's
        ``start``.
        """
        starts = [
            window.start
            for window in self._windows
            if window.covers(index) and window.fault.freezes_mover(mover_name)
        ]
        return min(starts) if starts else None
