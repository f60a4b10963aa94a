"""Simulated time.

All latency, deadline and mission-time accounting in the reproduction is
charged against a simulated clock rather than wall-clock time.  This keeps
the experiments deterministic and lets the compute-cost model (the substitute
for the paper's Intel i9 measurements) advance time by exactly the latency it
predicts for each decision.
"""

from __future__ import annotations


class SimClock:
    """A monotonically non-decreasing simulated clock.

    The decision loop advances it explicitly, once per epoch, by the
    decision interval.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError("clock cannot start at a negative time")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, dt: float) -> float:
        """Advance the clock by ``dt`` seconds.

        Args:
            dt: non-negative time increment.

        Returns:
            The new current time.
        """
        if dt < 0:
            raise ValueError(f"cannot advance the clock by a negative amount ({dt})")
        self._now += dt
        return self._now
