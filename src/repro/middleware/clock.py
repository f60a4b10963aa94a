"""Simulated time.

All latency, deadline and mission-time accounting in the reproduction is
charged against a simulated clock rather than wall-clock time.  This keeps
the experiments deterministic and lets the compute-cost model (the substitute
for the paper's Intel i9 measurements) advance time by exactly the latency it
predicts for each decision.
"""

from __future__ import annotations


class SimClock:
    """A monotonically non-decreasing simulated clock, starting at 0 s.

    The decision loop advances it explicitly, once per epoch, by the
    decision interval.
    """

    def __init__(self) -> None:
        self._now = 0.0

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
