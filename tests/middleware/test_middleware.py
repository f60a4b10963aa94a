"""Tests for the simulated clock and the latency ledger."""

from types import SimpleNamespace

import pytest

from repro.middleware.clock import SimClock
from repro.middleware.latency import LatencyLedger


class TestSimClock:
    def test_advance_accumulates(self):
        clock = SimClock()
        assert clock.now == 0.0
        assert clock.advance(1.5) == pytest.approx(1.5)
        clock.advance(1.5)
        assert clock.now == pytest.approx(3.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)


def decision_records(*stage_maps):
    """Stand-ins carrying the two fields the ledger folds."""
    return [
        SimpleNamespace(stage_latencies=stages, end_to_end_latency=sum(stages.values()))
        for stages in stage_maps
    ]


class TestLatencyLedger:
    def test_decision_aggregation(self):
        ledger = LatencyLedger(
            decision_records(
                {"point_cloud": 0.2, "octomap": 0.3, "comm_octomap": 0.1},
                {"point_cloud": 0.2, "octomap": 0.1},
            )
        )
        assert ledger.end_to_end_latencies() == pytest.approx([0.6, 0.3])
        assert ledger.stage_totals() == pytest.approx(
            {"point_cloud": 0.4, "octomap": 0.4, "comm_octomap": 0.1}
        )
        assert ledger.median_latency() == pytest.approx((0.6 + 0.3) / 2)
        assert ledger.max_latency() == pytest.approx(0.6)

    def test_empty_mission_folds_to_zero(self):
        ledger = LatencyLedger([])
        assert ledger.stage_totals() == {}
        assert ledger.median_latency() == 0.0
        assert ledger.max_latency() == 0.0

    def test_stage_shares_sum_to_one(self):
        ledger = LatencyLedger(
            decision_records({"point_cloud": 0.4, "piecewise_planning": 0.6})
        )
        shares = ledger.stage_shares()
        assert sum(shares.values()) == pytest.approx(1.0)
