"""Figure 7: mission-level metrics for the two designs.

The paper reports, averaged over 27 environments: 5X velocity, 4.5X mission
time, 4X energy and a 36% CPU-utilisation reduction in RoboRun's favour.  The
reduced-scale harness flies one environment pair (see ``conftest.BENCH_ENV``),
folds its saved traces through the shared :func:`repro.analysis.figures.fig7_overall`
aggregator (the same code path the campaign report CLI uses) and prints the
same four rows.  ``perfbench/run.py --workload corridor_ab`` prints the
measured baseline÷RoboRun mission-time and energy ratios for this
environment (see ``perfbench/README.md``).
"""

import pytest
from conftest import print_table

from repro.analysis.figures import fig7_overall
from repro.analysis.report import CampaignReport

# Mission-level benchmark: flies full missions through the simulator.
pytestmark = pytest.mark.slow


def test_fig7_mission_level_metrics(benchmark, mission_pair, mission_trace_dir):
    def rows():
        records = CampaignReport.from_trace_dir(mission_trace_dir).missions
        return fig7_overall(records).as_rows()

    table = benchmark.pedantic(rows, rounds=1, iterations=1)
    print_table("Figure 7: mission-level metrics (reduced-scale environment)", table)
    roborun = mission_pair["roborun"].metrics
    baseline = mission_pair["spatial_oblivious"].metrics
    # Shape: RoboRun finishes the mission no slower than the static baseline
    # and with a (much) lower median decision latency.  Mean velocity over the
    # whole path can dip below the baseline's at reduced scale because
    # RoboRun's replans wander more; flight time and the per-zone velocities
    # are the robust mission-level signals.
    assert roborun.mission_time_s <= baseline.mission_time_s * 1.05
    assert roborun.median_latency_s < baseline.median_latency_s
    # Both designs produce decisions and energy follows mission time.
    assert roborun.decision_count > 0 and baseline.decision_count > 0
    if roborun.mission_time_s < baseline.mission_time_s:
        assert roborun.energy_j < baseline.energy_j
