"""Figure 8: sensitivity to obstacle density, spread and goal distance.

The paper sweeps three values of each knob (Figure 8a) over 27 environments.
At reduced scale the harness sweeps the extreme values of one knob at a time
(low vs high density, spread and goal distance) and reports each design's
flight-time ratio across the sweep — the quantity Figures 8b–8d plot.
RoboRun is expected to be the *more* sensitive design for density/spread
(it exploits easy space) and the *less* sensitive one for goal distance.
"""

import dataclasses

import pytest
from conftest import BENCH_ENV, BENCH_MISSION, bench_spec, print_table

# Mission-level benchmark: flies full missions through the simulator.
pytestmark = pytest.mark.slow

from repro import CampaignRunner
from repro.analysis.figures import fig8_sensitivity
from repro.analysis.report import CampaignReport
from repro.environment.generator import (
    DENSITY_LEVELS,
    GOAL_DISTANCE_LEVELS_M,
    SPREAD_LEVELS_M,
)


def test_fig8a_evaluation_scenarios(benchmark):
    def rows():
        return [
            ["environment knob", "dynamic values"],
            ["obstacle density", list(DENSITY_LEVELS)],
            ["obstacle spread (m)", list(SPREAD_LEVELS_M)],
            ["goal distance (m)", list(GOAL_DISTANCE_LEVELS_M)],
        ]

    table = benchmark(rows)
    print_table("Figure 8a: evaluation scenario knobs", table)
    assert table[1][1] == [0.3, 0.45, 0.6]
    assert table[2][1] == [40.0, 80.0, 120.0]
    assert table[3][1] == [600.0, 900.0, 1200.0]


def _sweep(knob, low, high, trace_dir):
    """Fly the 2x2 sweep (design x knob value) as one parallel campaign.

    The campaign streams its traces to ``trace_dir``, and aggregation reads
    them back through :class:`CampaignReport` and the shared
    :func:`repro.analysis.figures.fig8_sensitivity`: the same fold the
    campaign report CLI applies to saved traces.
    """
    designs = ("spatial_oblivious", "roborun")
    specs = [
        bench_spec(design, dataclasses.replace(BENCH_ENV, **{knob: value}), BENCH_MISSION)
        for design in designs
        for value in (low, high)
    ]
    CampaignRunner().run(specs, trace_dir=trace_dir)

    report = CampaignReport.from_trace_dir(trace_dir)
    table = fig8_sensitivity(report.missions, knob)
    return table.as_rows(), table.meta["ratios"]


@pytest.mark.slow
def test_fig8b_sensitivity_to_density(benchmark, tmp_path):
    (rows, ratios) = benchmark.pedantic(
        lambda: _sweep("obstacle_density", 0.3, 0.6, tmp_path), rounds=1, iterations=1
    )
    print_table("Figure 8b: flight-time sensitivity to obstacle density", rows)
    assert all(r > 0 for r in ratios.values())


@pytest.mark.slow
def test_fig8d_sensitivity_to_goal_distance(benchmark, tmp_path):
    (rows, ratios) = benchmark.pedantic(
        lambda: _sweep("goal_distance", 80.0, 160.0, tmp_path), rounds=1, iterations=1
    )
    print_table("Figure 8d: flight-time sensitivity to goal distance", rows)
    assert all(r > 0 for r in ratios.values())
