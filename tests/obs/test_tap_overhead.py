"""The observability tap stays cheap: tapped against bare throughput, in process.

Flies the benchmark corridor (the ``corridor_ab`` world of ``perfbench/``:
density 0.3, spread 40 m, goal 120 m, seed 11) for a short RoboRun mission,
bare and with a live :class:`~repro.obs.tap.ObsTap`, in alternating pairs.
Each pair's throughput ratio compares two runs taken back to back on the same
machine, so the check holds on a slow runner as well as a fast one; the
median over the pairs damps a single descheduled run.
"""

import statistics
import time

from repro import (
    EnvironmentConfig,
    MissionConfig,
    MissionSimulator,
    ObsTap,
    RoboRunRuntime,
    build_environment,
)

BENCH_ENV = EnvironmentConfig(
    obstacle_density=0.3, obstacle_spread=40.0, goal_distance=120.0, seed=11
)
MISSION = MissionConfig(max_decisions=40, max_mission_time_s=500.0)
PAIRS = 3
#: Tapped ÷ bare throughput floor: 30% under the 0.989 measured on a 2-CPU box.
MIN_RATIO = 0.69


def _fly(tap=None):
    """(decisions, wall seconds) of one mission, timing only the flight."""
    simulator = MissionSimulator(build_environment(BENCH_ENV), RoboRunRuntime(), MISSION)
    start = time.perf_counter()
    result = simulator.run(taps=(tap,) if tap is not None else ())
    return result.metrics.decision_count, time.perf_counter() - start


def test_tapped_throughput_within_floor_of_bare():
    ratios = []
    for pair in range(PAIRS):
        tap = ObsTap()
        if pair % 2:
            tapped, bare = _fly(tap), _fly()
        else:
            bare, tapped = _fly(), _fly(tap)
        tap.finish()
        assert tapped[0] == bare[0] > 0, "the tap changed the mission's decision count"
        assert tap.tracer.events, "the tap recorded nothing"
        ratios.append((tapped[0] / tapped[1]) / (bare[0] / bare[1]))
    assert statistics.median(ratios) >= MIN_RATIO, (
        f"tapped / bare decisions per second {ratios}, median below {MIN_RATIO}"
    )
