"""Integration tests: the full decision loop on small environments."""

import pytest

from repro import (
    EnvironmentConfig,
    EnvironmentGenerator,
    MissionConfig,
    MissionSimulator,
    RoboRunRuntime,
    SpatialObliviousRuntime,
)
from repro.geometry.vec3 import Vec3
from repro.middleware.clock import SimClock
from repro.planning.trajectory import Trajectory, TrajectoryPoint
from repro.simulation.metrics import (
    summarise_zone_velocity,
)

# A small, mild environment keeps the integration tests fast while still
# exercising every pipeline stage (congested A/C clusters plus an open B zone).
SMALL_ENV = EnvironmentConfig(
    obstacle_density=0.3, obstacle_spread=40.0, goal_distance=100.0, seed=11
)
FAST_CFG = MissionConfig(max_decisions=400, max_mission_time_s=1200.0)


@pytest.fixture(scope="module")
def roborun_result():
    env = EnvironmentGenerator().generate(SMALL_ENV)
    return MissionSimulator(env, RoboRunRuntime(), FAST_CFG).run()


@pytest.fixture(scope="module")
def baseline_result():
    env = EnvironmentGenerator().generate(SMALL_ENV)
    return MissionSimulator(env, SpatialObliviousRuntime(), FAST_CFG).run()


class TestMissionLoop:
    def test_roborun_completes_without_collision(self, roborun_result):
        assert not roborun_result.metrics.collided
        assert roborun_result.metrics.decision_count > 0
        assert roborun_result.metrics.distance_travelled_m > 10.0

    def test_baseline_makes_progress(self, baseline_result):
        # The baseline's fixed velocity is calibrated for an 80% collision-free
        # target (as in the paper), so individual seeds may terminate early;
        # the integration test only requires that the loop runs and progresses.
        assert baseline_result.metrics.decision_count > 0
        assert baseline_result.metrics.distance_travelled_m > 5.0

    def test_traces_are_complete(self, roborun_result):
        traces = roborun_result.traces
        assert len(traces) == roborun_result.metrics.decision_count
        for trace in traces[:20]:
            assert trace.end_to_end_latency > 0
            assert trace.time_budget >= 0
            assert trace.zone in {"A", "B", "C"}
            assert set(trace.policy) == {
                "point_cloud_precision",
                "map_to_planner_precision",
                "octomap_volume",
                "map_to_planner_volume",
                "planner_volume",
            }

    def test_timestamps_monotone(self, roborun_result):
        stamps = [t.timestamp for t in roborun_result.traces]
        assert all(b >= a for a, b in zip(stamps, stamps[1:]))

    def test_metrics_consistency(self, roborun_result):
        m = roborun_result.metrics
        assert m.mission_time_s > 0
        assert m.energy_j > 0
        assert 0.0 <= m.mean_cpu_utilization <= 1.0
        assert m.mean_velocity_mps == pytest.approx(
            m.distance_travelled_m / m.mission_time_s, rel=1e-6
        )
        assert 0.0 <= m.deadline_miss_rate <= 1.0
        assert m.median_latency_s <= m.max_latency_s

    def test_roborun_varies_its_policy(self, roborun_result):
        precisions = {t.policy["point_cloud_precision"] for t in roborun_result.traces}
        assert len(precisions) > 1, "RoboRun should adapt precision across the mission"

    def test_baseline_never_varies_its_policy(self, baseline_result):
        precisions = {t.policy["point_cloud_precision"] for t in baseline_result.traces}
        volumes = {t.policy["octomap_volume"] for t in baseline_result.traces}
        assert precisions == {0.3}
        assert volumes == {46_000.0}

    def test_baseline_velocity_cap_constant(self, baseline_result):
        caps = {round(t.velocity_cap, 6) for t in baseline_result.traces}
        assert len(caps) == 1

    def test_roborun_faster_than_baseline_in_open_zone(self, roborun_result, baseline_result):
        roborun_zones = summarise_zone_velocity(roborun_result.traces)
        baseline_zones = summarise_zone_velocity(baseline_result.traces)
        if "B" in roborun_zones and "B" in baseline_zones:
            assert roborun_zones["B"] > baseline_zones["B"]

    def test_as_dict_round_trip(self, roborun_result):
        d = roborun_result.metrics.as_dict()
        assert d["mission_time_s"] == pytest.approx(roborun_result.metrics.mission_time_s)
        assert d["energy_kj"] == pytest.approx(roborun_result.metrics.energy_j / 1000.0)


class TestGoldenMetrics:
    """The node-graph refactor must not move a single bit of the metrics.

    The expected values were captured from the pre-refactor monolithic
    decision loop on this exact environment/config pair; the node-based
    pipeline must reproduce them exactly (not approximately).
    """

    GOLDEN = {
        "roborun": {
            "success": 0.0,
            "collided": 0.0,
            "mission_time_s": 120.73771800000009,
            "distance_travelled_m": 80.8318339949936,
            "mean_velocity_mps": 0.669482870257607,
            "energy_kj": 57.71541177989992,
            "mean_cpu_utilization": 1.0,
            "decision_count": 122.0,
            "median_latency_s": 0.8780390000000002,
            "max_latency_s": 2.6474080000000004,
            "deadline_miss_rate": 0.7786885245901639,
            "replan_count": 13.0,
        },
        "spatial_oblivious": {
            "success": 1.0,
            "collided": 0.0,
            "mission_time_s": 301.069418,
            "distance_travelled_m": 180.43152367207372,
            "mean_velocity_mps": 0.599302064190637,
            "energy_kj": 143.52508642344148,
            "mean_cpu_utilization": 1.0,
            "decision_count": 133.0,
            "median_latency_s": 2.2219660000000006,
            "max_latency_s": 3.455577999999999,
            "deadline_miss_rate": 0.0,
            "replan_count": 21.0,
        },
    }
    STAGE_ENTRIES = {"roborun": 1220, "spatial_oblivious": 1330}

    @staticmethod
    def stage_entries(result):
        return sum(len(t.stage_latencies) for t in result.traces)

    def test_roborun_metrics_bit_identical(self, roborun_result):
        assert roborun_result.metrics.as_dict() == self.GOLDEN["roborun"]
        assert self.stage_entries(roborun_result) == self.STAGE_ENTRIES["roborun"]

    def test_baseline_metrics_bit_identical(self, baseline_result):
        assert baseline_result.metrics.as_dict() == self.GOLDEN["spatial_oblivious"]
        assert (
            self.stage_entries(baseline_result)
            == self.STAGE_ENTRIES["spatial_oblivious"]
        )


class TestTrajectoryBlockedAnchoring:
    """Regression tests for the blocked-path check's start-index lookup."""

    def make_planning_node(self):
        env = EnvironmentGenerator().generate(
            EnvironmentConfig(
                obstacle_density=0.05, obstacle_spread=30.0, goal_distance=60.0, seed=3
            )
        )
        sim = MissionSimulator(env, RoboRunRuntime(), FAST_CFG)
        return sim.build_pipeline(SimClock(), []).planning

    def loop_trajectory(self):
        """A path that revisits its start: A → B → A → C."""
        a = Vec3(0.0, 0.0, 5.0)
        b = Vec3(20.0, 0.0, 5.0)
        c = Vec3(0.0, 40.0, 5.0)
        v = Vec3(2.0, 0.0, 0.0)
        return (
            Trajectory(
                [
                    TrajectoryPoint(0.0, a, v),
                    TrajectoryPoint(10.0, b, v),
                    TrajectoryPoint(20.0, a, v),
                    TrajectoryPoint(30.0, c, v),
                ]
            ),
            a,
            b,
        )

    def test_duplicate_waypoint_anchors_ahead_of_drone(self):
        # The drone has flown A → B → A; the only mapped obstacle sits on the
        # already-consumed A → B leg.  Re-finding the anchor by position
        # equality lands on the *first* A and reports the path behind the
        # drone as blocked; anchoring by sample index must look ahead (A → C,
        # which is clear) and report the trajectory as flyable.
        planning = self.make_planning_node()
        trajectory, a, _ = self.loop_trajectory()
        octree = planning.operators.octree
        for dy in (-0.3, 0.0, 0.3):
            octree.mark_occupied(Vec3(10.0, dy, 5.0))
        assert not planning.trajectory_blocked(trajectory, a)

    def test_obstacle_ahead_is_still_caught(self):
        # From B the path ahead (B → A) does cross the mapped obstacle.
        planning = self.make_planning_node()
        trajectory, _, b = self.loop_trajectory()
        octree = planning.operators.octree
        for dy in (-0.3, 0.0, 0.3):
            octree.mark_occupied(Vec3(10.0, dy, 5.0))
        assert planning.trajectory_blocked(trajectory, b)


class TestMissionConfigValidation:
    def test_invalid_periods_rejected(self):
        with pytest.raises(ValueError):
            MissionConfig(sensor_period_s=0.0)
        with pytest.raises(ValueError):
            MissionConfig(max_decisions=0)
        with pytest.raises(ValueError):
            MissionConfig(planning_horizon_m=-1.0)

    def test_flight_band_must_be_ordered_pair(self):
        with pytest.raises(ValueError):
            MissionConfig(flight_band_m=(12.0, 2.0))
        with pytest.raises(ValueError):
            MissionConfig(flight_band_m=(5.0, 5.0))
        with pytest.raises(ValueError):
            MissionConfig(flight_band_m=(1.0, 2.0, 3.0))

    def test_flight_band_normalised_to_float_tuple(self):
        cfg = MissionConfig(flight_band_m=[1, 9])
        assert cfg.flight_band_m == (1.0, 9.0)
        assert isinstance(cfg.flight_band_m, tuple)
        assert all(isinstance(v, float) for v in cfg.flight_band_m)
