"""Tests for knob policies, Table I profilers, operators, compute models and runtimes."""

import pytest

from repro.compute.costs import KernelWork, WorkloadCostModel
from repro.compute.latency_model import (
    DEFAULT_STAGE_MODELS,
    LatencyProfileSample,
    PipelineLatencyModel,
    STAGE_PERCEPTION,
    StageLatencyModel,
    fit_stage_model,
    model_mse,
)
from repro.compute.utilization import mean_utilization
from repro.core.baseline import BaselineDesignPoint, SpatialObliviousRuntime
from repro.core.operators import OperatorSet, merge_work
from repro.core.policy import (
    DYNAMIC_PRECISION_MAX_M,
    DYNAMIC_PRECISION_MIN_M,
    KnobLimits,
    KnobPolicy,
    STATIC_BASELINE_POLICY,
)
from repro.core.profilers import ProfilerSuite
from repro.core.runtime import RoboRunRuntime
from repro.environment.world import Obstacle, World
from repro.geometry.aabb import AABB
from repro.geometry.vec3 import Vec3
from repro.perception.octomap import OccupancyOctree
from repro.perception.point_cloud import PointCloudKernel
from repro.sensors.rig import CameraRig
from repro.sensors.state_sensors import StateEstimate


class TestKnobPolicy:
    def test_table_2_static_values(self):
        policy = STATIC_BASELINE_POLICY
        assert policy.point_cloud_precision == 0.3
        assert policy.map_to_planner_precision == 0.3
        assert policy.octomap_volume == 46_000.0
        assert policy.map_to_planner_volume == 150_000.0
        assert policy.planner_volume == 150_000.0
        assert policy.planning_precision == policy.map_to_planner_precision

    def test_table_2_dynamic_ranges(self):
        limits = KnobLimits()
        assert limits.precision_min == DYNAMIC_PRECISION_MIN_M == 0.3
        assert limits.precision_max == DYNAMIC_PRECISION_MAX_M == 9.6
        assert limits.octomap_volume_max == 60_000.0
        assert limits.map_to_planner_volume_max == 1_000_000.0
        assert limits.planner_volume_max == 1_000_000.0

    def test_precision_ladder_is_power_of_two(self):
        ladder = KnobLimits().precision_ladder()
        assert ladder[0] == 0.3
        assert ladder[-1] <= 9.6
        for a, b in zip(ladder, ladder[1:]):
            assert b == pytest.approx(2 * a)

    def test_policy_constraint_validation(self):
        with pytest.raises(ValueError):
            KnobPolicy(1.2, 0.6, 1000, 2000, 3000)  # p0 > p1
        with pytest.raises(ValueError):
            KnobPolicy(0.3, 0.3, 5000, 2000, 3000)  # v0 > v1

    def test_as_dict_names_every_knob(self):
        policy = STATIC_BASELINE_POLICY
        assert set(policy.as_dict()) == {
            "point_cloud_precision",
            "map_to_planner_precision",
            "octomap_volume",
            "map_to_planner_volume",
            "planner_volume",
        }


class TestProfilers:
    def build_scene(self):
        bounds = AABB(Vec3(-50, -50, 0), Vec3(100, 50, 30))
        world = World(bounds)
        world.add_obstacle(Obstacle(AABB.from_center(Vec3(10, 2, 10), Vec3(2, 2, 20))))
        world.add_obstacle(Obstacle(AABB.from_center(Vec3(10, -4, 10), Vec3(2, 2, 20))))
        rig = CameraRig(width=9, height=7, max_range=40.0)
        scan = rig.capture(world, Vec3(0, 0, 5))
        cloud = PointCloudKernel().process(scan, resolution=0.6)
        octree = OccupancyOctree(vox_min=0.3)
        octree.insert_point_cloud(cloud)
        return rig, scan, cloud, octree

    def test_profile_produces_every_table_1_variable(self):
        rig, scan, cloud, octree = self.build_scene()
        suite = ProfilerSuite()
        state = StateEstimate(0.0, Vec3(0, 0, 5), Vec3(1, 0, 0))
        profile = suite.profile(
            timestamp=0.0,
            state=state,
            cloud=cloud,
            scan=scan,
            octree=octree,
            trajectory=None,
            rig_max_volume=rig.max_sensor_volume(),
        )
        # Table I rows: gaps, closest obstacle, closest unknown, sensor/map
        # volume, velocity, position, trajectory.
        assert profile.gap_min > 0
        assert profile.gap_avg >= profile.gap_min
        assert 0 < profile.closest_obstacle <= suite.max_visibility
        assert profile.closest_unknown >= 0
        assert 0 < profile.visibility <= suite.max_visibility
        assert profile.sensor_volume > 0
        assert profile.map_volume > 0
        assert profile.velocity == pytest.approx(1.0)
        assert profile.position == Vec3(0, 0, 5)
        assert profile.trajectory is None

    def test_gap_statistics_near_vs_open(self):
        rig, scan, cloud, octree = self.build_scene()
        suite = ProfilerSuite()
        near_min, near_avg = suite.gap_statistics(cloud)
        empty_cloud = PointCloudKernel.from_points(Vec3(0, 0, 5), [], resolution=0.6)
        open_min, open_avg = suite.gap_statistics(empty_cloud)
        assert near_avg < open_avg
        assert open_min == suite.open_space_gap

    def test_visibility_limited_by_obstacle(self):
        rig, scan, cloud, octree = self.build_scene()
        suite = ProfilerSuite()
        visibility = suite.visibility(scan, closest_unknown=40.0)
        assert visibility < 15.0

    def test_closest_obstacle_falls_back_to_map(self):
        _, _, _, octree = self.build_scene()
        suite = ProfilerSuite()
        empty_cloud = PointCloudKernel.from_points(Vec3(0, 0, 5), [], resolution=0.6)
        d = suite.closest_obstacle(empty_cloud, octree, Vec3(0, 0, 5))
        assert 0 < d <= suite.max_visibility


class TestComputeModels:
    def test_workload_latencies_scale_with_work(self):
        model = WorkloadCostModel()
        light = KernelWork(pixels_converted=100, map_cells_updated=100)
        heavy = KernelWork(pixels_converted=100, map_cells_updated=10_000)
        assert model.octomap_latency(heavy) > model.octomap_latency(light)
        assert model.end_to_end_latency(heavy, True) > model.end_to_end_latency(light, True)

    def test_stage_breakdown_keys_and_runtime_overhead(self):
        model = WorkloadCostModel()
        work = KernelWork(pixels_converted=500, map_cells_updated=1000, planner_iterations=50)
        aware = model.stage_latencies(work, spatial_aware=True)
        oblivious = model.stage_latencies(work, spatial_aware=False)
        assert aware["runtime"] == pytest.approx(model.runtime_overhead_s)
        assert oblivious["runtime"] == 0.0
        assert set(aware) >= {"point_cloud", "octomap", "piecewise_planning", "comm_planning"}

    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            KernelWork(pixels_converted=-1)

    def test_merge_work_sums(self):
        merged = merge_work(
            KernelWork(pixels_converted=10, planner_iterations=5),
            KernelWork(pixels_converted=20, view_cells=7),
        )
        assert merged.pixels_converted == 30
        assert merged.planner_iterations == 5
        assert merged.view_cells == 7

    def test_eq4_latency_model_shape(self):
        model = DEFAULT_STAGE_MODELS[STAGE_PERCEPTION]
        fine = model.latency(0.3, 46_000.0)
        coarse = model.latency(9.6, 46_000.0)
        assert fine > coarse
        assert model.latency(0.3, 92_000.0) == pytest.approx(2 * fine)

    def test_fit_stage_model_recovers_latencies(self):
        true_model = StageLatencyModel(q0=1e-3, q1=1e-4, q2=1e-5, q3=1e-3)
        samples = [
            LatencyProfileSample(p, v, true_model.latency(p, v))
            for p in (0.3, 0.6, 1.2, 2.4, 4.8, 9.6)
            for v in (10_000.0, 46_000.0, 150_000.0)
        ]
        fitted = fit_stage_model(samples)
        assert model_mse(fitted, samples) < 0.01

    def test_fit_requires_enough_samples(self):
        with pytest.raises(ValueError):
            fit_stage_model([LatencyProfileSample(0.3, 1000.0, 1.0)])

    def test_pipeline_model_end_to_end(self):
        model = PipelineLatencyModel.default()
        precisions = {s: 0.3 for s in ("perception", "perception_to_planning", "planning")}
        volumes = {
            "perception": 46_000.0,
            "perception_to_planning": 150_000.0,
            "planning": 150_000.0,
        }
        total = model.end_to_end(precisions, volumes)
        assert total > 1.0  # worst-case static latency lands in the seconds range

    def test_mean_cpu_utilization(self):
        # 0.25 s busy of a 0.5 s sensor period is half busy; a decision busy
        # for longer than the period is saturated.
        assert mean_utilization([0.25, 1.0], sensor_period_s=0.5) == pytest.approx(
            (0.5 + 1.0) / 2
        )
        assert mean_utilization([], sensor_period_s=0.5) == 0.0


class TestOperators:
    def make_scene(self):
        bounds = AABB(Vec3(-50, -50, 0), Vec3(150, 50, 30))
        world = World(bounds)
        world.add_obstacle(Obstacle(AABB.from_center(Vec3(15, 0, 10), Vec3(2, 2, 20))))
        rig = CameraRig(width=9, height=7, max_range=40.0)
        return world, rig, bounds

    def test_perception_respects_precision_and_volume_knobs(self):
        world, rig, _ = self.make_scene()
        scan = rig.capture(world, Vec3(0, 0, 5))
        fine_ops = OperatorSet()
        coarse_ops = OperatorSet()
        fine_policy = KnobPolicy(0.3, 0.3, 60_000, 1_000_000, 1_000_000)
        coarse_policy = KnobPolicy(4.8, 4.8, 60_000, 1_000_000, 1_000_000)
        fine_out = fine_ops.run_perception(scan, fine_policy)
        coarse_out = coarse_ops.run_perception(scan, coarse_policy)
        assert len(coarse_out.cloud) <= len(fine_out.cloud)
        assert coarse_out.work.map_cells_updated <= fine_out.work.map_cells_updated

    def test_planning_builds_view_and_trajectory(self):
        world, rig, bounds = self.make_scene()
        ops = OperatorSet()
        scan = rig.capture(world, Vec3(0, 0, 5))
        policy = KnobPolicy(0.6, 0.6, 60_000, 1_000_000, 1_000_000)
        ops.run_perception(scan, policy)
        out = ops.run_planning(
            policy=policy,
            start=Vec3(0, 0, 5),
            goal=Vec3(60, 0, 5),
            bounds=bounds,
            replan=True,
            previous_trajectory=None,
            start_time=0.0,
            velocity_cap=2.0,
        )
        assert out.plan is not None and out.plan.success
        assert out.trajectory is not None
        assert max(p.speed for p in out.trajectory.points) <= 2.0 + 1e-6
        assert out.work.planner_iterations > 0
        assert ops.plan_count == 1

    def test_planning_skips_replan_when_tracking(self):
        world, rig, bounds = self.make_scene()
        ops = OperatorSet()
        scan = rig.capture(world, Vec3(0, 0, 5))
        policy = KnobPolicy(0.6, 0.6, 60_000, 1_000_000, 1_000_000)
        ops.run_perception(scan, policy)
        first = ops.run_planning(policy, Vec3(0, 0, 5), Vec3(60, 0, 5), bounds, True, None, 0.0, 2.0)
        second = ops.run_planning(
            policy, Vec3(1, 0, 5), Vec3(60, 0, 5), bounds, False, first.trajectory, 1.0, 2.0
        )
        assert second.plan is None
        assert second.trajectory is first.trajectory
        assert ops.plan_count == 1


class TestRuntimes:
    def make_profile(self, **overrides):
        from tests.core.test_budget_solver_governor import make_profile

        return make_profile(**overrides)

    def test_baseline_is_static_across_decisions(self):
        baseline = SpatialObliviousRuntime()
        open_decision = baseline.decide(self.make_profile(gap_min=25.0, gap_avg=25.0))
        tight_decision = baseline.decide(self.make_profile(gap_min=0.6, gap_avg=1.0))
        assert open_decision.policy == tight_decision.policy == STATIC_BASELINE_POLICY
        assert open_decision.velocity_cap == tight_decision.velocity_cap
        assert open_decision.time_budget == tight_decision.time_budget

    def test_baseline_design_velocity_is_conservative(self):
        decision = SpatialObliviousRuntime().decide(self.make_profile())
        assert 0.1 <= decision.velocity_cap <= 1.5
        assert decision.predicted_latency > 1.0

    def test_baseline_worst_case_assumptions_matter(self):
        optimistic = SpatialObliviousRuntime(
            design_point=BaselineDesignPoint(worst_case_visibility=30.0)
        )
        pessimistic = SpatialObliviousRuntime(
            design_point=BaselineDesignPoint(worst_case_visibility=5.0)
        )
        profile = self.make_profile()
        assert (
            optimistic.decide(profile).velocity_cap
            >= pessimistic.decide(profile).velocity_cap
        )

    def test_roborun_adapts_policy_to_space(self):
        runtime = RoboRunRuntime()
        open_decision = runtime.decide(
            self.make_profile(gap_min=25.0, gap_avg=25.0, closest_obstacle=40.0, visibility=40.0)
        )
        tight_decision = runtime.decide(
            self.make_profile(gap_min=0.6, gap_avg=1.2, closest_obstacle=3.0, visibility=5.0)
        )
        assert (
            open_decision.policy.point_cloud_precision
            > tight_decision.policy.point_cloud_precision
        )
        assert open_decision.velocity_cap >= tight_decision.velocity_cap
