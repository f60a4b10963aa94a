"""Tests for RRT*, smoothing, trajectories, control and dynamics/energy."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.control.follower import PurePursuitFollower
from repro.dynamics.drone import DroneState, QuadrotorKinematics
from repro.dynamics.energy import EnergyModel
from repro.dynamics.stopping import StoppingDistanceModel
from repro.geometry.aabb import AABB
from repro.geometry.vec3 import Vec3
from repro.perception.octomap import OccupancyOctree
from repro.perception.planning_view import build_planning_view
from repro.planning.rrt_star import RRTStarConfig, RRTStarPlanner
from repro.planning.smoothing import PathSmoother, SmoothingConfig
from repro.planning.trajectory import Trajectory, TrajectoryPoint


def wall_view(gap_center_y=0.0, gap_width=4.0):
    """A wall at x=20 spanning y in [-15, 15] with a gap around ``gap_center_y``."""
    octree = OccupancyOctree(vox_min=0.3)
    y = -15.0
    while y <= 15.0:
        if abs(y - gap_center_y) > gap_width / 2.0:
            for z in (4.0, 5.0, 6.0):
                octree.mark_occupied(Vec3(20.0, y, z))
        y += 0.3
    return build_planning_view(octree, precision=0.3)


BOUNDS = AABB(Vec3(-5, -20, 2), Vec3(60, 20, 10))


class TestTrajectory:
    def make(self):
        return Trajectory(
            [
                TrajectoryPoint(0.0, Vec3(0, 0, 5), Vec3(1, 0, 0)),
                TrajectoryPoint(1.0, Vec3(1, 0, 5), Vec3(1, 0, 0)),
                TrajectoryPoint(3.0, Vec3(3, 0, 5), Vec3(1, 0, 0)),
            ]
        )

    def test_monotone_times_required(self):
        with pytest.raises(ValueError):
            Trajectory(
                [
                    TrajectoryPoint(1.0, Vec3(0, 0, 0), Vec3.zero()),
                    TrajectoryPoint(1.0, Vec3(1, 0, 0), Vec3.zero()),
                ]
            )

    def test_sampling_interpolates_and_clamps(self):
        traj = self.make()
        assert traj.position_at(-1.0) == Vec3(0, 0, 5)
        assert traj.position_at(10.0) == Vec3(3, 0, 5)
        assert traj.position_at(2.0) == Vec3(2, 0, 5)

    def test_lengths_and_speeds(self):
        traj = self.make()
        assert traj.remaining_length(traj.start_time) == pytest.approx(3.0)
        assert traj.end_time - traj.start_time == pytest.approx(3.0)
        assert max(p.speed for p in traj.points) == pytest.approx(1.0)

    def test_nearest_and_remaining(self):
        traj = self.make()
        nearest = traj.nearest_point_to(Vec3(1.2, 0.5, 5))
        assert nearest.position == Vec3(1, 0, 5)
        assert traj.remaining_length(1.0) == pytest.approx(2.0)

    def test_upcoming_waypoints(self):
        traj = self.make()
        upcoming = traj.upcoming_waypoints(0.5, 5)
        assert len(upcoming) == 2
        assert traj.upcoming_waypoints(10.0, 5) == []

    def test_hover(self):
        hover = Trajectory.hover(Vec3(1, 1, 1), start_time=2.0, duration=3.0)
        assert hover.remaining_length(hover.start_time) == 0.0
        assert hover.end_time - hover.start_time == pytest.approx(3.0)


class TestRRTStar:
    def test_finds_path_through_gap(self):
        view = wall_view()
        planner = RRTStarPlanner(RRTStarConfig(seed=1, max_iterations=800))
        result = planner.plan(Vec3(0, 0, 5), Vec3(40, 0, 5), view, BOUNDS)
        assert result.success
        assert result.waypoints[0] == Vec3(0, 0, 5)
        assert result.waypoints[-1].distance_to(Vec3(40, 0, 5)) <= planner.config.goal_tolerance
        assert result.path_length >= 40.0 - planner.config.goal_tolerance
        assert result.collision_samples > 0
        # The found path never crosses the wall cells.
        for a, b in zip(result.waypoints, result.waypoints[1:]):
            assert not view.segment_in_collision(a, b)

    def test_empty_view_is_trivially_plannable(self):
        view = build_planning_view(OccupancyOctree(vox_min=0.3), precision=0.3)
        planner = RRTStarPlanner(RRTStarConfig(seed=2))
        result = planner.plan(Vec3(0, 0, 5), Vec3(30, 0, 5), view, BOUNDS)
        assert result.success

    def test_volume_monitor_stops_search(self):
        view = wall_view(gap_width=0.1)  # effectively no gap: the search cannot finish
        planner = RRTStarPlanner(
            RRTStarConfig(seed=3, max_iterations=2000, max_explored_volume=5_000.0)
        )
        result = planner.plan(Vec3(0, 0, 5), Vec3(40, 0, 5), view, BOUNDS)
        assert not result.success
        assert result.stopped_by_volume_monitor
        assert result.explored_volume >= 5_000.0

    def test_coarser_ray_step_probes_fewer_samples(self):
        view = wall_view()
        fine = RRTStarPlanner(RRTStarConfig(seed=4, collision_ray_step=0.3)).plan(
            Vec3(0, 0, 5), Vec3(40, 0, 5), view, BOUNDS
        )
        coarse = RRTStarPlanner(RRTStarConfig(seed=4, collision_ray_step=4.8)).plan(
            Vec3(0, 0, 5), Vec3(40, 0, 5), view, BOUNDS
        )
        if fine.success and coarse.success:
            assert coarse.collision_samples <= fine.collision_samples

    def test_start_hugging_obstacle_recovers(self):
        view = wall_view()
        planner = RRTStarPlanner(RRTStarConfig(seed=5, max_iterations=800))
        # Start directly adjacent to the wall (inside the inflated margin).
        result = planner.plan(Vec3(19.4, 6.0, 5.0), Vec3(40, 0, 5), view, BOUNDS)
        assert result.success

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RRTStarConfig(max_iterations=0)
        with pytest.raises(ValueError):
            RRTStarConfig(goal_bias=1.5)


class TestSmoothing:
    def test_smoothed_path_respects_velocity_cap(self):
        smoother = PathSmoother(SmoothingConfig(max_velocity=2.0))
        waypoints = [Vec3(0, 0, 5), Vec3(10, 0, 5), Vec3(20, 5, 5), Vec3(40, 5, 5)]
        traj = smoother.smooth(waypoints)
        assert max(p.speed for p in traj.points) <= 2.0 + 1e-6
        assert traj.start == waypoints[0]
        assert traj.goal == waypoints[-1]
        assert traj.end_time > traj.start_time

    def test_velocity_override(self):
        smoother = PathSmoother(SmoothingConfig(max_velocity=2.0))
        waypoints = [Vec3(0, 0, 5), Vec3(30, 0, 5)]
        slow = smoother.smooth(waypoints, max_velocity=0.5)
        fast = smoother.smooth(waypoints, max_velocity=2.0)
        assert slow.end_time - slow.start_time > fast.end_time - fast.start_time
        assert max(p.speed for p in slow.points) <= 0.5 + 1e-6

    def test_shortcut_removes_detours_in_open_space(self):
        view = build_planning_view(OccupancyOctree(vox_min=0.3), precision=0.3)
        smoother = PathSmoother()
        zigzag = [Vec3(0, 0, 5), Vec3(5, 8, 5), Vec3(10, -8, 5), Vec3(20, 0, 5)]
        traj = smoother.smooth(zigzag, view=view)
        direct = Vec3(0, 0, 5).distance_to(Vec3(20, 0, 5))
        assert traj.remaining_length(traj.start_time) <= direct * 1.2

    def test_smoothed_path_avoids_obstacles(self):
        view = wall_view()
        planner = RRTStarPlanner(RRTStarConfig(seed=7, max_iterations=800))
        plan = planner.plan(Vec3(0, 0, 5), Vec3(40, 0, 5), view, BOUNDS)
        assert plan.success
        traj = PathSmoother().smooth(plan.waypoints, view=view)
        for a, b in zip(traj.waypoint_positions(), traj.waypoint_positions()[1:]):
            assert not view.segment_in_collision(a, b)

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            PathSmoother().smooth([])

    def test_single_point_hovers(self):
        traj = PathSmoother().smooth([Vec3(1, 2, 3)])
        assert traj.remaining_length(traj.start_time) == 0.0


class TestControl:
    def test_pure_pursuit_moves_along_path(self):
        traj = Trajectory(
            [
                TrajectoryPoint(0.0, Vec3(0, 0, 5), Vec3(1, 0, 0)),
                TrajectoryPoint(10.0, Vec3(10, 0, 5), Vec3(1, 0, 0)),
                TrajectoryPoint(20.0, Vec3(10, 10, 5), Vec3(0, 1, 0)),
            ]
        )
        follower = PurePursuitFollower(lookahead=2.0)
        command = follower.velocity_command(traj, Vec3(0, 0, 5), speed=2.0)
        assert command.x > 0
        assert command.norm() == pytest.approx(2.0, abs=0.01)
        # Near the goal the commanded speed tapers.
        near_goal = follower.velocity_command(traj, Vec3(10, 9, 5), speed=2.0)
        assert near_goal.norm() < 2.0


class TestDynamics:
    def test_step_moves_toward_command(self):
        model = QuadrotorKinematics()
        state = DroneState(0.0, Vec3(0, 0, 5), Vec3.zero())
        for _ in range(40):
            state = model.step(state, Vec3(2, 0, 0), dt=0.1)
        assert state.velocity.x == pytest.approx(2.0, abs=0.2)
        assert state.position.x > 0

    def test_velocity_clamped_to_airframe_limit(self):
        model = QuadrotorKinematics(max_velocity=3.0)
        state = DroneState(0.0, Vec3(0, 0, 5), Vec3.zero())
        for _ in range(100):
            state = model.step(state, Vec3(50, 0, 0), dt=0.1)
        assert state.speed <= 3.0 + 1e-6

    def test_stopping_distance_monotone_in_speed(self):
        model = QuadrotorKinematics()
        assert model.stopping_distance(1.0) < model.stopping_distance(3.0)

    def test_bad_dt_rejected(self):
        model = QuadrotorKinematics()
        with pytest.raises(ValueError):
            model.step(DroneState(0.0, Vec3.zero(), Vec3.zero()), Vec3.zero(), dt=0.0)


class TestStoppingModel:
    def test_default_model_monotone_and_nonnegative(self):
        model = StoppingDistanceModel()
        previous = 0.0
        for v in (0.0, 0.5, 1.0, 2.0, 3.0, 5.0):
            d = model.distance(v)
            assert d >= previous
            previous = d

    def test_paper_form_clamped_at_zero(self):
        model = StoppingDistanceModel(paper_form=True)
        assert model.distance(5.0) == 0.0
        assert model.distance(0.0) == pytest.approx(0.2)

    def test_fit_from_kinematics_matches_measurements(self):
        kinematics = QuadrotorKinematics()
        fitted = StoppingDistanceModel.fit_from_kinematics(kinematics)
        mse = fitted.mse_against(kinematics, [0.5, 1.5, 3.0])
        assert mse < 0.5

    def test_negative_velocity_rejected(self):
        with pytest.raises(ValueError):
            StoppingDistanceModel().distance(-1.0)


class TestEnergyModel:
    def test_flight_power_grows_with_speed(self):
        model = EnergyModel()
        assert model.flight_power(2.0) > model.flight_power(0.0)

    def test_energy_dominated_by_flight_time(self):
        model = EnergyModel()
        short = model.mission_energy(flight_time_s=400.0, mean_speed=2.5, compute_busy_s=300.0)
        long = model.mission_energy(flight_time_s=2000.0, mean_speed=0.4, compute_busy_s=2000.0)
        assert long > short * 3

    def test_compute_energy_fraction_is_tiny(self):
        model = EnergyModel()
        total = model.mission_energy(flight_time_s=2000.0, mean_speed=0.5, compute_busy_s=1800.0)
        assert model.compute_energy(1800.0) / total < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyModel(hover_power_w=0.0)
        with pytest.raises(ValueError):
            EnergyModel().flight_energy(-1.0)
