"""Dynamic obstacles: exact kinematics, octree re-marking, index probes."""

import pytest

from repro import EnvironmentConfig, MoverSpec, WorldSpec, build_environment
from repro.environment.world import World
from repro.geometry.aabb import AABB
from repro.geometry.vec3 import Vec3
from repro.perception.octomap import OccupancyOctree
from repro.worlds.movers import DynamicObstacleSet, KinematicMover, build_movers

TINY = EnvironmentConfig(
    obstacle_density=0.3, obstacle_spread=30.0, goal_distance=60.0, seed=7
)


def empty_world() -> World:
    return World(AABB(Vec3(-50, -100, 0), Vec3(150, 100, 60)))


CROSSER = MoverSpec(
    kind="crosser",
    origin=(30.0, -20.0, 2.0),
    velocity=(0.0, 2.0, 0.0),
    span_m=40.0,
    epoch_s=0.5,
    size=(2.0, 2.0, 2.0),
)
LOOP = MoverSpec(
    kind="waypoint_loop",
    waypoints=((40.0, 5.0, 2.0), (50.0, 5.0, 2.0), (50.0, -5.0, 2.0), (40.0, -5.0, 2.0)),
    speed_mps=2.0,
    epoch_s=0.5,
)


class TestMoverSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            MoverSpec(kind="teleporter")
        with pytest.raises(ValueError):
            MoverSpec(kind="crosser", velocity=(0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            MoverSpec(kind="waypoint_loop", waypoints=((0.0, 0.0, 0.0),))
        with pytest.raises(ValueError):
            MoverSpec(kind="crosser", velocity=(1.0, 0.0, 0.0), epoch_s=0.0)
        with pytest.raises(ValueError):
            MoverSpec(kind="crosser", velocity=(1.0, 0.0, 0.0), size=(0.0, 1.0, 1.0))

    def test_round_trip(self):
        for spec in (CROSSER, LOOP):
            assert MoverSpec.from_dict(spec.to_dict()) == spec


class TestKinematics:
    def test_crosser_position_after_n_epochs_is_exact(self):
        mover = KinematicMover(CROSSER)
        # 2 m/s * 0.5 s/epoch = 1 m per epoch along +y.
        assert mover.position_at(0) == Vec3(30.0, -20.0, 2.0)
        assert mover.position_at(7) == Vec3(30.0, -13.0, 2.0)
        # Wraps every span_m = 40 m of travel: epoch 45 → 45 mod 40 = 5 m.
        assert mover.position_at(45) == Vec3(30.0, -15.0, 2.0)

    def test_unbounded_crosser_never_wraps(self):
        spec = MoverSpec(
            kind="crosser", origin=(0.0, 0.0, 2.0), velocity=(4.0, 0.0, 0.0),
            span_m=0.0, epoch_s=0.5,
        )
        assert KinematicMover(spec).position_at(100) == Vec3(200.0, 0.0, 2.0)

    def test_waypoint_loop_position_after_n_epochs_is_exact(self):
        mover = KinematicMover(LOOP)
        # Square loop, perimeter 40 m, 1 m per epoch.
        assert mover.position_at(0) == Vec3(40.0, 5.0, 2.0)
        assert mover.position_at(7) == Vec3(47.0, 5.0, 2.0)
        # 15 m: 10 along the first edge, 5 down the second.
        assert mover.position_at(15) == Vec3(50.0, 0.0, 2.0)
        # 35 m: on the closing edge back to the first waypoint.
        assert mover.position_at(35) == Vec3(40.0, 0.0, 2.0)
        # One full lap later, identical position.
        assert mover.position_at(47) == mover.position_at(7)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            KinematicMover(CROSSER).position_at(-1)


class TestDynamicObstacleSet:
    def test_remark_count_matches_mover_count(self):
        world = empty_world()
        dynamics = DynamicObstacleSet(build_movers([CROSSER, LOOP]), world)
        octree = OccupancyOctree(vox_min=0.3, levels=6)
        stats = dynamics.step(0, octree=octree)
        assert stats["movers"] == 2
        assert stats["remarked"] == 2
        assert stats["voxels_marked"] > 0
        assert stats["voxels_cleared"] == 0
        stats = dynamics.step(3, octree=octree)
        assert stats["remarked"] == 2
        assert stats["voxels_cleared"] > 0

    def test_spatial_index_probes_reflect_the_moved_cell(self):
        world = empty_world()
        dynamics = DynamicObstacleSet(build_movers([CROSSER]), world)
        octree = OccupancyOctree(vox_min=0.3, levels=6)
        dynamics.step(0, octree=octree)
        old_pos = Vec3(30.0, -20.0, 2.0)
        new_pos = Vec3(30.0, -16.0, 2.0)  # 4 epochs * 1 m/epoch
        assert octree.is_occupied(old_pos)
        # Distances are measured to voxel centres, so "inside" reads < vox_min.
        assert octree.nearest_occupied_distance(old_pos) < octree.vox_min
        dynamics.step(4, octree=octree)
        # Old footprint cleared, new footprint marked — all through the
        # incremental index, no rebuild.
        assert not octree.is_occupied(old_pos)
        assert octree.is_occupied(new_pos)
        assert octree.nearest_occupied_distance(new_pos) < octree.vox_min
        assert octree.nearest_occupied_distance(old_pos, max_radius=50.0) > 1.0
        # Segment probes see the mover at its new position only.
        assert octree.segment_occupied(Vec3(25, -16, 2), Vec3(35, -16, 2))
        assert not octree.segment_occupied(Vec3(25, -20, 2), Vec3(35, -20, 2))

    def test_ground_truth_world_follows_the_mover(self):
        world = empty_world()
        dynamics = DynamicObstacleSet(build_movers([CROSSER]), world)
        dynamics.step(0)
        assert world.is_occupied(Vec3(30.0, -20.0, 2.0))
        assert min(o.distance_to(Vec3(30.0, -17.0, 2.0)) for o in world.dynamic_obstacles) < 3.0
        dynamics.step(4)
        assert not world.is_occupied(Vec3(30.0, -20.0, 2.0))
        assert world.is_occupied(Vec3(30.0, -16.0, 2.0))
        assert world.segment_collides(Vec3(25, -16, 2), Vec3(35, -16, 2))
        assert len(world.dynamic_obstacles) == 1
        # Static obstacle accounting is untouched.
        assert len(world.obstacles) == 0

    def test_step_is_deterministic_and_absolute(self):
        """Stepping to an epoch directly equals stepping through all epochs."""
        octree_a = OccupancyOctree(vox_min=0.3, levels=6)
        dynamics_a = DynamicObstacleSet(build_movers([CROSSER, LOOP]), empty_world())
        for epoch in range(8):
            dynamics_a.step(epoch, octree=octree_a)
        octree_b = OccupancyOctree(vox_min=0.3, levels=6)
        dynamics_b = DynamicObstacleSet(build_movers([CROSSER, LOOP]), empty_world())
        dynamics_b.step(0, octree=octree_b)
        dynamics_b.step(7, octree=octree_b)
        assert octree_a.occupied_keys().tolist() == octree_b.occupied_keys().tolist()

    def test_crossing_movers_do_not_erase_each_other(self):
        """A later mover's clear must not erase an earlier mover's new mark.

        Mover B starts exactly where mover A arrives one epoch later: with
        interleaved clear/mark, processing B after A would clear the voxels
        A just marked.  The two-pass step keeps A's footprint intact.
        """
        a = MoverSpec(kind="crosser", origin=(10.0, 0.0, 2.0),
                      velocity=(2.0, 0.0, 0.0), epoch_s=0.5, name="a")
        b = MoverSpec(kind="crosser", origin=(11.0, 0.0, 2.0),
                      velocity=(2.0, 0.0, 0.0), epoch_s=0.5, name="b")
        dynamics = DynamicObstacleSet(build_movers([a, b]), empty_world())
        octree = OccupancyOctree(vox_min=0.3, levels=6)
        dynamics.step(0, octree=octree)
        dynamics.step(1, octree=octree)
        # At epoch 1, A sits at x=11 — B's old spot.  Both footprints present.
        assert octree.is_occupied(Vec3(11.0, 0.0, 2.0))
        assert octree.is_occupied(Vec3(12.0, 0.0, 2.0))

    def test_mover_overlap_does_not_erase_static_map(self):
        """Clearing a mover's footprint must leave sensor-derived voxels alone."""
        octree = OccupancyOctree(vox_min=0.3, levels=6)
        wall = Vec3(30.0, -20.0, 2.0)  # inside the crosser's epoch-0 box
        octree.mark_occupied(wall)
        dynamics = DynamicObstacleSet(build_movers([CROSSER]), empty_world())
        dynamics.step(0, octree=octree)
        assert octree.is_occupied(wall)
        dynamics.step(10, octree=octree)  # mover long gone from the wall
        assert octree.is_occupied(wall), "static wall voxel erased by mover clear"

    def test_duplicate_mover_names_rejected(self):
        movers = [KinematicMover(CROSSER, name="dup"), KinematicMover(LOOP, name="dup")]
        with pytest.raises(ValueError):
            DynamicObstacleSet(movers, empty_world())


class TestPipelineIntegration:
    def test_sense_boundary_steps_movers_into_the_map(self):
        spec_movers = (CROSSER,)
        env = build_environment(TINY, WorldSpec(movers=spec_movers))
        assert env.dynamics is not None and len(env.dynamics) == 1

        from repro import MissionConfig, MissionSimulator, RoboRunRuntime

        simulator = MissionSimulator(
            env, RoboRunRuntime(), MissionConfig(max_decisions=5, max_mission_time_s=50.0)
        )
        result = simulator.run()
        assert result.metrics.decision_count == 5
        # After 5 decisions the set sits at epoch 4 and its stats cover the
        # single mover.
        assert env.dynamics.epoch == 4
        assert env.dynamics.last_step_stats["remarked"] == 1
        # The mover's current footprint is in the planner-facing octree.
        position = env.dynamics.movers[0].position_at(4)
        assert simulator.operators.octree.is_occupied(position)
        # The ground-truth world agrees with the octree about where it is.
        assert env.world.is_occupied(position)
        assert not env.world.is_occupied(env.dynamics.movers[0].position_at(0))
