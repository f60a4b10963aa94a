"""Tests for sensors, the point-cloud kernel, the occupancy octree and views."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.environment.world import Obstacle, World
from repro.geometry.aabb import AABB
from repro.geometry.grid import unpack_keys, voxel_center
from repro.geometry.vec3 import Vec3
from repro.perception.octomap import OccupancyOctree
from repro.perception.planning_view import build_planning_view
from repro.perception.point_cloud import PointCloud, PointCloudKernel
from repro.sensors.rig import CameraRig
from repro.sensors.state_sensors import StateEstimate


def simple_world():
    bounds = AABB(Vec3(-50, -50, 0), Vec3(100, 50, 30))
    world = World(bounds)
    world.add_obstacle(Obstacle(AABB.from_center(Vec3(10, 0, 10), Vec3(2, 2, 20))))
    return world


class TestSensors:
    def test_camera_sees_obstacle_ahead(self):
        camera = CameraRig(camera_count=1, width=9, height=7, max_range=30.0)
        image = camera.capture(simple_world(), Vec3(0, 0, 5)).images[0]
        assert len(image.hit_array()) > 0
        assert image.min_depth() == pytest.approx(9.0, abs=0.5)

    def test_camera_open_space_reports_infinite_depths(self):
        camera = CameraRig(camera_count=1, width=5, height=5, max_range=20.0)
        image = camera.capture(simple_world(), Vec3(0, 40, 5)).images[0]
        assert len(image.hit_array()) == 0
        assert image.mean_visibility() == pytest.approx(20.0)

    def test_rig_covers_all_directions(self):
        rig = CameraRig(width=7, height=5, max_range=30.0)
        scan = rig.capture(simple_world(), Vec3(20, 0, 5))
        # The obstacle at x=10 is behind the drone relative to +x; a full rig
        # still observes it with one of its rear-facing cameras.
        assert scan.hit_array().shape[0] > 0
        assert scan.total_pixels() == 6 * 7 * 5
        assert min(image.min_depth() for image in scan.images) < 15.0

    def test_rig_forward_visibility_open_vs_blocked(self):
        rig = CameraRig(width=7, height=5, max_range=30.0)
        blocked = rig.capture(simple_world(), Vec3(0, 0, 5)).forward_min_depth()
        open_ = rig.capture(simple_world(), Vec3(0, 40, 5)).forward_min_depth()
        assert blocked < open_

    def test_state_estimate_speed(self):
        est = StateEstimate(1.0, Vec3(1, 2, 3), Vec3(0.3, 0.4, 0))
        assert est.speed == pytest.approx(0.5)


class TestPointCloudKernel:
    def test_precision_controls_point_count(self):
        rig = CameraRig(width=9, height=7, max_range=30.0)
        scan = rig.capture(simple_world(), Vec3(0, 0, 5))
        kernel = PointCloudKernel()
        fine = kernel.process(scan, resolution=0.3)
        coarse = kernel.process(scan, resolution=4.8)
        assert len(coarse) <= len(fine)
        assert fine.raw_point_count == coarse.raw_point_count

    def test_from_points_and_queries(self):
        cloud = PointCloudKernel.from_points(
            Vec3(0, 0, 0), [Vec3(5, 0, 0), Vec3(5.1, 0, 0), Vec3(0, 8, 0)], resolution=0.5
        )
        assert len(cloud) == 2
        assert cloud.nearest_distance() == pytest.approx(5.05, abs=0.1)
        assert len(cloud.points_within(6.0)) == 1
        assert not cloud.is_empty()

    def test_empty_cloud(self):
        cloud = PointCloudKernel.from_points(Vec3(0, 0, 0), [], resolution=0.5)
        assert cloud.is_empty()
        assert cloud.nearest_distance() == math.inf

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            PointCloudKernel(default_resolution=0.0)


class TestOccupancyOctree:
    def test_mark_and_query(self):
        octree = OccupancyOctree(vox_min=0.5)
        octree.mark_occupied(Vec3(1.1, 1.1, 1.1))
        assert octree.is_occupied(Vec3(1.2, 1.2, 1.2))
        assert not octree.is_occupied(Vec3(5, 5, 5))
        assert octree.is_unknown(Vec3(5, 5, 5))
        octree.mark_free(Vec3(5, 5, 5))
        assert not octree.is_occupied(Vec3(5, 5, 5))
        assert not octree.is_unknown(Vec3(5, 5, 5))

    def test_occupied_wins_over_free(self):
        octree = OccupancyOctree(vox_min=0.5)
        octree.mark_occupied(Vec3(1, 1, 1))
        octree.mark_free(Vec3(1, 1, 1))
        assert octree.is_occupied(Vec3(1, 1, 1))

    def test_insert_point_cloud_marks_endpoints_and_free_space(self):
        octree = OccupancyOctree(vox_min=0.3)
        cloud = PointCloudKernel.from_points(
            Vec3(0, 0, 0), [Vec3(10, 0, 0), Vec3(0, 10, 0)], resolution=0.3
        )
        stats = octree.insert_point_cloud(cloud)
        assert octree.is_occupied(Vec3(10, 0, 0))
        assert octree.is_occupied(Vec3(0, 10, 0))
        assert not octree.is_occupied(Vec3(5, 0, 0))
        assert not octree.is_unknown(Vec3(5, 0, 0))
        assert stats["points_integrated"] == 2
        assert stats["cells_updated"] > 2

    def test_ray_step_controls_charged_cells(self):
        cloud = PointCloudKernel.from_points(Vec3(0, 0, 0), [Vec3(20, 0, 0)], resolution=0.3)
        fine = OccupancyOctree(vox_min=0.3)
        coarse = OccupancyOctree(vox_min=0.3)
        fine_stats = fine.insert_point_cloud(cloud, ray_step=0.3)
        coarse_stats = coarse.insert_point_cloud(cloud, ray_step=4.8)
        assert fine_stats["cells_updated"] > coarse_stats["cells_updated"]

    def test_volume_budget_skips_far_points_but_keeps_endpoints(self):
        points = [Vec3(5 + i, 0, 0) for i in range(20)]
        cloud = PointCloudKernel.from_points(Vec3(0, 0, 0), points, resolution=0.3)
        octree = OccupancyOctree(vox_min=0.3)
        stats = octree.insert_point_cloud(cloud, max_volume=50.0, focus=Vec3(0, 0, 0))
        assert stats["points_skipped"] > 0
        # Every endpoint is still in the map even when carving was skipped.
        for p in points:
            assert octree.is_occupied(p)

    def test_observation_clears_phantom_occupied(self):
        octree = OccupancyOctree(vox_min=0.3)
        octree.mark_occupied(Vec3(5, 0, 0))
        cloud = PointCloudKernel.from_points(Vec3(0, 0, 0), [Vec3(10.05, 0, 0)], resolution=0.3)
        octree.insert_point_cloud(cloud, ray_step=0.3)
        assert not octree.is_occupied(Vec3(5, 0, 0))

    def test_coarsen_and_counts(self):
        octree = OccupancyOctree(vox_min=0.3, levels=6)
        for i in range(8):
            octree.mark_occupied(Vec3(0.05 + 0.3 * i, 0.05, 0.05))
        fine_cells = unpack_keys(octree.coarse_occupied_keys(0.3))
        coarse_cells = unpack_keys(octree.coarse_occupied_keys(2.4))
        assert len(fine_cells) == 8
        assert len(coarse_cells) < 8
        # Every fine voxel lies in one of the coarse cells (8x the edge).
        assert {tuple(k) for k in (fine_cells >> 3).tolist()} == {
            tuple(k) for k in coarse_cells.tolist()
        }
        assert octree.coarsen_level_for(0.3) == 0
        assert octree.coarsen_level_for(9.6) == 5
        assert octree.coarsen_level_for(100.0) == 5

    def test_nearest_occupied_distance(self):
        octree = OccupancyOctree(vox_min=0.3)
        assert octree.nearest_occupied_distance(Vec3(0, 0, 0), 25.0) == 25.0
        octree.mark_occupied(Vec3(3, 0, 0))
        assert octree.nearest_occupied_distance(Vec3(0, 0, 0), 25.0) == pytest.approx(3.0, abs=0.3)

    def test_forget_beyond(self):
        octree = OccupancyOctree(vox_min=0.3)
        octree.mark_occupied(Vec3(1, 0, 0))
        octree.mark_occupied(Vec3(100, 0, 0))
        forgotten = octree.forget_beyond(Vec3(0, 0, 0), radius=10.0)
        assert forgotten == 1
        assert octree.is_occupied(Vec3(1, 0, 0))
        assert not octree.is_occupied(Vec3(100, 0, 0))

    @given(
        st.lists(
            st.builds(
                Vec3,
                st.floats(min_value=-20, max_value=20),
                st.floats(min_value=-20, max_value=20),
                st.floats(min_value=0, max_value=10),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_every_marked_point_is_occupied(self, pts):
        octree = OccupancyOctree(vox_min=0.5)
        for p in pts:
            octree.mark_occupied(p)
        for p in pts:
            assert octree.is_occupied(p)
        assert octree.occupied_voxel_count() <= len(pts)


class TestPlanningView:
    def build_octree(self):
        octree = OccupancyOctree(vox_min=0.3, levels=6)
        for i in range(10):
            octree.mark_occupied(Vec3(10.0, -1.5 + 0.3 * i, 5.0))
        return octree

    def test_view_precision_snaps_to_ladder(self):
        view = build_planning_view(self.build_octree(), precision=1.0)
        assert view.precision in (0.6, 1.2)

    def test_collision_queries(self):
        view = build_planning_view(self.build_octree(), precision=0.3)
        inside, outside = Vec3(10, 0, 5), Vec3(0, 0, 5)
        assert view.segment_in_collision(inside, inside)
        assert not view.segment_in_collision(outside, outside)
        assert view.segment_in_collision(Vec3(0, 0, 5), Vec3(20, 0, 5))
        assert not view.segment_in_collision(Vec3(0, 10, 5), Vec3(20, 10, 5))

    def test_margin_inflation(self):
        view = build_planning_view(self.build_octree(), precision=0.3)
        probe = Vec3(10, 1.5, 5)
        assert not view.segment_in_collision(probe, probe)
        assert view.segment_in_collision(probe, probe, margin=0.6)

    def test_volume_budget_limits_cells(self):
        octree = self.build_octree()
        unlimited = build_planning_view(octree, precision=0.3, focus=Vec3(0, 0, 5))
        limited = build_planning_view(
            octree, precision=0.3, max_volume=0.3**3 * 3, focus=Vec3(0, 0, 5)
        )
        assert len(limited) < len(unlimited)
        assert limited.total_volume <= unlimited.total_volume

    def test_region_radius_filters(self):
        octree = self.build_octree()
        octree.mark_occupied(Vec3(200, 0, 5))
        view = build_planning_view(octree, precision=0.3, focus=Vec3(0, 0, 5), region_radius=50.0)
        far = Vec3(200, 0, 5)
        assert not view.segment_in_collision(far, far)

    def test_empty_view(self):
        view = build_planning_view(OccupancyOctree(vox_min=0.3), precision=0.3)
        assert len(view) == 0
        assert not view.segment_in_collision(Vec3(0, 0, 0), Vec3(100, 0, 0))

    def test_view_does_not_depend_on_marking_order(self):
        # Two cells equidistant from the focus and a budget of one cell: the
        # tie goes to the lexicographically smaller key, whichever of the two
        # voxels was marked first.
        keys = [(-1, 0, 0), (0, 0, 0), (5, 5, 0)]
        views = []
        for order in (keys, keys[::-1]):
            octree = OccupancyOctree(vox_min=0.3, levels=6)
            for key in order:
                octree.mark_occupied(voxel_center(key, 0.3))
            views.append(
                build_planning_view(
                    octree, precision=0.3, max_volume=0.3**3, focus=Vec3(0.0, 0.15, 0.15)
                )
            )
        first, second = views
        assert (first.table.tolist(), first.total_volume) == (
            second.table.tolist(), second.total_volume
        )
        assert unpack_keys(first.table).tolist() == [[-1, 0, 0]]

    def test_coarse_view_inflates_obstacles(self):
        octree = self.build_octree()
        fine = build_planning_view(octree, precision=0.3)
        coarse = build_planning_view(octree, precision=4.8)
        assert coarse.total_volume >= fine.total_volume
        assert len(coarse) <= len(fine)
