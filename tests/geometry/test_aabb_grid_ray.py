"""Unit and property tests for AABB, voxel grids, rays and frustums."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.aabb import AABB
from repro.geometry.frustum import Frustum
from repro.geometry.grid import downsample, voxel_center, voxel_key
from repro.geometry.ray import (
    Ray,
    ray_aabb_intersect,
    sample_ray,
    segment_intersects_aabb,
)
from repro.geometry.vec3 import Vec3

coords = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)
points = st.builds(Vec3, coords, coords, coords)


def as_array(pts):
    return np.array([(p.x, p.y, p.z) for p in pts], dtype=np.float64).reshape(-1, 3)


class TestAABB:
    def test_invalid_corners_rejected(self):
        with pytest.raises(ValueError):
            AABB(Vec3(1, 0, 0), Vec3(0, 1, 1))

    def test_from_center_and_volume(self):
        box = AABB.from_center(Vec3(0, 0, 0), Vec3(2, 4, 6))
        assert box.volume == pytest.approx(48.0)
        assert box.center == Vec3(0, 0, 0)
        assert box.size == Vec3(2, 4, 6)

    def test_contains_boundary(self):
        box = AABB.from_center(Vec3(0, 0, 0), Vec3(2.0, 2.0, 2.0))
        assert box.contains(Vec3(1, 1, 1))
        assert not box.contains(Vec3(1.01, 0, 0))

    def test_distance_to_point(self):
        box = AABB.from_center(Vec3(0, 0, 0), Vec3(2.0, 2.0, 2.0))
        assert box.distance_to_point(Vec3(0, 0, 0)) == 0.0
        assert box.distance_to_point(Vec3(4, 0, 0)) == pytest.approx(3.0)

    def test_expanded(self):
        box = AABB.from_center(Vec3(0, 0, 0), Vec3(2.0, 2.0, 2.0)).expanded(1.0)
        assert box.size == Vec3(4, 4, 4)

    @given(points, st.floats(min_value=0.1, max_value=10))
    def test_closest_point_is_inside(self, p, edge):
        box = AABB.from_center(Vec3(0, 0, 0), Vec3(edge, edge, edge))
        assert box.contains(box.closest_point(p))


class TestVoxelGrid:
    def test_voxel_key_and_center_round_trip(self):
        key = voxel_key(Vec3(0.95, 0.05, -0.05), 0.3)
        center = voxel_center(key, 0.3)
        assert voxel_key(center, 0.3) == key

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            voxel_key(Vec3(0, 0, 0), 0.0)
        with pytest.raises(ValueError):
            downsample(np.zeros((1, 3)), -1.0)

    def test_insert_and_average(self):
        pts = [Vec3(0.2, 0.2, 0.2), Vec3(5.5, 5.5, 5.5), Vec3(0.8, 0.8, 0.8)]
        averaged = downsample(as_array(pts), 1.0)
        assert averaged.shape == (2, 3)
        # Cells come out in the order their first point went in.
        assert list(averaged[0]) == pytest.approx([0.5, 0.5, 0.5], rel=0, abs=1e-9)
        assert Vec3(*averaged[1]) == Vec3(5.5, 5.5, 5.5)
        assert downsample(np.empty((0, 3)), 1.0).shape == (0, 3)

    @given(st.lists(points, min_size=1, max_size=50), st.floats(min_value=0.2, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_downsample_never_increases_points(self, pts, resolution):
        reduced = downsample(as_array(pts), resolution)
        assert 1 <= len(reduced) <= len(pts)

    @given(st.lists(points, min_size=1, max_size=30), st.floats(min_value=0.5, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_downsample_points_stay_in_cloud_bounds(self, pts, resolution):
        cloud = as_array(pts)
        box = AABB(Vec3(*cloud.min(axis=0)), Vec3(*cloud.max(axis=0))).expanded(1e-6)
        for p in downsample(cloud, resolution).tolist():
            assert box.contains(Vec3(*p))


class TestRay:
    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            Ray(Vec3(0, 0, 0), Vec3(0, 0, 0))

    def test_ray_aabb_hit_and_miss(self):
        box = AABB.from_center(Vec3(5, 0, 0), Vec3(2.0, 2.0, 2.0))
        hit = ray_aabb_intersect(Ray(Vec3(0, 0, 0), Vec3(1, 0, 0)), box)
        assert hit is not None
        t_enter, t_exit = hit
        assert t_enter == pytest.approx(4.0)
        assert t_exit == pytest.approx(6.0)
        assert ray_aabb_intersect(Ray(Vec3(0, 0, 0), Vec3(0, 1, 0)), box) is None

    def test_box_behind_origin_is_missed(self):
        box = AABB.from_center(Vec3(-5, 0, 0), Vec3(2.0, 2.0, 2.0))
        assert ray_aabb_intersect(Ray(Vec3(0, 0, 0), Vec3(1, 0, 0)), box) is None

    def test_segment_intersects(self):
        box = AABB.from_center(Vec3(5, 0, 0), Vec3(2.0, 2.0, 2.0))
        assert segment_intersects_aabb(Vec3(0, 0, 0), Vec3(10, 0, 0), box)
        assert not segment_intersects_aabb(Vec3(0, 0, 0), Vec3(3, 0, 0), box)
        assert segment_intersects_aabb(Vec3(5, 0, 0), Vec3(5, 0, 0), box)

    def test_sample_ray_includes_endpoint(self):
        samples = sample_ray(Vec3(0, 0, 0), Vec3(1, 0, 0), 0.3)
        assert samples[0] == Vec3(0, 0, 0)
        assert samples[-1] == Vec3(1, 0, 0)

    def test_sample_ray_step_controls_count(self):
        fine = sample_ray(Vec3(0, 0, 0), Vec3(10, 0, 0), 0.5)
        coarse = sample_ray(Vec3(0, 0, 0), Vec3(10, 0, 0), 5.0)
        assert len(fine) > len(coarse)


class TestFrustum:
    def make(self, max_range=10.0):
        return Frustum(
            apex=Vec3(0, 0, 0),
            forward=Vec3(1, 0, 0),
            up=Vec3(0, 0, 1),
            horizontal_fov_deg=90.0,
            vertical_fov_deg=60.0,
            max_range=max_range,
        )

    def test_contains_points_on_axis(self):
        f = self.make()
        assert f.contains(Vec3(5, 0, 0))
        assert not f.contains(Vec3(-1, 0, 0))
        assert not f.contains(Vec3(15, 0, 0))

    def test_contains_respects_fov(self):
        f = self.make()
        assert f.contains(Vec3(5, 4.9, 0))
        assert not f.contains(Vec3(5, 5.5, 0))

    def test_volume_positive_and_scales_with_range(self):
        assert self.make(20.0).volume() > self.make(10.0).volume()

    def test_sample_directions_count_and_unit_norm(self):
        dirs = self.make().sample_directions(4, 3)
        assert len(dirs) == 12
        for d in dirs:
            assert d.norm() == pytest.approx(1.0)

    def test_invalid_fov_rejected(self):
        with pytest.raises(ValueError):
            Frustum(Vec3.zero(), Vec3.unit_x(), Vec3.unit_z(), 190.0, 60.0, 10.0)
