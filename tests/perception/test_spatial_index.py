"""Tests for the octree's array-backed queries and the grid-cell helpers."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.grid import pack_keys, unpack_keys, voxel_center
from repro.geometry.vec3 import Vec3
from repro.perception.octomap import OccupancyOctree
from repro.perception.point_cloud import PointCloudKernel
from repro.perception.spatial_index import (
    cell_margin_radius,
    contains,
    insert_keys,
    packed_neighbour_offsets,
    remove_keys,
    segment_hits_table,
)


def occupied_set(octree):
    return {tuple(k) for k in unpack_keys(octree.occupied_keys()).tolist()}


def brute_force_nearest(occupied, vox_min, point, max_radius):
    """The pre-index linear scan, kept as the reference implementation."""
    best_sq = max_radius * max_radius
    for key in occupied:
        center = voxel_center(key, vox_min)
        d_sq = (
            (center.x - point.x) ** 2
            + (center.y - point.y) ** 2
            + (center.z - point.z) ** 2
        )
        if d_sq < best_sq:
            best_sq = d_sq
    return math.sqrt(best_sq)


def brute_force_coarse(occupied, level):
    factor = 2**level
    return sorted({(i // factor, j // factor, k // factor) for (i, j, k) in occupied})


class TestNearestOccupiedDistance:
    @given(
        st.lists(
            st.builds(
                Vec3,
                st.floats(min_value=-25, max_value=25),
                st.floats(min_value=-25, max_value=25),
                st.floats(min_value=0, max_value=12),
            ),
            min_size=0,
            max_size=60,
        ),
        st.builds(
            Vec3,
            st.floats(min_value=-30, max_value=30),
            st.floats(min_value=-30, max_value=30),
            st.floats(min_value=0, max_value=12),
        ),
        st.floats(min_value=1.0, max_value=60.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, points, query, max_radius):
        octree = OccupancyOctree(vox_min=0.3, levels=6)
        for p in points:
            octree.mark_occupied(p)
        expected = brute_force_nearest(
            occupied_set(octree), octree.vox_min, query, max_radius
        )
        actual = octree.nearest_occupied_distance(query, max_radius)
        assert actual == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_empty_map_returns_max_radius(self):
        octree = OccupancyOctree(vox_min=0.3)
        assert octree.nearest_occupied_distance(Vec3(5, 5, 5), 17.5) == 17.5

    def test_far_obstacle_beyond_radius(self):
        octree = OccupancyOctree(vox_min=0.3)
        octree.mark_occupied(Vec3(100, 0, 0))
        assert octree.nearest_occupied_distance(Vec3(0, 0, 0), 10.0) == 10.0


class TestIndexBackedOctreePaths:
    def random_octree(self, seed=3, n=400):
        rng = random.Random(seed)
        octree = OccupancyOctree(vox_min=0.3, levels=6)
        for _ in range(n):
            octree.mark_occupied(
                Vec3(rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(0, 10))
            )
        return octree

    def test_coarse_cells_match_brute_force_after_mutations(self):
        octree = self.random_octree()
        # Mutate through every code path: insertion, clearing, forgetting.
        cloud = PointCloudKernel.from_points(
            Vec3(0, 0, 5), [Vec3(10, 0, 5), Vec3(0, 10, 5)], resolution=0.3
        )
        octree.insert_point_cloud(cloud, ray_step=0.3)
        octree.forget_beyond(Vec3(0, 0, 5), radius=15.0)
        occupied = occupied_set(octree)
        for precision in (0.3, 0.6, 1.2, 2.4, 4.8, 9.6):
            level = octree.coarsen_level_for(precision)
            assert unpack_keys(octree.coarse_occupied_keys(precision)).tolist() == [
                list(key) for key in brute_force_coarse(occupied, level)
            ]

    def test_forget_beyond_matches_direct_predicate(self):
        octree = self.random_octree(seed=9)
        center = Vec3(2, -3, 4)
        radius = 11.0
        expected_kept = {
            k
            for k in occupied_set(octree)
            if voxel_center(k, octree.vox_min).distance_to(center) <= radius
        }
        octree.forget_beyond(center, radius)
        assert occupied_set(octree) == expected_kept

    def test_segment_occupied_matches_pointwise_probes(self):
        octree = OccupancyOctree(vox_min=0.3, levels=6)
        for i in range(10):
            octree.mark_occupied(Vec3(6.0, -1.5 + 0.3 * i, 5.0))
        # Straight through the wall.
        assert octree.segment_occupied(Vec3(0, 0, 5), Vec3(12, 0, 5), step=0.3)
        # Parallel to the wall, clear.
        assert not octree.segment_occupied(Vec3(0, 5, 5), Vec3(12, 5, 5), step=0.3)
        # Lateral tube catches a graze one voxel to the side of the centre line.
        graze_start, graze_end = Vec3(6.45, -1.0, 5.0), Vec3(6.45, 1.0, 5.0)
        assert not octree.segment_occupied(graze_start, graze_end, step=0.3)
        assert octree.segment_occupied(graze_start, graze_end, step=0.3, lateral=0.3)

    def test_segment_occupied_include_start(self):
        octree = OccupancyOctree(vox_min=0.3)
        octree.mark_occupied(Vec3(0.15, 0.15, 0.15))
        start = Vec3(0.15, 0.15, 0.15)
        end = Vec3(5.0, 0.15, 0.15)
        assert octree.segment_occupied(start, end, step=0.3, include_start=True)
        assert not octree.segment_occupied(start, end, step=0.3, include_start=False)

    def test_segment_occupied_validates_step(self):
        octree = OccupancyOctree(vox_min=0.3)
        octree.mark_occupied(Vec3(1, 1, 1))
        with pytest.raises(ValueError):
            octree.segment_occupied(Vec3(0, 0, 0), Vec3(1, 1, 1), step=0.0)

    @given(
        st.lists(
            st.builds(
                Vec3,
                st.floats(min_value=-10, max_value=10),
                st.floats(min_value=-10, max_value=10),
                st.floats(min_value=0, max_value=8),
            ),
            min_size=1,
            max_size=40,
        ),
        st.builds(
            Vec3,
            st.floats(min_value=-12, max_value=12),
            st.floats(min_value=-12, max_value=12),
            st.floats(min_value=0, max_value=8),
        ),
        st.builds(
            Vec3,
            st.floats(min_value=-12, max_value=12),
            st.floats(min_value=-12, max_value=12),
            st.floats(min_value=0, max_value=8),
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_segment_occupied_matches_is_occupied_sampling(self, points, a, b):
        octree = OccupancyOctree(vox_min=0.3, levels=6)
        for p in points:
            octree.mark_occupied(p)
        step = 0.3
        length = a.distance_to(b)
        intervals = max(1, int(length / step))
        expected = any(
            octree.is_occupied(a.lerp(b, i / intervals)) for i in range(intervals + 1)
        )
        assert octree.segment_occupied(a, b, step=step) == expected


class TestCellHelpers:
    def test_pack_keys_round_trip_and_order(self):
        keys = np.array(
            [(-1, -9, -17), (0, 0, 0), (3, -2, 1), (3, -2, 2), (-(2**19), 2**19 - 1, 7)],
            dtype=np.int64,
        )
        packed = pack_keys(keys)
        assert unpack_keys(packed).tolist() == keys.tolist()
        # Packed order is the lexicographic order of the keys.
        assert np.argsort(packed).tolist() == sorted(
            range(len(keys)), key=lambda n: tuple(keys[n])
        )

    def test_sorted_store_insert_and_remove(self):
        table = np.empty(0, dtype=np.int64)
        assert not contains(table, np.array([5])).any()
        table = insert_keys(table, np.array([3, 7, 9]))
        table = insert_keys(table, np.array([1, 7, 8]))
        assert table.tolist() == [1, 3, 7, 8, 9]
        assert contains(table, np.array([0, 1, 8, 10])).tolist() == [False, True, True, False]
        table = remove_keys(table, np.array([9, 2, 1, 9]))
        assert table.tolist() == [3, 7, 8]

    def test_packed_neighbour_offsets(self):
        assert packed_neighbour_offsets(0).tolist() == [0]
        assert len(packed_neighbour_offsets(1)) == 27
        assert len(packed_neighbour_offsets(2)) == 125
        with pytest.raises(ValueError):
            packed_neighbour_offsets(-1)
        # Adding the deltas to a packed key packs each neighbour's key.
        span = range(-2, 3)
        offsets = np.array([(i, j, k) for i in span for j in span for k in span])
        for key in ((0, 0, 0), (-7, 3, 11), (-(2**19) + 2, 2**19 - 3, -5)):
            key = np.array(key)
            assert (pack_keys(key) + packed_neighbour_offsets(2)).tolist() == (
                pack_keys(key + offsets).tolist()
            )

    def test_cell_margin_radius(self):
        assert cell_margin_radius(0.0, 0.3) == 0
        assert cell_margin_radius(0.3, 0.3) == 1
        assert cell_margin_radius(10.0, 0.3) == 2

    def test_point_probe_margin(self):
        table = pack_keys(np.array([(10, 0, 0)]))
        probe = Vec3(10 * 0.3 + 0.15, 0.45, 0.15)  # one cell over in y
        assert not segment_hits_table(table, 0.3, probe, probe)
        assert segment_hits_table(table, 0.3, probe, probe, margin=0.3)

    def test_segment_hits_table_step_clamped(self):
        # A single thin cell must be found even with a huge requested step.
        table = pack_keys(np.array([(10, 0, 0)]))
        assert segment_hits_table(
            table, 0.3, Vec3(0, 0.15, 0.15), Vec3(6, 0.15, 0.15), step=5.0
        )

    def test_segment_hits_table_empty_and_invalid(self):
        empty = np.empty(0, dtype=np.int64)
        assert not segment_hits_table(empty, 0.3, Vec3(0, 0, 0), Vec3(1, 0, 0), step=0.0)
        with pytest.raises(ValueError):
            segment_hits_table(
                pack_keys(np.array([(0, 0, 0)])), 0.3, Vec3(0, 0, 0), Vec3(1, 0, 0), step=0.0
            )
