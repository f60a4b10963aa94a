"""Oracle equivalence: every hot-path kernel == its scalar oracle, exactly.

Each hot query has one implementation, a numpy batch kernel that repeats the
per-element Python arithmetic operation for operation.  The oracles below are
that arithmetic, kept only to check the kernels against: on randomized
inputs plus the empty, single-element and zero-length edge cases, compared
with ``==`` throughout (no tolerances anywhere) and byte for byte for the
batched slab test.
"""

import math
import random

import numpy as np
import pytest

from repro import EnvironmentConfig, EnvironmentGenerator, MissionConfig, MissionSimulator
from repro import MoverSpec, RoboRunRuntime
from repro.core.profilers import ProfilerSuite
from repro.environment.world import World, Obstacle
from repro.geometry.aabb import AABB
from repro.geometry.grid import voxel_center, voxel_key
from repro.geometry.ray import _EPS, Ray, ray_aabb_intersect, raycast_aabbs_batch, sample_ray
from repro.geometry.vec3 import Vec3
from repro.perception.octomap import OccupancyOctree
from repro.perception.planning_view import PlanningView, build_planning_view
from repro.perception.point_cloud import PointCloud
from repro.perception.spatial_index import (
    PackedCellTable,
    SpatialIndex,
    cell_margin_radius,
    point_hits_cells,
    segment_hits_cells,
)
from repro.planning.rrt_star import _CollisionChecker, _PositionBuffer
from repro.planning.trajectory import Trajectory, TrajectoryPoint
from repro.sensors.depth_camera import DepthCamera, DepthImage
from repro.worlds.movers import DynamicObstacleSet, build_movers


def capture_oracle(camera, world, position, yaw):
    """Directions and depths of a capture, one slab test per (ray, obstacle)."""
    frustum = camera.frustum(position, yaw)
    directions = tuple(frustum.sample_directions(camera.width, camera.height))
    nearby = world.obstacles_near(position, camera.max_range)

    def cast(direction):
        hits = [ray_aabb_intersect(Ray(position, direction), o.box) for o in nearby]
        nearest = min((max(h[0], 0.0) for h in hits if h is not None), default=math.inf)
        return math.inf if nearest > camera.max_range else nearest

    return directions, tuple(cast(d) for d in directions)


def raycast_oracle(origin, directions, box_lo, box_hi, max_range):
    """Depths from ray_aabb_intersect looped over every (ray, box) pair."""
    boxes = [
        AABB(Vec3(*lo), Vec3(*hi)) for lo, hi in zip(box_lo.tolist(), box_hi.tolist())
    ]
    depths = []
    for d in directions.tolist():
        ray = Ray(origin, Vec3(*d))
        hits = [ray_aabb_intersect(ray, box) for box in boxes]
        # A ray starting inside or on a box reads +0.0.  Python's
        # max(-0.0, 0.0) would keep the -0.0 entry that a face the origin
        # sits on yields, so the clamp is spelled out.
        nearest = min(
            (h[0] if h[0] > 0.0 else 0.0 for h in hits if h is not None),
            default=math.inf,
        )
        depths.append(math.inf if nearest > max_range else nearest)
    return np.array(depths, dtype=np.float64)


def _rays(*directions):
    return np.array(directions, dtype=np.float64).reshape(len(directions), 3)


def _boxes(*corners):
    lo = np.array([c[0] for c in corners], dtype=np.float64).reshape(len(corners), 3)
    hi = np.array([c[1] for c in corners], dtype=np.float64).reshape(len(corners), 3)
    return lo, hi


def _parallel_axis_cases():
    """Rays with one direction component of 0.0, -0.0 or below the slab eps.

    The origin's coordinate on that axis lies inside the box's slab, outside
    it, or exactly on either face; the other two components aim the ray at
    the box, so only the parallel branch decides hit or miss.
    """
    lo, hi = _boxes(((0.0, 0.0, 0.0), (2.0, 2.0, 2.0)))
    tiny = _EPS / 10.0
    for axis in range(3):
        others = [i for i in range(3) if i != axis]
        for component in (0.0, -0.0, tiny, -tiny):
            # inside, outside above, outside below, on the lo and hi faces
            for coord in (1.0, 3.0, -1.0, 0.0, 2.0):
                origin = [-1.0, -1.0, -1.0]
                origin[axis] = coord
                directions = []
                for a, b in ((1.0, 1.0), (1.0, 0.5), (0.3, 1.0)):
                    d = [component] * 3
                    d[others[0]], d[others[1]] = a, b
                    directions.append(d)
                yield Vec3(*origin), _rays(*directions), lo, hi, 40.0


def _slab_edge_cases():
    """Named edge cases for the batched slab test."""
    unit = _boxes(((0.0, 0.0, 0.0), (2.0, 2.0, 2.0)))
    fan = _rays(
        (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0),
        (0.6, -0.8, 0.0), (0.3, 0.4, -0.5), (-0.0, 0.0, 1.0),
    )
    return {
        "origin_inside": (Vec3(1.0, 1.0, 1.0), fan, *unit, 40.0),
        "origin_on_hi_face": (Vec3(2.0, 1.0, 1.0), fan, *unit, 40.0),
        "origin_on_lo_corner": (Vec3(0.0, 0.0, 0.0), fan, *unit, 40.0),
        "box_behind": (
            Vec3(0.0, 0.0, 0.0),
            _rays((1.0, 0.0, 0.0), (1.0, 0.1, 0.0)),
            *_boxes(((-5.0, -1.0, -1.0), (-3.0, 1.0, 1.0))),
            40.0,
        ),
        "entry_at_max_range": (
            Vec3(0.0, 0.0, 0.0),
            _rays((1.0, 0.0, 0.0)),
            *_boxes(((10.0, -1.0, -1.0), (12.0, 1.0, 1.0))),
            10.0,
        ),
        "entry_past_max_range": (
            Vec3(0.0, 0.0, 0.0),
            _rays((1.0, 0.0, 0.0)),
            *_boxes(((10.0, -1.0, -1.0), (12.0, 1.0, 1.0))),
            math.nextafter(10.0, 0.0),
        ),
        "zero_boxes": (Vec3(0.0, 0.0, 0.0), fan, *_boxes(), 40.0),
        "one_box": (Vec3(-3.0, 1.0, 1.0), fan, *unit, 40.0),
        "nested_boxes": (
            Vec3(-3.0, 1.0, 1.0),
            fan,
            *_boxes(
                ((0.0, 0.0, 0.0), (2.0, 2.0, 2.0)),
                ((-1.0, 0.5, 0.5), (3.0, 1.5, 1.5)),
                ((-9.0, -9.0, -9.0), (-4.0, 9.0, 9.0)),
            ),
            40.0,
        ),
    }


def _random_slab_case(rng):
    """Grid-snapped boxes and origins, so faces and slab edges coincide often."""
    origin = Vec3(*(float(rng.randint(-4, 4)) for _ in range(3)))
    directions = []
    for _ in range(30):
        d = [rng.gauss(0.0, 1.0) for _ in range(3)]
        if rng.random() < 0.5:
            d[rng.randrange(3)] = rng.choice((0.0, -0.0, _EPS / 10.0, _EPS))
        directions.append(d)
    corners = []
    for _ in range(25):
        lo = [float(rng.randint(-8, 6)) for _ in range(3)]
        hi = [c + rng.choice((0.0, 1.0, 2.5, 4.0)) for c in lo]
        corners.append((lo, hi))
    return origin, _rays(*directions), *_boxes(*corners), rng.choice((3.0, 8.0, 40.0))


def hit_points_oracle(image):
    return [
        image.origin + direction * depth
        for direction, depth in zip(image.directions, image.depths)
        if math.isfinite(depth)
    ]


def points_within_oracle(cloud, radius):
    return [p for p in cloud.points if cloud.origin.distance_to(p) <= radius]


def planning_view_oracle(octree, precision, max_volume, focus, region_radius):
    """(cells, total volume, resolution) from a per-cell filter and list.sort."""
    anchor = focus if focus is not None else Vec3.zero()
    resolution = octree.vox_min * (2 ** octree.coarsen_level_for(precision))
    candidates = list(octree.coarse_occupied_cells(precision))
    if region_radius is not None:
        radius_sq = region_radius * region_radius
        candidates = [
            k for k in candidates
            if (voxel_center(k, resolution) - anchor).norm_sq() <= radius_sq
        ]
    candidates.sort(key=lambda k: anchor.distance_to(voxel_center(k, resolution)))
    selected, total = [], 0.0
    for key in candidates:
        if max_volume is not None and total >= max_volume and selected:
            break
        selected.append(key)
        total += resolution**3
    return frozenset(selected), total, resolution


def gap_statistics_oracle(suite, cloud):
    """The quadratic nearest-neighbour loop behind ``gap_statistics``."""
    nearby = points_within_oracle(cloud, suite.gap_neighbourhood)
    if len(nearby) < 2:
        return (suite.open_space_gap, suite.open_space_gap)
    gaps = [
        min(a.distance_to(b) for j, b in enumerate(nearby) if j != i)
        for i, a in enumerate(nearby)
    ]
    gap_min = max(min(gaps), 1e-3)
    return (gap_min, max(sum(gaps) / len(gaps), gap_min))


def trajectory_blocked_oracle(planning, trajectory, position):
    """Probe the path ahead segment by segment, stopping at the first hit."""
    octree = planning.operators.octree
    points = trajectory.waypoint_positions()
    start = trajectory.nearest_point_to(position).index
    travelled = 0.0
    for a, b in zip(points[start:], points[start + 1 :]):
        if octree.segment_occupied(a, b, step=max(octree.vox_min, 0.5)):
            return True
        travelled += a.distance_to(b)
        if travelled >= planning.config.block_check_distance_m:
            break
    return False


def random_keys(rng, count, spread=12):
    return {
        (
            rng.randint(-spread, spread),
            rng.randint(-spread, spread),
            rng.randint(-spread // 2, spread),
        )
        for _ in range(count)
    }


def random_vec(rng, lo=-6.0, hi=6.0):
    return Vec3(rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(lo, hi))


def segment_batch_arrays(pairs):
    starts = np.array([(a.x, a.y, a.z) for a, _ in pairs], dtype=np.float64)
    ends = np.array([(b.x, b.y, b.z) for _, b in pairs], dtype=np.float64)
    return starts, ends


def _mover_world(rng):
    """A world with static boxes plus mover and agent layers, as the fleet sees it."""
    world = World(AABB(Vec3(-60, -60, 0), Vec3(60, 60, 40)))
    for _ in range(rng.randint(3, 12)):
        c = Vec3(rng.uniform(-40, 40), rng.uniform(-40, 40), rng.uniform(2, 20))
        world.add_obstacle(Obstacle(AABB.cube(c, rng.uniform(1.0, 5.0))))
    specs = (
        MoverSpec(
            kind="crosser",
            origin=(rng.uniform(-20, 20), rng.uniform(-20, 0), 3.0),
            velocity=(0.0, 2.0, 0.0),
            span_m=30.0,
            epoch_s=0.5,
            size=(2.0, 2.0, 2.0),
        ),
        MoverSpec(
            kind="waypoint_loop",
            waypoints=((10.0, 5.0, 2.0), (20.0, 5.0, 2.0), (20.0, -5.0, 2.0)),
            speed_mps=2.0,
            epoch_s=0.5,
        ),
    )
    movers = DynamicObstacleSet(build_movers(specs), world)
    movers.step(rng.randint(0, 40))
    world.set_agent_obstacles(
        [Obstacle(AABB.cube(Vec3(5.0, 5.0, 4.0), 1.2), name="peer")]
    )
    return world


class TestSpatialIndexBatches:
    @pytest.mark.parametrize("seed", range(5))
    def test_segment_occupied_batch_matches_scalar(self, seed):
        rng = random.Random(100 + seed)
        index = SpatialIndex(vox_min=0.25, levels=4)
        for key in random_keys(rng, rng.choice([0, 1, 40, 400])):
            index.add(key)
        pairs = [(random_vec(rng), random_vec(rng)) for _ in range(60)]
        # Degenerate segments (zero length) must agree too.
        p = random_vec(rng)
        pairs.append((p, p))
        starts, ends = segment_batch_arrays(pairs)
        for step in (0.1, 0.3, 1.7):
            for lateral in (0.0, 0.4):
                for include_start in (True, False):
                    scalar = [
                        index.segment_occupied(a, b, step, lateral, include_start)
                        for a, b in pairs
                    ]
                    batch = index.segment_occupied_batch(
                        starts, ends, step, lateral, include_start
                    )
                    assert batch.tolist() == scalar

    def test_batches_track_mutation(self):
        # The packed-key table must be rebuilt after every add and remove.
        index = SpatialIndex(vox_min=0.25, levels=4)
        index.add((40, 40, 40))
        a, b = Vec3(0.0, 0.1, 0.1), Vec3(1.0, 0.1, 0.1)
        starts, ends = segment_batch_arrays([(a, b)])

        def probe():
            batch = index.segment_occupied_batch(starts, ends, 0.1).tolist()
            assert batch == [index.segment_occupied(a, b, 0.1)]
            return batch[0]

        assert not probe()
        index.add((2, 0, 0))
        assert probe()
        index.remove((2, 0, 0))
        assert not probe()


class TestCellTableBatches:
    @pytest.mark.parametrize("cell_count", [0, 1, 30, 300])
    def test_contains_batch_matches_point_hits_cells(self, cell_count):
        rng = random.Random(17 + cell_count)
        cells = frozenset(random_keys(rng, cell_count))
        table = PackedCellTable(cells)
        resolution = 0.6
        points = [random_vec(rng) for _ in range(80)]
        points += [voxel_center(key, resolution) for key in sorted(cells)[:5]]
        keys = np.floor(
            np.array([(p.x, p.y, p.z) for p in points]) / resolution
        ).astype(np.int64)
        for margin in (0.0, 0.5, 1.3):
            scalar = [point_hits_cells(cells, resolution, p, margin) for p in points]
            batch = table.contains_batch(keys, cell_margin_radius(margin, resolution))
            assert batch.tolist() == scalar

    @pytest.mark.parametrize("cell_count", [0, 1, 30, 300])
    def test_collision_checker_segment_matches_segment_hits_cells(self, cell_count):
        rng = random.Random(23 + cell_count)
        res = 0.6
        cells = frozenset(random_keys(rng, cell_count))
        view = PlanningView(res, cells, None, len(cells) * res**3)
        pairs = [(random_vec(rng), random_vec(rng)) for _ in range(40)]
        # Segments through or ending in occupied cells, so sparse views see
        # hits too, and zero-length segments inside and outside a cell.
        for key in sorted(cells)[:5]:
            c, offset = voxel_center(key, res), random_vec(rng, -2.0, 2.0)
            pairs += [(c - offset, c + offset), (c + offset, c), (c, c)]
        p = random_vec(rng)
        pairs.append((p, p))
        for step in (None, 0.2, 5.0):
            for margin in (0.0, 0.7):
                checker = _CollisionChecker(view, margin, step)
                for a, b in pairs:
                    expected = segment_hits_cells(cells, res, a, b, step, margin)
                    assert checker.segment(a, b) == expected


@pytest.mark.parametrize("vox_min, free_resolution", [(0.3, None), (0.25, 1.0), (0.2, 0.2)])
def test_ray_sample_keys_bulk_matches_sample_ray(vox_min, free_resolution):
    rng = random.Random(int(vox_min * 1000))
    octree = OccupancyOctree(vox_min=vox_min, levels=4, free_resolution=free_resolution)
    assert octree._ray_sample_keys_bulk(Vec3.zero(), [], 1.0) == []
    for origin in [Vec3.zero()] + [random_vec(rng, -20.0, 20.0) for _ in range(5)]:
        points = [random_vec(rng, -30.0, 30.0) for _ in range(60)]
        # A zero-length ray, a ray shorter than one step, and rays from the
        # zero origin whose length is an exact multiple of a step.
        points += [origin, origin + Vec3(0.01, -0.02, 0.005)]
        points += [Vec3(4.0, 0.0, 0.0), Vec3(0.0, 3.0, 4.0)]
        for step in (octree.vox_min, octree.free_resolution, 3.7):
            expected = []
            for point in points:
                samples = sample_ray(origin, point, step)[:-1]
                expected.append(
                    (
                        [voxel_key(s, octree.free_resolution) for s in samples],
                        [voxel_key(s, octree.vox_min) for s in samples],
                    )
                )
            assert octree._ray_sample_keys_bulk(origin, points, step) == expected


class TestWorldAndCameraEquivalence:
    def test_raycast_parallel_axes_match_oracle_bytes(self):
        cases = list(_parallel_axis_cases())
        hits = 0
        for origin, directions, lo, hi, max_range in cases:
            depths = raycast_aabbs_batch(origin, directions, lo, hi, max_range)
            expected = raycast_oracle(origin, directions, lo, hi, max_range)
            assert depths.tobytes() == expected.tobytes(), (origin, directions)
            hits += int(np.isfinite(depths).sum())
        # Both branches ran: some parallel rays hit, some missed.
        assert 0 < hits < sum(len(c[1]) for c in cases)

    @pytest.mark.parametrize("name", sorted(_slab_edge_cases()))
    def test_raycast_edge_cases_match_oracle_bytes(self, name):
        origin, directions, lo, hi, max_range = _slab_edge_cases()[name]
        depths = raycast_aabbs_batch(origin, directions, lo, hi, max_range)
        expected = raycast_oracle(origin, directions, lo, hi, max_range)
        assert depths.tobytes() == expected.tobytes()
        if name in ("origin_inside", "origin_on_hi_face"):
            assert 0.0 in depths.tolist()
        if name == "entry_at_max_range":
            assert depths.tolist() == [10.0]
        if name in ("entry_past_max_range", "box_behind", "zero_boxes"):
            assert np.isinf(depths).all()

    @pytest.mark.parametrize("seed", range(8))
    def test_raycast_random_boxes_match_oracle_bytes(self, seed):
        rng = random.Random(500 + seed)
        for _ in range(5):
            origin, directions, lo, hi, max_range = _random_slab_case(rng)
            depths = raycast_aabbs_batch(origin, directions, lo, hi, max_range)
            expected = raycast_oracle(origin, directions, lo, hi, max_range)
            assert depths.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_capture_matches_per_ray_oracle(self, seed):
        rng = random.Random(300 + seed)
        world = _mover_world(rng)
        camera = DepthCamera(width=12, height=8, max_range=35.0)
        for _ in range(6):
            pose = Vec3(rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(2, 15))
            yaw = rng.uniform(-180.0, 180.0)
            image = camera.capture(world, pose, yaw)
            assert (image.directions, image.depths) == capture_oracle(
                camera, world, pose, yaw
            )
            # An image built without the capture's cached direction array
            # must give the same points.
            rebuilt = DepthImage(
                image.origin, image.directions, image.depths, image.max_range,
                image.width, image.height,
            )
            assert image.hit_points() == rebuilt.hit_points() == hit_points_oracle(image)
        assert DepthImage(pose, (), (), 40.0, 0, 0).hit_points() == []

    @pytest.mark.parametrize("seed", range(4))
    def test_obstacle_arrays_near_matches_obstacles_near(self, seed):
        rng = random.Random(400 + seed)
        world = _mover_world(rng)
        from repro.environment.world import _boxes_distance_to_point, _corner_arrays

        for _ in range(10):
            point = Vec3(rng.uniform(-40, 40), rng.uniform(-40, 40), rng.uniform(0, 20))
            radius = rng.uniform(5.0, 60.0)
            scalar = world.obstacles_near(point, radius)
            lo, hi = world.obstacle_arrays_near(point, radius)
            slo, shi = _corner_arrays(scalar)
            assert lo.tolist() == slo.tolist()
            assert hi.tolist() == shi.tolist()
            # And the batched point distance matches the per-box scalar.
            if scalar:
                batch_d = _boxes_distance_to_point(lo, hi, point)
                assert batch_d.tolist() == [o.distance_to(point) for o in scalar]


def make_cloud(rng, count, duplicates=0):
    points = [random_vec(rng, -15.0, 15.0) for _ in range(count)]
    points += points[:duplicates]
    return PointCloud(random_vec(rng), tuple(points), len(points), 0.3)


class TestPointCloudAndViewEquivalence:
    @pytest.mark.parametrize("count", [0, 1, 2, 50])
    def test_cloud_queries_match_distance_scan(self, count):
        cloud = make_cloud(random.Random(500 + count), count)
        distances = [cloud.origin.distance_to(p) for p in cloud.points]
        assert cloud.nearest_distance() == min(distances, default=math.inf)
        # Radii equal to a point's distance check the inclusive bound.
        for radius in (0.0, 6.0, 100.0, *distances[:2]):
            assert cloud.points_within(radius) == points_within_oracle(cloud, radius)

    @pytest.mark.parametrize("count, duplicates", [(0, 0), (1, 0), (2, 0), (3, 3), (40, 2), (150, 0)])
    def test_gap_statistics_matches_quadratic_loop(self, count, duplicates):
        rng = random.Random(800 + count)
        for neighbourhood in (4.0, 25.0):
            suite = ProfilerSuite(gap_neighbourhood=neighbourhood)
            for _ in range(3):
                cloud = make_cloud(rng, count, duplicates)
                assert suite.gap_statistics(cloud) == gap_statistics_oracle(suite, cloud)

    @pytest.mark.parametrize("seed", range(4))
    def test_build_planning_view_matches_sorted_oracle(self, seed):
        rng = random.Random(600 + seed)
        octree = OccupancyOctree(vox_min=0.3, levels=4)
        for key in random_keys(rng, [0, 1, 30, 250][seed]):
            octree.mark_occupied(voxel_center(key, 0.3))
        for focus in (random_vec(rng), None):
            for precision in (0.3, 0.6):
                for max_volume, region in ((None, None), (2.0, 8.0), (0.5, None)):
                    view = build_planning_view(octree, precision, max_volume, focus, region)
                    assert (view.cells, view.total_volume, view.precision) == (
                        planning_view_oracle(octree, precision, max_volume, focus, region)
                    )


@pytest.fixture(scope="module")
def planning_node():
    env = EnvironmentGenerator().generate(
        EnvironmentConfig(
            obstacle_density=0.05, obstacle_spread=30.0, goal_distance=60.0, seed=3
        )
    )
    sim = MissionSimulator(env, RoboRunRuntime(), MissionConfig(max_decisions=10))
    return sim.build_pipeline().planning


class TestPlanningKernels:
    @pytest.mark.parametrize("seed", range(4))
    def test_trajectory_blocked_matches_early_exit_walk(self, planning_node, seed):
        rng = random.Random(900 + seed)
        octree = planning_node.operators.octree
        for _ in range(25):
            octree.clear_cells(octree.occupied_keys())
            waypoints = [random_vec(rng, -20.0, 20.0)]
            for _ in range(rng.randint(0, 12)):
                waypoints.append(waypoints[-1] + random_vec(rng, -8.0, 8.0))
            trajectory = Trajectory(
                [TrajectoryPoint(float(i), p, Vec3.zero()) for i, p in enumerate(waypoints)]
            )
            # Boxes on and beside the path (ahead of, behind and beyond the
            # check budget of the drone), so both verdicts occur.
            for _ in range(rng.randint(0, 3)):
                i = rng.randrange(len(waypoints))
                a, b = waypoints[i], waypoints[min(i + 1, len(waypoints) - 1)]
                centre = a + (b - a) * rng.random() + random_vec(rng, -1.5, 1.5)
                octree.mark_box(AABB.cube(centre, 0.9))
            for _ in range(5):
                position = rng.choice(waypoints) + random_vec(rng, -1.0, 1.0)
                assert planning_node.trajectory_blocked(
                    trajectory, position
                ) == trajectory_blocked_oracle(planning_node, trajectory, position)
        octree.clear_cells(octree.occupied_keys())

    @pytest.mark.parametrize("seed", range(3))
    def test_position_buffer_matches_distance_scan(self, seed):
        rng = random.Random(700 + seed)
        positions = [random_vec(rng) for _ in range(rng.choice([1, 60, 150]))]
        positions += positions[:3]  # exact ties: the first index must win
        buffer = _PositionBuffer(positions[0])
        for p in positions[1:]:
            buffer.append(p)
        for q in [random_vec(rng, -8.0, 8.0) for _ in range(100)] + positions[:5]:
            distances = [p.distance_to(q) for p in positions]
            assert buffer.distances_to(q).tolist() == distances
            # The rewire pass reads the same array in the other direction.
            assert distances == [q.distance_to(p) for p in positions]
            assert buffer.nearest(q) == distances.index(min(distances))
