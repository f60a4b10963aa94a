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
from hypothesis import example, given, settings, strategies as st

from repro import EnvironmentConfig, EnvironmentGenerator, MissionConfig, MissionSimulator
from repro import MoverSpec, RoboRunRuntime
from repro.control.follower import PurePursuitFollower
from repro.core.profilers import ProfilerSuite
from repro.environment.world import World, Obstacle
from repro.geometry.aabb import AABB
from repro.geometry.grid import downsample, pack_keys, unpack_keys, voxel_center, voxel_key
from repro.geometry.ray import _EPS, Ray, ray_aabb_intersect, raycast_aabbs_batch, sample_ray
from repro.geometry.vec3 import Vec3
from repro.middleware.clock import SimClock
from repro.perception.octomap import OccupancyOctree
from repro.perception.planning_view import PlanningView, build_planning_view
from repro.perception.point_cloud import PointCloud
from repro.perception.spatial_index import (
    cell_margin_radius,
    segment_hits_table,
    unique_keys,
)
from repro.planning.rrt_star import _CollisionChecker, _PositionBuffer
from repro.planning.trajectory import Trajectory, TrajectoryPoint
from repro.sensors.depth_camera import DepthImage
from repro.sensors.rig import CameraRig
from repro.worlds.movers import DynamicObstacleSet, build_movers


#: The peer box ``_mover_world`` puts in the agent layer.
PEER = Obstacle(AABB.from_center(Vec3(5.0, 5.0, 4.0), Vec3(1.2, 1.2, 1.2)), name="peer")


def every_obstacle(world, agents=(PEER,)):
    """Static, mover and agent obstacles: everything a world query may touch."""
    return [*world.obstacles, *world.dynamic_obstacles, *agents]


def capture_oracle(camera, world, position, yaw, agents=(PEER,)):
    """Directions and depths of a capture: every ray against every obstacle.

    No broad phase: no range query and no view cull, so a box the capture
    skips must give ``inf`` on every ray here too.
    """
    frustum = camera.frustum(position, yaw)
    directions = tuple(frustum.sample_directions(camera.width, camera.height))
    boxes = [o.box for o in every_obstacle(world, agents)]

    def cast(direction):
        hits = [ray_aabb_intersect(Ray(position, direction), box) for box in boxes]
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


def vec3s(array):
    return [Vec3(*p) for p in array.tolist()]


def points_within_oracle(cloud, radius):
    return [p for p in vec3s(cloud.points) if cloud.origin.distance_to(p) <= radius]


def planning_view_oracle(octree, precision, max_volume, focus, region_radius):
    """(cells, total volume, resolution) from a per-cell filter and list.sort."""
    anchor = focus if focus is not None else Vec3.zero()
    level = octree.coarsen_level_for(precision)
    resolution = octree.vox_min * (2**level)
    factor = 2**level
    candidates = sorted(
        {(i // factor, j // factor, k // factor) for (i, j, k) in occupied_set(octree)}
    )
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


def lookahead_oracle(follower, trajectory, position):
    """The first nearest sample by a ``min`` scan, then the walk forward."""
    points = trajectory.waypoint_positions()
    if len(points) == 1:
        return points[0]
    index = min(range(len(points)), key=lambda i: points[i].distance_to(position))
    remaining = follower.lookahead
    while index < len(points) - 1 and remaining > 0:
        segment = points[index + 1] - points[index]
        length = segment.norm()
        if length >= remaining and length > 0:
            return points[index] + segment * (remaining / length)
        remaining -= length
        index += 1
    return points[-1]


def nearest_index_oracle(trajectory, position):
    """The last sample at the least squared distance, by a loop."""
    best_index, best_sq = 0, math.inf
    for index, sample in enumerate(trajectory.points):
        dx = sample.position.x - position.x
        dy = sample.position.y - position.y
        dz = sample.position.z - position.z
        d_sq = dx * dx + dy * dy + dz * dz
        if d_sq <= best_sq:
            best_index, best_sq = index, d_sq
    return best_index


def brake_oracle(flight, position, motions):
    """One scalar segment probe per motion, in turn; zero-length horizons skip."""
    octree = flight.operators.octree
    for motion in motions:
        horizon = motion * flight.config.emergency_brake_lookahead_s
        if horizon.norm() < 1e-6:
            continue
        if octree.segment_occupied(
            position, position + horizon, step=octree.vox_min, lateral=octree.vox_min,
            include_start=False,
        ):
            return True
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


def neighbour_offsets(radius):
    """The (2r+1)³ integer offsets of the cube neighbourhood of radius ``r``."""
    span = range(-radius, radius + 1)
    return tuple((di, dj, dk) for di in span for dj in span for dk in span)


def point_hits_cells(cells, resolution, point, margin=0.0):
    """True when ``point`` lies inside (or within ``margin`` of) an occupied cell.

    The oracle of a zero-length ``segment_hits_table`` probe, over a set of
    key tuples.
    """
    if not cells:
        return False
    i = math.floor(point.x / resolution)
    j = math.floor(point.y / resolution)
    k = math.floor(point.z / resolution)
    radius = cell_margin_radius(margin, resolution)
    if radius == 0:
        return (i, j, k) in cells
    for di, dj, dk in neighbour_offsets(radius):
        if (i + di, j + dj, k + dk) in cells:
            return True
    return False


def segment_hits_cells(cells, resolution, start, end, step=None, margin=0.0):
    """Sampled collision test for a straight segment against grid cells.

    The oracle of ``segment_hits_table``, over a set of key tuples: probes
    the segment at ``step`` intervals (clamped to one cell), accumulated as
    ``t += step`` while ``t < length``, plus the exact end point, and stops
    at the first probe that hits.
    """
    if not cells:
        return False
    effective = step if step is not None else resolution
    if effective <= 0:
        raise ValueError("ray step must be positive")
    effective = min(effective, resolution)

    sx, sy, sz = start.x, start.y, start.z
    dx, dy, dz = end.x - sx, end.y - sy, end.z - sz
    length = math.sqrt(dx * dx + dy * dy + dz * dz)
    radius = cell_margin_radius(margin, resolution)
    offsets = neighbour_offsets(radius) if radius else None
    floor = math.floor

    def probe(px, py, pz):
        i = floor(px / resolution)
        j = floor(py / resolution)
        k = floor(pz / resolution)
        if offsets is None:
            return (i, j, k) in cells
        for di, dj, dk in offsets:
            if (i + di, j + dj, k + dk) in cells:
                return True
        return False

    if length <= 1e-12:
        return probe(sx, sy, sz)
    ux, uy, uz = dx / length, dy / length, dz / length
    t = 0.0
    while t < length:
        if probe(sx + ux * t, sy + uy * t, sz + uz * t):
            return True
        t += effective
    return probe(end.x, end.y, end.z)


def view_of(cells, res):
    """A planning view holding exactly ``cells`` at resolution ``res``."""
    table = pack_keys(np.array(sorted(cells), dtype=np.int64).reshape(-1, 3))
    return PlanningView(res, table, len(cells) * res**3)


def view_cells(view):
    """The cells a planning view selected, as a set of key tuples."""
    return frozenset(map(tuple, unpack_keys(view.table).tolist()))


def long_segments(rng, cells, res):
    """Segments of 20-80 m that start at, cross or end at an occupied cell.

    The cell lies 0, half or all of the segment's length from its start, so
    the first hit of a long probe falls at its start, in its middle or at
    its very end (for a sparse view, where nothing else is in the way).
    """
    pairs = []
    for key in sorted(cells)[:2]:
        c = voxel_center(key, res)
        for _ in range(2):
            length = rng.uniform(20.0, 80.0)
            u = random_vec(rng, -1.0, 1.0).normalized()
            for before in (0.0, 0.5 * length, length):
                a = c - u * before
                pairs.append((a, a + u * length))
    return pairs


def segment_batch_arrays(pairs):
    starts = np.array([(a.x, a.y, a.z) for a, _ in pairs], dtype=np.float64)
    ends = np.array([(b.x, b.y, b.z) for _, b in pairs], dtype=np.float64)
    return starts, ends


def _mover_world(rng):
    """A world with static boxes plus mover and agent layers, as the fleet sees it."""
    world = World(AABB(Vec3(-60, -60, 0), Vec3(60, 60, 40)))
    for _ in range(rng.randint(3, 12)):
        c = Vec3(rng.uniform(-40, 40), rng.uniform(-40, 40), rng.uniform(2, 20))
        edge = rng.uniform(1.0, 5.0)
        world.add_obstacle(Obstacle(AABB.from_center(c, Vec3(edge, edge, edge))))
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
    world.set_agent_obstacles([PEER])
    return world


def _box(corner, other, z=(3.0, 7.0)):
    """The box spanned by two xy corners, over ``z``."""
    return (
        (min(corner[0], other[0]), min(corner[1], other[1]), z[0]),
        (max(corner[0], other[0]), max(corner[1], other[1]), z[1]),
    )


def _edge_and_axis_rays(pose, yaw):
    """(cos, sin) of the axis and both edge azimuths of every rig camera."""
    for mount in range(0, 360, 60):
        heading = math.radians(yaw + mount)
        for azimuth in (heading - math.pi / 4, heading, heading + math.pi / 4):
            yield math.cos(azimuth), math.sin(azimuth)


def adversarial_boxes(family, pose, yaw, max_range):
    """Boxes on the boundaries of the rig's views and range, one kind at a time.

    Along the axis and both edge rays of each camera of a six-camera rig at
    ``pose`` and body ``yaw``, at 6 and 17 m: ``straddle`` boxes the ray
    passes through the middle of; ``touch`` boxes with one corner on the ray
    and the rest to one side; ``hair_*`` boxes that far (a fraction of the
    distance) off either side of the ray.  ``range`` boxes touch the rays at
    exactly ``max_range`` and one ulp beyond, and straddle the pose's x and y
    lines with their near face there.  ``behind`` is one box wholly behind
    each camera (in front of the opposite one); ``holds_camera`` one box
    around the pose.  Each kind gets a world of its own, so no box hides
    another.
    """
    rays = list(_edge_and_axis_rays(pose, yaw))
    boxes = []
    if family == "holds_camera":
        boxes.append(_box((pose.x - 0.5, pose.y - 0.5), (pose.x + 0.5, pose.y + 0.5)))
    elif family == "behind":
        for c, s in rays[1::3]:
            x, y = pose.x - c * 8.0, pose.y - s * 8.0
            boxes.append(_box((x - 1.0, y - 1.0), (x + 1.0, y + 1.0), (2.0, 8.0)))
    elif family == "range":
        beyond = math.nextafter(max_range, math.inf)
        for reach in (max_range, beyond):
            for c, s in rays:
                x, y = pose.x + c * reach, pose.y + s * reach
                boxes.append(_box(
                    (x, y), (x + math.copysign(2.0, c), y + math.copysign(2.0, s)), (4.9, 5.1)
                ))
            for sx, sy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                x, y = pose.x + sx * reach, pose.y + sy * reach
                boxes.append(_box(
                    (x - abs(sy), y - abs(sx)), (x + sx * 2 + abs(sy), y + sy * 2 + abs(sx))
                ))
    else:
        hair = {"hair_1e-12": 1e-12, "hair_1e-9": 1e-9, "hair_1e-6": 1e-6}.get(family)
        for c, s in rays:
            for distance in (6.0, 17.0):
                x, y = pose.x + c * distance, pose.y + s * distance
                if family == "straddle":
                    boxes.append(_box((x - 0.5, y - 0.5), (x + 0.5, y + 0.5)))
                    continue
                for side in (1.0, -1.0):
                    nx, ny = side * s, -side * c  # unit normal to the ray
                    if family == "touch":
                        boxes.append(_box(
                            (x, y), (x + math.copysign(1.3, nx), y + math.copysign(0.7, ny))
                        ))
                    else:
                        gx, gy = x + nx * hair * distance, y + ny * hair * distance
                        boxes.append(_box(
                            (gx, gy), (gx + math.copysign(0.4, nx), gy + math.copysign(0.4, ny))
                        ))
    return boxes


ADVERSARIAL_FAMILIES = (
    "straddle", "touch", "hair_1e-12", "hair_1e-9", "hair_1e-6", "range", "behind",
    "holds_camera",
)


def is_occupied_oracle(world, point, margin):
    """``box.expanded(margin).contains(point)`` over every box, in turn."""
    return any(o.box.expanded(margin).contains(point) for o in every_obstacle(world))


def density_samples(point, radius):
    """The disc ``World.obstacle_density`` samples: a ``+= step`` grid at ``point.z``."""
    step = max(radius / 8.0, 0.5)
    x = point.x - radius
    while x <= point.x + radius:
        y = point.y - radius
        while y <= point.y + radius:
            if math.hypot(x - point.x, y - point.y) <= radius:
                yield Vec3(x, y, point.z)
            y += step
        x += step


def obstacle_density_oracle(world, point, radius):
    """One ``is_occupied`` call per disc sample; 0.0 for a disc with no sample."""
    hits = [world.is_occupied(sample) for sample in density_samples(point, radius)]
    return sum(hits) / len(hits) if hits else 0.0


def expanded_surface_points(box, margin):
    """Corners, edge midpoints and face centres of ``box.expanded(margin)``.

    Each point lies exactly on the closed boundary; the same points pushed
    one ulp outward on every coordinate that sits on a face lie outside.
    """
    grown = box.expanded(margin)
    axes = [
        (grown.min_corner[a], (grown.min_corner[a] + grown.max_corner[a]) * 0.5,
         grown.max_corner[a])
        for a in range(3)
    ]
    on, beyond = [], []
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if (i, j, k) == (1, 1, 1):
                    continue
                on.append(Vec3(axes[0][i], axes[1][j], axes[2][k]))
                pushed = [
                    math.nextafter(axes[a][n], (-math.inf, 0.0, math.inf)[n])
                    if n != 1 else axes[a][n]
                    for a, n in enumerate((i, j, k))
                ]
                beyond.append(Vec3(*pushed))
    return on, beyond


class TestCellTableBatches:
    @pytest.mark.parametrize("cell_count", [0, 1, 30, 300])
    def test_point_probe_matches_point_hits_cells(self, cell_count):
        rng = random.Random(17 + cell_count)
        cells = frozenset(random_keys(rng, cell_count))
        resolution = 0.6
        table = view_of(cells, resolution).table
        points = [random_vec(rng) for _ in range(80)]
        points += [voxel_center(key, resolution) for key in sorted(cells)[:5]]
        for margin in (0.0, 0.5, 1.3):
            scalar = [point_hits_cells(cells, resolution, p, margin) for p in points]
            packed = [
                segment_hits_table(table, resolution, p, p, margin=margin) for p in points
            ]
            assert packed == scalar

    @pytest.mark.parametrize("cell_count", [0, 1, 30, 300])
    def test_collision_checker_segment_matches_segment_hits_cells(self, cell_count):
        rng = random.Random(23 + cell_count)
        cells = frozenset(random_keys(rng, cell_count))
        for res in (0.3, 0.6, 1.2):
            view = view_of(cells, res)
            pairs = [(random_vec(rng), random_vec(rng)) for _ in range(40)]
            # Segments through or ending in occupied cells, so sparse views
            # see hits too, and zero-length segments inside and outside a cell.
            for key in sorted(cells)[:5]:
                c, offset = voxel_center(key, res), random_vec(rng, -2.0, 2.0)
                pairs += [(c - offset, c + offset), (c + offset, c), (c, c)]
            p = random_vec(rng)
            pairs.append((p, p))
            pairs += long_segments(rng, cells, res)
            for step in (None, 0.2, 5.0):
                # Margins of zero, one and two cells (the cap).
                for margin in (0.0, res, 2.0 * res):
                    checker = _CollisionChecker(view, margin, step)
                    for a, b in pairs:
                        expected = segment_hits_cells(cells, res, a, b, step, margin)
                        assert checker.segment(a, b) == expected
                        assert view.segment_in_collision(a, b, margin, step) == expected
                        assert checker.point(a) == point_hits_cells(cells, res, a, margin)


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
        rig = CameraRig(width=12, height=8, max_range=35.0)
        for active in (rig, rig.with_resolution(5, 3)):
            for _ in range(6):
                pose = Vec3(rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(2, 15))
                yaw = rng.uniform(-180.0, 180.0)
                scan = active.capture(world, pose, yaw)
                assert len(scan.images) == len(active.cameras) == 6
                for camera, image in zip(active.cameras, scan.images):
                    assert (image.directions, image.depths) == capture_oracle(
                        camera, world, pose, yaw
                    )
                    # An image built without the capture's cached direction
                    # array must give the same points.
                    rebuilt = DepthImage(
                        image.origin, image.directions, image.depths, image.max_range,
                        image.width, image.height,
                    )
                    assert (
                        vec3s(image.hit_array())
                        == vec3s(rebuilt.hit_array())
                        == hit_points_oracle(image)
                    )
        assert DepthImage(pose, (), (), 40.0, 0, 0).hit_array().shape == (0, 3)

    @pytest.mark.parametrize("yaw", [0.0, 15.0, -45.0, 90.0, 137.5])
    @pytest.mark.parametrize("family", sorted(ADVERSARIAL_FAMILIES))
    def test_capture_of_adversarial_boxes_matches_oracle(self, family, yaw):
        pose, max_range = Vec3(3.0, -2.0, 5.0), 35.0
        world = World(AABB(Vec3(-60, -60, 0), Vec3(60, 60, 40)))
        for lo, hi in adversarial_boxes(family, pose, yaw, max_range):
            world.add_obstacle(Obstacle(AABB(Vec3(*lo), Vec3(*hi))))
        rig = CameraRig(width=12, height=8, max_range=max_range)
        depths = []
        for active in (rig, rig.with_resolution(2, 1), rig.with_resolution(3, 3)):
            scan = active.capture(world, pose, yaw)
            for camera, image in zip(active.cameras, scan.images):
                expected = capture_oracle(camera, world, pose, yaw, agents=())
                assert (image.directions, image.depths) == expected
                depths += image.depths
        if family == "holds_camera":
            assert set(depths) == {0.0}
        elif family in ("straddle", "touch", "behind"):
            assert any(map(math.isfinite, depths))

    @pytest.mark.parametrize("seed", range(4))
    def test_is_occupied_matches_expanded_box_loop(self, seed):
        rng = random.Random(350 + seed)
        world = _mover_world(rng)
        for margin in (0.0, 0.2):
            points = [
                Vec3(rng.uniform(-45, 45), rng.uniform(-45, 45), rng.uniform(-1, 25))
                for _ in range(150)
            ]
            for obstacle in every_obstacle(world):
                on, beyond = expanded_surface_points(obstacle.box, margin)
                points += on + beyond
            for point in points:
                assert world.is_occupied(point, margin) == is_occupied_oracle(
                    world, point, margin
                ), (point, margin)

    @pytest.mark.parametrize("seed", range(4))
    def test_obstacle_density_matches_per_sample_loop(self, seed):
        rng = random.Random(450 + seed)
        world = _mover_world(rng)
        points = [
            Vec3(rng.uniform(-45, 45), rng.uniform(-45, 45), rng.uniform(0, 22))
            for _ in range(6)
        ]
        # Boxes with a face, an edge or a corner exactly on a sample of one
        # disc (in z too), and boxes one ulp clear of one.
        centre = points[0]
        samples = list(density_samples(centre, 2.5))
        z0, z1 = centre.z - 1.0, centre.z + 1.0
        west, east = min(samples, key=lambda s: s.x), max(samples, key=lambda s: s.x)
        south, north = min(samples, key=lambda s: s.y), max(samples, key=lambda s: s.y)
        extremes = (west, east, south, north)
        on_faces = [s for s in samples[::9] if s not in extremes]
        boxes = []
        for s in on_faces:
            up = math.nextafter(s.x, math.inf)
            boxes += [
                ((s.x, s.y, centre.z), (s.x + 0.2, s.y + 0.2, z1)),
                ((s.x - 0.2, s.y - 0.2, z0), (s.x, s.y, centre.z)),
                ((up, s.y - 0.2, z0), (up + 0.2, s.y + 0.2, z1)),
            ]
        # Boxes outside the samples' x/y extent but for one face on it.
        boxes += [
            ((west.x - 0.5, west.y - 0.2, z0), (west.x, west.y + 0.2, z1)),
            ((east.x, east.y - 0.2, z0), (east.x + 0.5, east.y + 0.2, z1)),
            ((south.x - 0.2, south.y - 0.5, z0), (south.x + 0.2, south.y, z1)),
            ((north.x - 0.2, north.y, z0), (north.x + 0.2, north.y + 0.5, z1)),
        ]
        on_faces += extremes
        for lo, hi in boxes:
            world.add_obstacle(Obstacle(AABB(Vec3(*lo), Vec3(*hi))))
        densities = []
        for point in points:
            # 0.2 m holds no sample, 0.3 m exactly one.
            for radius in (0.2, 0.3, 2.5, 20.0, 30.0):
                expected = obstacle_density_oracle(world, point, radius)
                assert world.obstacle_density(point, radius) == expected, (point, radius)
                densities.append(expected)
        assert len(list(density_samples(centre, 0.2))) == 0
        assert len(list(density_samples(centre, 0.3))) == 1
        assert all(world.is_occupied(s) for s in on_faces)
        assert any(0.0 < d < 1.0 for d in densities)

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


def make_cloud(rng, count, duplicates=0, grid=None):
    """Random points round a random origin; on a ``grid`` when one is given."""
    points = [random_vec(rng, -15.0, 15.0) for _ in range(count)]
    if grid is not None:
        points = [Vec3(*(round(c / grid) * grid for c in p)) for p in points]
    points += points[:duplicates]
    return cloud_of(random_vec(rng), points)


class TestPointCloudAndViewEquivalence:
    @pytest.mark.parametrize("count", [0, 1, 2, 50])
    def test_cloud_queries_match_distance_scan(self, count):
        cloud = make_cloud(random.Random(500 + count), count)
        distances = [cloud.origin.distance_to(p) for p in vec3s(cloud.points)]
        assert cloud.nearest_distance() == min(distances, default=math.inf)
        # Radii equal to a point's distance check the inclusive bound.
        for radius in (0.0, 6.0, 100.0, *distances[:2]):
            assert vec3s(cloud.points_within(radius)) == points_within_oracle(cloud, radius)

    @pytest.mark.parametrize(
        "count, duplicates, grid",
        [(0, 0, None), (1, 0, None), (2, 0, None), (3, 3, None), (40, 2, None),
         (150, 0, None), (150, 0, 1.0), (300, 4, 0.5), (460, 0, None), (460, 0, 1.5)],
    )
    def test_gap_statistics_matches_quadratic_loop(self, count, duplicates, grid):
        """Random clouds, and clouds snapped to a grid, where distances tie."""
        rng = random.Random(800 + count)
        for neighbourhood in (4.0, 25.0):
            suite = ProfilerSuite(gap_neighbourhood=neighbourhood)
            for _ in range(3 if count < 300 else 1):
                cloud = make_cloud(rng, count, duplicates, grid)
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
                    assert (view_cells(view), view.total_volume, view.precision) == (
                        planning_view_oracle(octree, precision, max_volume, focus, region)
                    )
        # A 5x5x5 block of voxels round a focus at a cell centre: whole shells
        # of cells lie at one distance, and a budget of n cells cuts through
        # them.  Some cells of one shell differ in squared distance by an ulp
        # yet share one rounded distance; the tie rule then picks the
        # lexicographically smaller key.
        octree = OccupancyOctree(vox_min=0.3, levels=4)
        span = range(-2, 3)
        for key in ((i, j, k) for i in span for j in span for k in span):
            octree.mark_occupied(voxel_center(key, 0.3))
        for precision, focus in ((0.3, Vec3(0.15, 0.15, 0.15)), (0.6, Vec3(0.3, 0.3, 0.3))):
            cell_volume = precision**3
            for n in range(19 + seed, 28, 4):
                max_volume = (n - 0.5) * cell_volume
                view = build_planning_view(octree, precision, max_volume, focus)
                assert len(view) == n
                assert (view_cells(view), view.total_volume, view.precision) == (
                    planning_view_oracle(octree, precision, max_volume, focus, None)
                )


@pytest.fixture(scope="module")
def pipeline():
    env = EnvironmentGenerator().generate(
        EnvironmentConfig(
            obstacle_density=0.05, obstacle_spread=30.0, goal_distance=60.0, seed=3
        )
    )
    sim = MissionSimulator(env, RoboRunRuntime(), MissionConfig(max_decisions=10))
    return sim.build_pipeline(SimClock(), [])


@pytest.fixture(scope="module")
def planning_node(pipeline):
    return pipeline.planning


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
                octree.mark_box(AABB.from_center(centre, Vec3(0.9, 0.9, 0.9)))
            for _ in range(5):
                position = rng.choice(waypoints) + random_vec(rng, -1.0, 1.0)
                assert planning_node.trajectory_blocked(
                    trajectory, position
                ) == trajectory_blocked_oracle(planning_node, trajectory, position)
        octree.clear_cells(octree.occupied_keys())

    @pytest.mark.parametrize("seed", range(4))
    def test_brake_batch_matches_one_scalar_probe_per_motion(self, pipeline, seed):
        rng = random.Random(960 + seed)
        flight = pipeline.flight
        octree = flight.operators.octree
        octree.clear_cells(octree.occupied_keys())
        tiny = 1e-7  # a horizon under 1e-6 m: skipped, as a zero motion is
        for _ in range(20):
            position = random_vec(rng, -10.0, 10.0)
            for _ in range(rng.randint(0, 3)):
                centre = position + random_vec(rng, -2.5, 2.5)
                octree.mark_box(AABB.from_center(centre, Vec3(0.6, 0.6, 0.6)))
            motions = [random_vec(rng, -3.0, 3.0) for _ in range(4)]
            motions += [Vec3.zero(), Vec3(tiny, 0.0, 0.0)]
            # One motion, and the command with the momentum in one batch.
            for batch in [(m,) for m in motions] + [
                (rng.choice(motions), rng.choice(motions)) for _ in range(8)
            ]:
                assert flight._motion_blocked(position, *batch) == brake_oracle(
                    flight, position, batch
                )
        octree.clear_cells(octree.occupied_keys())

    @pytest.mark.parametrize("seed", range(4))
    def test_nearest_sample_queries_match_scans(self, seed):
        """The follower takes the first nearest sample; ``nearest_point_to`` the last."""
        rng = random.Random(980 + seed)
        follower = PurePursuitFollower(lookahead=rng.choice([0.5, 3.0, 12.0]))
        for count in (1, 2, 7, 40):
            waypoints = [random_vec(rng, -10.0, 10.0) for _ in range(count)]
            # The path comes back over its first half: duplicate samples.
            waypoints += waypoints[: count // 2][::-1]
            trajectory = Trajectory(
                [TrajectoryPoint(float(i), p, Vec3.zero()) for i, p in enumerate(waypoints)]
            )
            positions = waypoints + [random_vec(rng, -12.0, 12.0) for _ in range(25)]
            positions += [a.lerp(b, 0.5) for a, b in zip(waypoints, waypoints[1:])]
            for position in positions:
                assert follower._lookahead_point(trajectory, position) == lookahead_oracle(
                    follower, trajectory, position
                )
                assert trajectory.nearest_point_to(position).index == nearest_index_oracle(
                    trajectory, position
                )

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


# ----------------------------------------------------------------------
# Occupancy-map oracles: the octree's per-element loops over Python sets.
# ----------------------------------------------------------------------
def key_list(keys):
    """Packed voxel keys returned by the octree, as a list of tuples in order."""
    return [tuple(k) for k in unpack_keys(keys).tolist()]


def occupied_set(octree):
    return set(key_list(octree.occupied_keys()))


def octree_state(octree):
    """The octree's occupied and free voxel keys as two sets of tuples."""
    return occupied_set(octree), set(key_list(octree._free))


def coarse_keys(octree, precision):
    """The occupied coarse keys at ``precision``, as a set of tuples."""
    return set(key_list(octree.coarse_occupied_keys(precision)))


def array_of(points):
    return np.array([(p.x, p.y, p.z) for p in points], dtype=np.float64).reshape(-1, 3)


def cloud_of(origin, points):
    """A point cloud holding exactly ``points``, in order (no downsampling)."""
    return PointCloud(origin, array_of(points), len(points), 0.3)


def downsampled(points, resolution):
    """The grid-average downsampler's output as a list of Vec3."""
    return vec3s(downsample(array_of(points), resolution))


def octree_with(occupied, free, vox_min=0.3, free_resolution=None, levels=4):
    """An octree holding exactly the given occupied and free voxel keys."""
    octree = OccupancyOctree(vox_min=vox_min, levels=levels, free_resolution=free_resolution)
    for key in sorted(occupied):
        octree.mark_occupied(voxel_center(key, vox_min))
    for key in sorted(free):
        octree.mark_free(voxel_center(key, octree.free_resolution))
    assert octree_state(octree) == (set(occupied), set(free))
    return octree


def downsample_oracle(points, resolution):
    """Grid averages from per-cell running sums, cells in first-seen order."""
    cells = {}
    for p in points:
        cell = cells.setdefault(voxel_key(p, resolution), [0, 0.0, 0.0, 0.0])
        cell[0] += 1
        cell[1] += p.x
        cell[2] += p.y
        cell[3] += p.z
    return [Vec3(sx / n, sy / n, sz / n) for n, sx, sy, sz in cells.values()]


def insert_oracle(occupied, free, vox_min, free_resolution, origin, points,
                  ray_step=None, max_volume=None, focus=None):
    """One ray at a time, nearest to ``focus`` first, mutating the two sets.

    Returns the insertion statistics.  Each ray carves its samples free and
    erases the unprotected occupied voxels they pass through, then marks its
    endpoint occupied; once the integrated volume reaches ``max_volume`` the
    remaining rays only mark their endpoints.
    """
    anchor = focus if focus is not None else origin
    ordered = sorted(points, key=lambda p: anchor.distance_to(p))
    protected = {voxel_key(p, vox_min) for p in ordered}
    effective_step = max(ray_step if ray_step is not None else vox_min, vox_min)
    bookkeeping_step = max(effective_step, free_resolution)
    new_volume, integrated, skipped, cells = 0.0, 0, 0, 0
    for point in ordered:
        if max_volume is not None and new_volume >= max_volume:
            occupied.add(voxel_key(point, vox_min))
            free.discard(voxel_key(point, free_resolution))
            cells += 1
            skipped += 1
            continue
        cells += int(origin.distance_to(point) / effective_step) + 1
        volume = vox_min**3
        for sample in sample_ray(origin, point, bookkeeping_step)[:-1]:
            free.add(voxel_key(sample, free_resolution))
            volume += free_resolution**3
            key = voxel_key(sample, vox_min)
            if key not in protected:
                occupied.discard(key)
        occupied.add(voxel_key(point, vox_min))
        free.discard(voxel_key(point, free_resolution))
        new_volume += volume
        integrated += 1
    return {
        "points_integrated": float(integrated),
        "points_skipped": float(skipped),
        "cells_updated": float(cells),
        "integrated_volume": new_volume,
    }


def mark_box_oracle(occupied, free, vox_min, free_resolution, box):
    """The nested i/j/k loop over the box's voxels; returns the new keys."""
    lo = voxel_key(box.min_corner, vox_min)
    hi = voxel_key(box.max_corner, vox_min)
    keys = []
    for i in range(lo[0], hi[0] + 1):
        for j in range(lo[1], hi[1] + 1):
            for k in range(lo[2], hi[2] + 1):
                key = (i, j, k)
                if key in occupied:
                    continue
                occupied.add(key)
                free.discard(voxel_key(voxel_center(key, vox_min), free_resolution))
                keys.append(key)
    return keys


def clear_cells_oracle(occupied, keys):
    cleared = 0
    for key in keys:
        if key in occupied:
            occupied.remove(key)
            cleared += 1
    return cleared


def forget_oracle(occupied, free, vox_min, free_resolution, center, radius):
    """Keep the cells whose centre lies within ``radius``; returns the count dropped."""
    radius_sq = radius * radius

    def keep(key, resolution):
        c = voxel_center(key, resolution)
        dx, dy, dz = c.x - center.x, c.y - center.y, c.z - center.z
        return dx * dx + dy * dy + dz * dz <= radius_sq

    before = len(occupied) + len(free)
    occupied.intersection_update({k for k in occupied if keep(k, vox_min)})
    free.intersection_update({k for k in free if keep(k, free_resolution)})
    return before - len(occupied) - len(free)


def nearest_oracle(occupied, vox_min, point, max_radius):
    best_sq = max_radius * max_radius
    for (i, j, k) in occupied:
        dx = (i + 0.5) * vox_min - point.x
        dy = (j + 0.5) * vox_min - point.y
        dz = (k + 0.5) * vox_min - point.z
        best_sq = min(best_sq, dx * dx + dy * dy + dz * dz)
    return math.sqrt(best_sq)


def segment_walk_oracle(occupied, vox_min, start, end, step, lateral, include_start):
    """The documented segment probe, point by point.

    Each probe point tests its own voxel key and, with a lateral width, the
    four keys ``floor((p ± lateral) / vox)`` in x and y.
    """
    dx, dy, dz = end.x - start.x, end.y - start.y, end.z - start.z
    length = math.sqrt(dx * dx + dy * dy + dz * dz)
    if include_start:
        intervals, first = max(1, int(length / step)), 0
    else:
        intervals, first = max(2, int(length / step) + 1), 1
    floor = math.floor
    for n in range(first, intervals + 1):
        t = n / intervals
        px, py, pz = start.x + dx * t, start.y + dy * t, start.z + dz * t
        i, j, k = floor(px / vox_min), floor(py / vox_min), floor(pz / vox_min)
        probes = [(i, j, k)]
        if lateral:
            probes += [
                (floor((px + lateral) / vox_min), j, k),
                (floor((px - lateral) / vox_min), j, k),
                (i, floor((py + lateral) / vox_min), k),
                (i, floor((py - lateral) / vox_min), k),
            ]
        if any(p in occupied for p in probes):
            return True
    return False


OCTREE_RESOLUTIONS = [(0.3, None), (0.25, 1.0), (0.2, 0.2), (0.5, 4.0)]


class TestOccupancyMapOracles:
    @pytest.mark.parametrize("seed", range(8))
    def test_downsample_matches_cell_accumulators(self, seed):
        rng = random.Random(1100 + seed)
        points = [random_vec(rng, -20.0, 20.0) for _ in range(rng.choice([1, 2, 30, 400]))]
        # Exact duplicates and near neighbours share cells out of order.
        points += [rng.choice(points) for _ in range(5)]
        points += [p + Vec3(1e-3, -1e-3, 0.0) for p in rng.sample(points, 3)]
        rng.shuffle(points)
        for resolution in (0.2, 0.3, 1.7, 4.8):
            assert downsampled(points, resolution) == downsample_oracle(points, resolution)

    @pytest.mark.parametrize("seed", range(8))
    def test_insert_point_cloud_matches_set_loop(self, seed):
        rng = random.Random(1200 + seed)
        vox_min, free_resolution = OCTREE_RESOLUTIONS[seed % 4]
        origin = random_vec(rng, -3.0, 3.0)
        points = [random_vec(rng, -15.0, 15.0) for _ in range(rng.choice([1, 6, 40, 120]))]
        points.append(origin)  # a zero-length ray
        points += [rng.choice(points) for _ in range(3)]  # duplicate endpoints
        points += [p + Vec3(0.01, 0.0, -0.01) for p in points[:3]]  # shared voxels
        rng.shuffle(points)
        # Occupied cells on the rays (to be erased) and at endpoints (to be
        # kept), free cells at endpoints (to be discarded) and elsewhere.
        seed_octree = OccupancyOctree(vox_min=vox_min, levels=4, free_resolution=free_resolution)
        for p in points[:12]:
            seed_octree.mark_occupied(origin.lerp(p, rng.random()))
            seed_octree.mark_free(origin.lerp(p, rng.random()))
        for p in points[:4]:
            seed_octree.mark_occupied(p)
        for p in points[4:8]:
            seed_octree.mark_free(p)
        for _ in range(10):
            seed_octree.mark_occupied(random_vec(rng, -15.0, 15.0))
            seed_octree.mark_free(random_vec(rng, -15.0, 15.0))
        occupied, free = octree_state(seed_octree)
        res_free = seed_octree.free_resolution
        focus = random_vec(rng, -5.0, 5.0)

        def run(ray_step, max_volume, anchor):
            octree = octree_with(occupied, free, vox_min, free_resolution)
            stats = octree.insert_point_cloud(cloud_of(origin, points), ray_step, max_volume, anchor)
            occ, fr = set(occupied), set(free)
            expected = insert_oracle(
                occ, fr, vox_min, res_free, origin, points, ray_step, max_volume, anchor
            )
            assert stats == expected
            assert octree_state(octree) == (occ, fr)
            return stats

        nearest_half = sorted(points, key=lambda p: origin.distance_to(p))[: len(points) // 2]
        for ray_step in (None, 0.6, 3.7):
            full = run(ray_step, None, focus)["integrated_volume"]
            # The running total after the nearer half of the rays: a budget
            # equal to it stops right after that ray, one ulp above it lets
            # one more ray in.
            half = insert_oracle(
                set(), set(), vox_min, res_free, origin, nearest_half, ray_step
            )["integrated_volume"]
            assert 0 < run(ray_step, half, None)["points_skipped"] < len(points)
            for budget in (math.nextafter(half, 0.0), math.nextafter(half, math.inf)):
                run(ray_step, budget, None)
            for budget in (0.0, full * rng.uniform(0.2, 0.8), full, 2.0 * full):
                run(ray_step, budget, focus)

    def test_insert_empty_cloud_changes_nothing(self):
        octree = octree_with({(1, 2, 3)}, {(0, 0, 0)})
        stats = octree.insert_point_cloud(cloud_of(Vec3(1.0, 1.0, 1.0), []), max_volume=5.0)
        assert stats == insert_oracle(set(), set(), 0.3, 2.4, Vec3.zero(), [])
        assert octree_state(octree) == ({(1, 2, 3)}, {(0, 0, 0)})

    @pytest.mark.parametrize("seed", range(4))
    def test_mark_box_and_clear_cells_match_set_loops(self, seed):
        rng = random.Random(1300 + seed)
        vox_min, free_resolution = OCTREE_RESOLUTIONS[seed]
        occupied, free = random_keys(rng, 60, spread=10), random_keys(rng, 20, spread=3)
        octree = octree_with(occupied, free, vox_min, free_resolution)
        res_free = octree.free_resolution
        marked = []
        for _ in range(8):
            centre = random_vec(rng, -2.5, 2.5)
            size = Vec3(rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0))
            box = AABB.from_center(centre, size)
            expected = mark_box_oracle(occupied, free, vox_min, res_free, box)
            keys = octree.mark_box(box)
            assert key_list(keys) == expected
            assert octree_state(octree) == (occupied, free)
            marked.append((keys, expected))
        # A box whose corners sit exactly on voxel faces.
        box = AABB(Vec3(-vox_min, 0.0, vox_min), Vec3(vox_min, 2 * vox_min, 3 * vox_min))
        expected = mark_box_oracle(occupied, free, vox_min, res_free, box)
        assert key_list(octree.mark_box(box)) == expected
        # Clearing twice: the second pass finds the cells already gone.
        for keys, expected in marked + marked[:2]:
            assert octree.clear_cells(keys) == clear_cells_oracle(occupied, expected)
            assert octree_state(octree) == (occupied, free)

    @pytest.mark.parametrize("seed", range(4))
    def test_forget_beyond_matches_per_cell_predicate(self, seed):
        rng = random.Random(1400 + seed)
        vox_min, free_resolution = OCTREE_RESOLUTIONS[seed]
        occupied, free = random_keys(rng, 300, spread=30), random_keys(rng, 60, spread=6)
        for radius in (0.1, 3.0, 7.5, 12.0, 100.0):
            octree = octree_with(occupied, free, vox_min, free_resolution)
            centre = random_vec(rng, -4.0, 4.0)
            occ, fr = set(occupied), set(free)
            expected = forget_oracle(occ, fr, vox_min, octree.free_resolution, centre, radius)
            assert octree.forget_beyond(centre, radius) == expected
            assert octree_state(octree) == (occ, fr)

    def test_forget_beyond_on_the_radius_and_with_empty_stores(self):
        # 0.5 m voxels keep every centre and distance an exact binary
        # fraction: cell (3, 4, 0) lies exactly 2.5 m from cell (0, 0, 0).
        centre = voxel_center((0, 0, 0), 0.5)
        corner = {(0, 0, 0), (3, 0, 0), (0, 4, 0), (3, 4, 0)}
        cases = [
            (corner, {(0, 0, 0)}, 2.5),  # whole stores inside, one cell on the radius
            (corner, {(0, 0, 0)}, math.nextafter(2.5, 0.0)),  # that cell just outside
            (corner - {(3, 4, 0)}, set(), 2.4),  # the box corner outside, no cell
            (set(), {(0, 0, 0), (5, 5, 5)}, 2.5),  # empty occupied store
            (corner, set(), 1.0),  # empty free store
            (set(), set(), 1.0),
        ]
        for occupied, free, radius in cases:
            octree = octree_with(occupied, free, vox_min=0.5, free_resolution=1.0)
            occ, fr = set(occupied), set(free)
            expected = forget_oracle(occ, fr, 0.5, 1.0, centre, radius)
            assert octree.forget_beyond(centre, radius) == expected
            assert octree_state(octree) == (occ, fr)
        assert centre.distance_to(voxel_center((3, 4, 0), 0.5)) == 2.5

    @pytest.mark.parametrize("seed", range(5))
    def test_segment_probes_match_scalar_walk(self, seed):
        rng = random.Random(1500 + seed)
        occupied = random_keys(rng, rng.choice([0, 1, 40, 400]))
        for vox_min in (0.25, 0.3):
            octree = octree_with(occupied, set(), vox_min=vox_min)
            pairs = [(random_vec(rng), random_vec(rng)) for _ in range(60)]
            p = random_vec(rng)
            pairs.append((p, p))  # zero length
            # Probes on voxel faces, where the lateral keys differ from the
            # centre key plus or minus one.
            faces = [
                Vec3(rng.randint(-12, 12) * vox_min, rng.randint(-12, 12) * vox_min,
                     rng.uniform(-3.0, 6.0))
                for _ in range(10)
            ]
            pairs += [(f, f) for f in faces] + list(zip(faces, faces[1:]))
            starts, ends = segment_batch_arrays(pairs)
            for step in (0.1, 0.3, 1.7):
                # 0.4 m, and one voxel: the emergency brake's own width.
                for lateral in (0.0, 0.4, vox_min):
                    for include_start in (True, False):
                        expected = [
                            segment_walk_oracle(
                                occupied, vox_min, a, b, step, lateral, include_start
                            )
                            for a, b in pairs
                        ]
                        scalar = [
                            octree.segment_occupied(a, b, step, lateral, include_start)
                            for a, b in pairs
                        ]
                        batch = octree.segment_occupied_batch(
                            starts, ends, step, lateral, include_start
                        )
                        assert scalar == expected
                        assert batch.tolist() == expected
        # Directed case: rounding carries p + lateral two voxels over, into
        # the next 8-voxel bucket, so a bucket broad phase would skip a probe
        # whose key the kernel does test.
        x = 9.299999999999999
        assert (math.floor(x / 0.3), math.floor((x + 0.3) / 0.3)) == (30, 32)
        occupied = {(32, 5, 2)}
        octree = octree_with(occupied, set(), vox_min=0.3)
        p = Vec3(x, 5.5 * 0.3, 2.5 * 0.3)
        starts, ends = segment_batch_arrays([(p, p)])
        for include_start in (True, False):
            assert segment_walk_oracle(occupied, 0.3, p, p, 0.3, 0.3, include_start)
            assert octree.segment_occupied(p, p, 0.3, 0.3, include_start)
            batch = octree.segment_occupied_batch(starts, ends, 0.3, 0.3, include_start)
            assert batch.tolist() == [True]

    @pytest.mark.parametrize("vox_min", [0.25, 0.3])
    def test_brake_probe_reads_the_shifted_point_on_voxel_faces(self, vox_min):
        """A lateral key is ``floor((x ± lateral) / vox)``, not ``floor(x / vox) ± 1``.

        Near a voxel face the two differ, by rounding.  For each such x the
        map holds only the voxel the shifted point lies in, in a row the
        y-shifted probes never reach, so the brake-width probe must hit it.
        """
        j, k = 5, 2
        y, z = (j + 0.5) * vox_min, (k + 0.5) * vox_min
        cases = 0
        for n in range(-40, 40):
            base = n * vox_min
            for x in (base, math.nextafter(base, -math.inf), math.nextafter(base, math.inf)):
                for delta in (vox_min, -vox_min):
                    i = math.floor((x + delta) / vox_min)
                    if i == math.floor(x / vox_min) + (1 if delta > 0 else -1):
                        continue
                    cases += 1
                    octree = octree_with({(i, j, k)}, set(), vox_min=vox_min)
                    p = Vec3(x, y, z)
                    starts, ends = segment_batch_arrays([(p, p)])
                    for include_start in (True, False):
                        assert octree.segment_occupied(p, p, 0.5, vox_min, include_start)
                        assert octree.segment_occupied_batch(
                            starts, ends, 0.5, vox_min, include_start
                        ).tolist() == [True]
        assert cases > 0


@given(st.lists(st.integers(min_value=-(2**62), max_value=2**62)), st.integers(0, 3))
@example([], 0)
@example([7], 0)
@example([5, 5, 5, 5], 0)
@settings(max_examples=200, deadline=None)
def test_unique_keys_matches_np_unique(values, spread):
    """Any int64 keys, and keys drawn from a few values so that repeats are many."""
    keys = np.array(values, dtype=np.int64)
    if spread:
        keys %= 4**spread
    got, expected = unique_keys(keys), np.unique(keys)
    assert got.dtype == expected.dtype
    assert got.tolist() == expected.tolist()


MAP_COORD = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
MAP_POINT = st.builds(Vec3, MAP_COORD, MAP_COORD, MAP_COORD)
MAP_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("mark"), MAP_POINT),
        st.tuples(st.just("free"), MAP_POINT),
        st.tuples(st.just("box"), MAP_POINT, st.floats(min_value=0.05, max_value=2.0)),
        st.tuples(st.just("clear")),
        st.tuples(
            st.just("insert"),
            MAP_POINT,
            st.lists(MAP_POINT, max_size=12),
            st.one_of(st.none(), st.floats(min_value=0.0, max_value=40.0)),
        ),
        st.tuples(st.just("forget"), MAP_POINT, st.floats(min_value=0.5, max_value=8.0)),
    ),
    min_size=1,
    max_size=25,
)


@given(MAP_OPS, MAP_POINT)
@settings(max_examples=60, deadline=None)
def test_octree_matches_set_model_under_random_workload(ops, query):
    vox_min, res_free = 0.3, 1.2
    octree = OccupancyOctree(vox_min=vox_min, levels=5, free_resolution=res_free)
    occupied, free = set(), set()
    boxes = []  # (octree keys, oracle keys) of each mark_box
    for op in ops:
        kind = op[0]
        if kind == "mark":
            octree.mark_occupied(op[1])
            occupied.add(voxel_key(op[1], vox_min))
            free.discard(voxel_key(op[1], res_free))
        elif kind == "free":
            octree.mark_free(op[1])
            free.add(voxel_key(op[1], res_free))
        elif kind == "box":
            box = AABB.from_center(op[1], Vec3(op[2], op[2], op[2]))
            keys = octree.mark_box(box)
            expected = mark_box_oracle(occupied, free, vox_min, res_free, box)
            assert key_list(keys) == expected
            boxes.append((keys, expected))
        elif kind == "clear" and boxes:
            keys, expected = boxes.pop(0)
            assert octree.clear_cells(keys) == clear_cells_oracle(occupied, expected)
        elif kind == "insert":
            _, origin, points, budget = op
            stats = octree.insert_point_cloud(cloud_of(origin, points), max_volume=budget)
            assert stats == insert_oracle(
                occupied, free, vox_min, res_free, origin, points, max_volume=budget
            )
        elif kind == "forget":
            assert octree.forget_beyond(op[1], op[2]) == forget_oracle(
                occupied, free, vox_min, res_free, op[1], op[2]
            )
        assert octree_state(octree) == (occupied, free)
    assert octree.occupied_voxel_count() == len(occupied)
    assert octree.observed_voxel_count() == len(occupied) + len(free)
    for level in range(5):
        precision = vox_min * 2**level
        factor = 2**level
        assert coarse_keys(octree, precision) == {
            (i // factor, j // factor, k // factor) for (i, j, k) in occupied
        }
    for radius in (0.5, 4.0, 50.0):
        assert octree.nearest_occupied_distance(query, radius) == nearest_oracle(
            occupied, vox_min, query, radius
        )
