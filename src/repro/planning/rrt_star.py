"""RRT* piece-wise planning.

"Piece-wise planning stochastically samples the map until a collision-free
path to the destination is found.  We use the RRT* planner from the OMPL
library due to its asymptotic optimality" (§III-A).  This module is the OMPL
substitute: a self-contained RRT* whose collision checks run against the
reduced :class:`~repro.perception.planning_view.PlanningView` and that exposes
the two hooks RoboRun's operators need:

* the **planner precision operator** — collision checks use a sampled ray
  cast whose step follows the requested planning precision; and
* the **planner volume operator** — a *volume monitor* tracks the volume of
  space explored (sampled) so far and "stops the search upon exceeding the
  threshold" (§III-B).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.geometry.aabb import AABB
from repro.geometry.grid import voxel_key
from repro.geometry.vec3 import Vec3
from repro.perception.planning_view import PlanningView
from repro.perception.spatial_index import segment_hits_table


@dataclass(frozen=True, slots=True)
class RRTStarConfig:
    """Tuning parameters for the RRT* search.

    Attributes:
        max_iterations: sampling iterations before giving up.
        step_size: maximum edge length when extending the tree, metres.
        goal_bias: probability of sampling the goal directly.
        goal_tolerance: distance at which a node counts as reaching the goal.
        rewire_radius: neighbourhood radius for the RRT* rewiring step.
        collision_margin: obstacle inflation applied during collision checks.
        collision_ray_step: step of the sampled collision ray cast (the
            planning precision knob); ``None`` uses exact segment tests.
        max_explored_volume: planner volume budget in m^3; ``None`` disables
            the volume monitor.
        exploration_cell: edge of the cells used to measure explored volume.
        seed: RNG seed for reproducible planning.
    """

    max_iterations: int = 600
    step_size: float = 4.0
    goal_bias: float = 0.2
    goal_tolerance: float = 8.0
    rewire_radius: float = 8.0
    collision_margin: float = 1.0
    collision_ray_step: Optional[float] = None
    max_explored_volume: Optional[float] = None
    exploration_cell: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if not 0.0 <= self.goal_bias <= 1.0:
            raise ValueError("goal_bias must be in [0, 1]")
        if self.goal_tolerance <= 0:
            raise ValueError("goal_tolerance must be positive")
        if self.exploration_cell <= 0:
            raise ValueError("exploration_cell must be positive")


@dataclass
class _TreeNode:
    """Internal RRT* tree node."""

    position: Vec3
    parent: Optional[int]
    cost: float


@dataclass(frozen=True, slots=True)
class PlanResult:
    """Outcome of one planning query.

    Attributes:
        success: True when a collision-free path to (or within the goal
            tolerance of) the goal was found.
        waypoints: the piece-wise path from start towards the goal (empty on
            failure).
        iterations: sampling iterations actually executed.
        nodes_expanded: number of nodes added to the tree.
        explored_volume: volume of space explored by the sampler, m^3.
        stopped_by_volume_monitor: True when the search terminated because the
            planner volume budget was exhausted.
        path_length: total length of the returned path, metres.
        collision_samples: number of points probed by the collision ray caster
            across the whole search — the quantity the planning precision knob
            controls and the compute model charges.
        rewires: number of tree edges re-parented by the RRT* rewiring pass —
            an observability counter (how much the asymptotically-optimal
            machinery actually worked), not a cost-model input.
    """

    success: bool
    waypoints: Tuple[Vec3, ...]
    iterations: int
    nodes_expanded: int
    explored_volume: float
    stopped_by_volume_monitor: bool
    path_length: float
    collision_samples: int = 0
    rewires: int = 0


class _CollisionChecker:
    """Counts ray-cast samples while probing the planning view's cell table.

    The view's sorted packed keys are the table itself, so a plan builds
    nothing before its first probe, and each segment is answered by
    :func:`segment_hits_table`, which stops at its first hit.
    """

    def __init__(self, view: PlanningView, margin: float, ray_step: Optional[float]) -> None:
        self.table = view.table
        self.precision = view.precision
        self.margin = margin
        self.step = ray_step if ray_step is not None else view.precision
        self.samples = 0

    def point(self, point: Vec3) -> bool:
        self.samples += 1
        return segment_hits_table(self.table, self.precision, point, point, None, self.margin)

    def segment(self, start: Vec3, end: Vec3) -> bool:
        effective = min(self.step, self.precision)
        charged_step = effective if effective > 0 else self.precision
        self.samples += int(start.distance_to(end) / max(charged_step, 1e-6)) + 2
        return segment_hits_table(
            self.table, self.precision, start, end, self.step, self.margin
        )


class _PositionBuffer:
    """Growable ``(N, 3)`` array mirroring the RRT* node positions.

    Keeps the nearest-node and rewire-neighbourhood scans — executed once per
    sampling iteration over every node so far — as single array distance
    passes instead of per-node ``Vec3`` arithmetic.
    """

    __slots__ = ("data", "count")

    def __init__(self, start: Vec3) -> None:
        self.data = np.empty((64, 3), dtype=np.float64)
        self.count = 0
        self.append(start)

    def append(self, position: Vec3) -> None:
        if self.count == self.data.shape[0]:
            grown = np.empty((self.data.shape[0] * 2, 3), dtype=np.float64)
            grown[: self.count] = self.data
            self.data = grown
        self.data[self.count] = (position.x, position.y, position.z)
        self.count += 1

    def distances_to(self, point: Vec3) -> np.ndarray:
        """Distance from every stored node to ``point``, matching
        ``Vec3.distance_to``'s summation order bit for bit."""
        d = self.data[: self.count] - np.array((point.x, point.y, point.z))
        return np.sqrt((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2])

    def nearest(self, point: Vec3) -> int:
        """Index of the stored node closest to ``point`` (the first on ties)."""
        return int(np.argmin(self.distances_to(point)))


class RRTStarPlanner:
    """RRT* over a planning view, bounded by a sampling region."""

    def __init__(self, config: Optional[RRTStarConfig] = None) -> None:
        self.config = config or RRTStarConfig()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def plan(
        self,
        start: Vec3,
        goal: Vec3,
        view: PlanningView,
        bounds: AABB,
        config: Optional[RRTStarConfig] = None,
    ) -> PlanResult:
        """Search for a collision-free path from ``start`` to ``goal``.

        A node within ``goal_tolerance`` of the goal terminates the search; if
        the straight connection to the exact goal point is free it is appended,
        otherwise the path ends at that node (the goal may sit inside an
        obstacle when it is a receding-horizon waypoint rather than the true
        mission goal).

        Args:
            start: start position (must be collision-free).
            goal: goal position.
            view: the reduced occupancy view handed over by perception.
            bounds: sampling region; samples are drawn uniformly inside it.
            config: optional per-query configuration overriding the planner's
                default (the runtime uses this to apply per-decision knobs).
        """
        cfg = config or self.config
        rng = random.Random(cfg.seed)
        checker = _CollisionChecker(view, cfg.collision_margin, cfg.collision_ray_step)

        # If the start already violates the inflated clearance (the drone is
        # hugging an obstacle), drop the inflation for this query so the
        # planner can squeeze back out instead of failing forever.
        if checker.point(start):
            checker.margin = 0.0
            if checker.point(start):
                return self._failure(
                    iterations=0,
                    nodes=0,
                    explored=0.0,
                    by_volume=False,
                    samples=checker.samples,
                )

        nodes: List[_TreeNode] = [_TreeNode(position=start, parent=None, cost=0.0)]
        positions = _PositionBuffer(start)
        explored_cells: Set[Tuple[int, int, int]] = {
            voxel_key(start, cfg.exploration_cell)
        }
        cell_volume = cfg.exploration_cell**3
        goal_node_index: Optional[int] = None
        stopped_by_volume = False
        iterations = 0
        rewires = 0

        for iterations in range(1, cfg.max_iterations + 1):
            explored_volume = len(explored_cells) * cell_volume
            if (
                cfg.max_explored_volume is not None
                and explored_volume >= cfg.max_explored_volume
            ):
                stopped_by_volume = True
                break

            sample = self._sample(rng, goal, bounds, cfg)

            nearest_index = positions.nearest(sample)
            new_position = self._steer(nodes[nearest_index].position, sample, cfg.step_size)
            if not bounds.contains(new_position):
                new_position = bounds.clamp_point(new_position)
            if checker.point(new_position):
                continue
            if checker.segment(nodes[nearest_index].position, new_position):
                continue

            new_index, new_rewires = self._insert_with_rewire(
                nodes, new_position, nearest_index, checker, cfg, positions
            )
            rewires += new_rewires
            explored_cells.add(voxel_key(new_position, cfg.exploration_cell))

            if new_position.distance_to(goal) <= cfg.goal_tolerance:
                if not checker.segment(new_position, goal):
                    goal_cost = nodes[new_index].cost + new_position.distance_to(goal)
                    nodes.append(_TreeNode(position=goal, parent=new_index, cost=goal_cost))
                    positions.append(goal)
                    goal_node_index = len(nodes) - 1
                else:
                    goal_node_index = new_index
                break

        explored_volume = len(explored_cells) * cell_volume
        if goal_node_index is None:
            return self._failure(
                iterations=iterations,
                nodes=len(nodes),
                explored=explored_volume,
                by_volume=stopped_by_volume,
                samples=checker.samples,
                rewires=rewires,
            )

        waypoints = self._extract_path(nodes, goal_node_index)
        return PlanResult(
            success=True,
            waypoints=tuple(waypoints),
            iterations=iterations,
            nodes_expanded=len(nodes),
            explored_volume=explored_volume,
            stopped_by_volume_monitor=stopped_by_volume,
            path_length=_path_length(waypoints),
            collision_samples=checker.samples,
            rewires=rewires,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _failure(
        iterations: int,
        nodes: int,
        explored: float,
        by_volume: bool,
        samples: int,
        rewires: int = 0,
    ) -> PlanResult:
        return PlanResult(
            success=False,
            waypoints=(),
            iterations=iterations,
            nodes_expanded=nodes,
            explored_volume=explored,
            stopped_by_volume_monitor=by_volume,
            path_length=0.0,
            collision_samples=samples,
            rewires=rewires,
        )

    @staticmethod
    def _sample(
        rng: random.Random, goal: Vec3, bounds: AABB, cfg: RRTStarConfig
    ) -> Vec3:
        if rng.random() < cfg.goal_bias:
            return goal
        lo, hi = bounds.min_corner, bounds.max_corner
        return Vec3(
            rng.uniform(lo.x, hi.x),
            rng.uniform(lo.y, hi.y),
            rng.uniform(lo.z, hi.z),
        )

    @staticmethod
    def _steer(origin: Vec3, target: Vec3, step: float) -> Vec3:
        delta = target - origin
        distance = delta.norm()
        if distance <= step or distance == 0.0:
            return target
        return origin + delta * (step / distance)

    def _insert_with_rewire(
        self,
        nodes: List[_TreeNode],
        position: Vec3,
        nearest_index: int,
        checker: _CollisionChecker,
        cfg: RRTStarConfig,
        positions: _PositionBuffer,
    ) -> Tuple[int, int]:
        # Choose the lowest-cost parent within the rewiring radius.  The
        # distance scan is one array pass; the conditional collision probes
        # must stay a sequential short-circuit loop because the checker's
        # sample counter (charged by the compute model) depends on exactly
        # which segments get probed.
        distances = positions.distances_to(position)
        neighbour_indices = [
            int(i) for i in np.flatnonzero(distances <= cfg.rewire_radius)
        ]
        best_cost = nodes[nearest_index].cost + float(distances[nearest_index])
        best_parent = nearest_index
        for i in neighbour_indices:
            candidate_cost = nodes[i].cost + float(distances[i])
            if candidate_cost < best_cost and not checker.segment(
                nodes[i].position, position
            ):
                best_parent = i
                best_cost = candidate_cost

        nodes.append(_TreeNode(position=position, parent=best_parent, cost=best_cost))
        positions.append(position)
        new_index = len(nodes) - 1

        # Rewire neighbours through the new node when it shortens their cost.
        # Vec3.distance_to is exactly symmetric (the squared differences are
        # sign-insensitive), so the precomputed distances serve both passes.
        rewired = 0
        for i in neighbour_indices:
            through_new = best_cost + float(distances[i])
            if through_new < nodes[i].cost and not checker.segment(
                position, nodes[i].position
            ):
                nodes[i] = _TreeNode(
                    position=nodes[i].position, parent=new_index, cost=through_new
                )
                rewired += 1
        return new_index, rewired

    @staticmethod
    def _extract_path(nodes: Sequence[_TreeNode], goal_index: int) -> List[Vec3]:
        path: List[Vec3] = []
        index: Optional[int] = goal_index
        guard = 0
        while index is not None:
            path.append(nodes[index].position)
            index = nodes[index].parent
            guard += 1
            if guard > len(nodes):
                raise RuntimeError("cycle detected while extracting the RRT* path")
        path.reverse()
        return path


def _path_length(waypoints: Sequence[Vec3]) -> float:
    return sum(a.distance_to(b) for a, b in zip(waypoints, waypoints[1:]))
