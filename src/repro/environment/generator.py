"""Environment generator.

Reimplements the paper's environment generator (§IV "Environment Generation"
and Figure 8a): environments are parameterised by obstacle **density**
(peak fraction of occupied cells near a cluster centre), obstacle **spread**
(radius over which obstacles are scattered around a cluster centre) and
**goal distance** (straight-line mission length).  Obstacles are spawned from
a Gaussian distribution around congestion-cluster centres; two congested
clusters sit at the mission's start and end (zones A and C) with a long,
nearly empty zone B between them.

The paper's evaluation grid uses three values per knob:

* density ∈ {0.3, 0.45, 0.6}
* spread ∈ {40, 80, 120} m
* goal distance ∈ {600, 900, 1200} m

for 27 environments total (``DENSITY_LEVELS``, ``SPREAD_LEVELS_M`` and
``GOAL_DISTANCE_LEVELS_M`` below); passing them to
:func:`~repro.simulation.scenario.scenario_grid` sweeps exactly that grid.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.environment.world import Obstacle, World

if TYPE_CHECKING:  # pragma: no cover - the worlds package imports us, not vice versa
    from repro.worlds.field import HeterogeneityField
    from repro.worlds.movers import DynamicObstacleSet
    from repro.worlds.spec import WorldSpec
from repro.environment.zones import ZoneMap
from repro.fields import check_number_fields
from repro.geometry.aabb import AABB
from repro.geometry.vec3 import Vec3

# Paper evaluation grid (Figure 8a).
DENSITY_LEVELS: Sequence[float] = (0.3, 0.45, 0.6)
SPREAD_LEVELS_M: Sequence[float] = (40.0, 80.0, 120.0)
GOAL_DISTANCE_LEVELS_M: Sequence[float] = (600.0, 900.0, 1200.0)


@dataclass(frozen=True, slots=True)
class EnvironmentConfig:
    """Difficulty knobs for one generated environment.

    Attributes:
        obstacle_density: peak fraction of space occupied near cluster centres
            (the paper sweeps 0.3 / 0.45 / 0.6).
        obstacle_spread: standard radius, in metres, over which obstacles are
            scattered around each cluster centre (40 / 80 / 120 m).
        goal_distance: straight-line distance from mission start to goal
            (600 / 900 / 1200 m).
        corridor_width: lateral half-width of the mission corridor, metres.
        flight_altitude: nominal z of the mission corridor, metres.
        obstacle_height: height of generated box obstacles, metres.
        clusters_per_zone: congestion clusters placed inside each congested
            zone (the generator hyper-parameter "number of congestion
            clusters" in §IV).
        seed: RNG seed; the same config + seed always produces the same world.
    """

    obstacle_density: float = 0.45
    obstacle_spread: float = 80.0
    goal_distance: float = 900.0
    corridor_width: float = 150.0
    flight_altitude: float = 5.0
    obstacle_height: float = 20.0
    clusters_per_zone: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        check_number_fields(self)
        for knob in (
            "obstacle_density",
            "obstacle_spread",
            "goal_distance",
            "corridor_width",
            "flight_altitude",
            "obstacle_height",
        ):
            value = getattr(self, knob)
            if not math.isfinite(value):
                raise ValueError(f"{knob} must be a finite number, got {value!r}")
        if not 0.0 < self.obstacle_density < 1.0:
            raise ValueError(
                f"obstacle density is the peak occupied fraction and must be in "
                f"(0, 1), got {self.obstacle_density!r}"
            )
        if self.obstacle_spread <= 0:
            raise ValueError(
                f"obstacle spread is a scatter radius in metres and must be "
                f"positive, got {self.obstacle_spread!r}"
            )
        if self.goal_distance <= 0:
            raise ValueError(
                f"goal distance is the mission length in metres and must be "
                f"positive, got {self.goal_distance!r}"
            )
        if self.corridor_width <= 0:
            raise ValueError(
                f"corridor width must be positive metres, got "
                f"{self.corridor_width!r} (a non-positive width inverts the "
                f"corridor: its left edge would sit right of its right edge)"
            )
        if self.flight_altitude <= 0:
            raise ValueError(
                f"flight altitude must be positive metres above ground, got "
                f"{self.flight_altitude!r}"
            )
        if self.obstacle_height <= 0:
            raise ValueError(
                f"obstacle height must be positive metres, got "
                f"{self.obstacle_height!r}"
            )
        if self.flight_altitude >= self.obstacle_height:
            raise ValueError(
                f"flight altitude ({self.flight_altitude!r} m) must sit below "
                f"the obstacle height ({self.obstacle_height!r} m); a corridor "
                f"whose obstacles all pass under the drone has no congestion "
                f"to generate"
            )
        if self.clusters_per_zone < 1:
            raise ValueError(
                f"need at least one congestion cluster per congested zone, "
                f"got {self.clusters_per_zone!r}"
            )

    def label(self) -> str:
        """Short human-readable identifier used in experiment tables."""
        return (
            f"den{self.obstacle_density:g}_spr{self.obstacle_spread:g}"
            f"_goal{self.goal_distance:g}_seed{self.seed}"
        )


@dataclass
class GeneratedEnvironment:
    """A generated world together with its mission endpoints and zone map.

    Bundles everything one mission needs of its surroundings: the obstacle
    ``world`` (all coordinates in metres), the ``start`` and ``goal``
    positions, the congestion ``zone_map`` (zones A and C are the congested
    clusters at the mission's ends, B the open middle) and the cluster
    centres the obstacles were scattered around.

    Environments built through :mod:`repro.worlds` additionally carry the
    worlds-layer extras (all default to their "plain paper corridor"
    values, so environments from :meth:`EnvironmentGenerator.generate`
    remain valid):

    Attributes:
        archetype: name of the world archetype the environment came from.
        world_spec: the :class:`~repro.worlds.spec.WorldSpec` it was built
            from (``None`` for directly generated environments).
        heterogeneity: the corridor's
            :class:`~repro.worlds.field.HeterogeneityField` (``None`` when
            not sampled).
        dynamics: the environment's
            :class:`~repro.worlds.movers.DynamicObstacleSet` (``None``
            when the world is fully static).
    """

    config: EnvironmentConfig
    world: World
    start: Vec3
    goal: Vec3
    zone_map: ZoneMap
    cluster_centers: List[Vec3] = field(default_factory=list)
    archetype: str = "paper_corridor"
    world_spec: Optional["WorldSpec"] = None
    heterogeneity: Optional["HeterogeneityField"] = None
    dynamics: Optional["DynamicObstacleSet"] = None

    def difficulty_at(self, position: Vec3) -> float:
        """Interpolated corridor difficulty in [0, 1] at a position.

        One lerp against the precomputed heterogeneity field — cheap enough
        for the flight stage's per-decision record.  Environments without a
        sampled field report 0.0 rather than paying a live density query.
        """
        if self.heterogeneity is None:
            return 0.0
        return self.heterogeneity.difficulty_at(position)


class EnvironmentGenerator:
    """Generates congestion-cluster environments from difficulty knobs.

    Reproduces the paper's §IV generator: obstacles are sampled from
    Gaussians around congestion-cluster centres placed in the start and goal
    zones, parameterised by obstacle density (peak occupied fraction),
    spread (scatter radius, metres) and goal distance (mission length,
    metres).  The same :class:`EnvironmentConfig` and seed always produce
    the same world.
    """

    # Obstacle footprint dimensions: narrow pillars and wider rack-like blocks,
    # in metres, mimicking warehouse shelving and building clutter.
    _FOOTPRINTS: Sequence[Tuple[float, float]] = ((2.0, 2.0), (4.0, 2.0), (6.0, 3.0))

    # ------------------------------------------------------------------
    # Single environment
    # ------------------------------------------------------------------
    def generate(self, config: Optional[EnvironmentConfig] = None) -> GeneratedEnvironment:
        """Generate one environment from the given configuration."""
        cfg = config or EnvironmentConfig()
        rng = random.Random(cfg.seed)

        start = Vec3(0.0, 0.0, cfg.flight_altitude)
        goal = Vec3(cfg.goal_distance, 0.0, cfg.flight_altitude)
        zone_map = ZoneMap(start, goal)

        half_width = cfg.corridor_width / 2.0
        bounds = AABB(
            Vec3(-50.0, -half_width - 50.0, 0.0),
            Vec3(cfg.goal_distance + 50.0, half_width + 50.0, 60.0),
        )
        world = World(bounds)

        cluster_centers = self._place_cluster_centers(cfg, zone_map, rng)
        for center in cluster_centers:
            for obstacle in self._spawn_cluster(cfg, center, start, goal, rng):
                # Gaussian scatter occasionally lands outside the corridor;
                # such obstacles can never affect the mission, so drop them.
                if world.bounds.contains(obstacle.center):
                    world.add_obstacle(obstacle)

        return GeneratedEnvironment(
            config=cfg,
            world=world,
            start=start,
            goal=goal,
            zone_map=zone_map,
            cluster_centers=cluster_centers,
        )

    def _place_cluster_centers(
        self, cfg: EnvironmentConfig, zone_map: ZoneMap, rng: random.Random
    ) -> List[Vec3]:
        """Drop cluster centres inside the congested zones (A and C)."""
        centers: List[Vec3] = []
        for zone in zone_map.zones:
            if not zone.congested:
                continue
            for _ in range(cfg.clusters_per_zone):
                fraction = rng.uniform(zone.start_fraction, zone.end_fraction)
                lateral = rng.uniform(-cfg.corridor_width / 4.0, cfg.corridor_width / 4.0)
                base = zone_map.start.lerp(zone_map.goal, fraction)
                centers.append(Vec3(base.x, base.y + lateral, cfg.flight_altitude))
        return centers

    def _spawn_cluster(
        self,
        cfg: EnvironmentConfig,
        center: Vec3,
        start: Vec3,
        goal: Vec3,
        rng: random.Random,
    ) -> Iterable[Obstacle]:
        """Spawn Gaussian-scattered obstacles around one cluster centre.

        The obstacle count is chosen so that the *peak* areal density near the
        cluster centre approximates ``cfg.obstacle_density``; density then
        falls off outward with the Gaussian, reproducing the "gradual
        reduction of congestion outward from their center" the paper
        describes.  Obstacles overlapping the mission start or goal are
        rejected so every environment remains solvable.
        """
        sigma = cfg.obstacle_spread / 2.0
        mean_footprint = sum(w * d for w, d in self._FOOTPRINTS) / len(self._FOOTPRINTS)
        cluster_area = math.pi * sigma**2
        target_count = max(3, int(cfg.obstacle_density * cluster_area / mean_footprint))

        obstacles: List[Obstacle] = []
        attempts = 0
        max_attempts = target_count * 10
        keep_clear = 12.0  # metres around start/goal that stay obstacle-free
        while len(obstacles) < target_count and attempts < max_attempts:
            attempts += 1
            dx = rng.gauss(0.0, sigma)
            dy = rng.gauss(0.0, sigma)
            footprint = self._FOOTPRINTS[rng.randrange(len(self._FOOTPRINTS))]
            pos = Vec3(center.x + dx, center.y + dy, cfg.obstacle_height / 2.0)
            if pos.horizontal_distance_to(start) < keep_clear:
                continue
            if pos.horizontal_distance_to(goal) < keep_clear:
                continue
            box = AABB.from_center(
                pos, Vec3(footprint[0], footprint[1], cfg.obstacle_height)
            )
            obstacles.append(Obstacle(box, name=f"obs_{len(obstacles)}"))
        return obstacles

    # ------------------------------------------------------------------
    # Figure 9 data
    # ------------------------------------------------------------------
    def congestion_map(
        self, environment: GeneratedEnvironment, cell: float = 30.0
    ) -> Dict[Tuple[int, int], float]:
        """Coarse 2-D congestion heat map (the data behind Figure 9).

        Returns a mapping from (ix, iy) grid cell to local obstacle density at
        flight altitude.
        """
        cfg = environment.config
        result: Dict[Tuple[int, int], float] = {}
        x = environment.world.bounds.min_corner.x
        ix = 0
        while x < environment.world.bounds.max_corner.x:
            y = environment.world.bounds.min_corner.y
            iy = 0
            while y < environment.world.bounds.max_corner.y:
                probe = Vec3(x + cell / 2.0, y + cell / 2.0, cfg.flight_altitude)
                result[(ix, iy)] = environment.world.obstacle_density(probe, cell / 2.0)
                y += cell
                iy += 1
            x += cell
            ix += 1
        return result
