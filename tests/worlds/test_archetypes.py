"""Archetype generators: registry, invariants, golden pin, determinism."""

import json

import pytest

from repro import EnvironmentConfig, WorldSpec, build_environment
from repro.environment.generator import EnvironmentGenerator
from repro.geometry.vec3 import Vec3
from repro.worlds import archetype_names, get_archetype, is_registered, register_archetype
from repro.worlds.archetypes import KEEP_CLEAR_M

TINY = EnvironmentConfig(
    obstacle_density=0.3, obstacle_spread=30.0, goal_distance=60.0, seed=7
)

BUILTINS = (
    "disaster_rubble",
    "forest",
    "paper_corridor",
    "urban_canyon",
    "warehouse",
)


def world_fingerprint(environment) -> bytes:
    """Canonical bytes of an environment's obstacle list + difficulty field.

    Uses ``repr`` of every coordinate, so two fingerprints match only when
    the worlds are bit-identical.
    """
    payload = {
        "obstacles": [
            [
                obstacle.name,
                [repr(v) for v in (obstacle.box.min_corner.x, obstacle.box.min_corner.y, obstacle.box.min_corner.z)],
                [repr(v) for v in (obstacle.box.max_corner.x, obstacle.box.max_corner.y, obstacle.box.max_corner.z)],
            ]
            for obstacle in environment.world.obstacles
        ],
        "field": [repr(v) for v in environment.heterogeneity.samples],
    }
    return json.dumps(payload, sort_keys=True).encode()


class TestRegistry:
    def test_builtins_registered(self):
        assert tuple(archetype_names()) == BUILTINS
        for name in BUILTINS:
            assert is_registered(name)

    def test_unknown_archetype_raises_with_known_names(self):
        with pytest.raises(KeyError, match="paper_corridor"):
            get_archetype("volcano")
        with pytest.raises(KeyError):
            build_environment(EnvironmentConfig(), WorldSpec(archetype="volcano"))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_archetype("forest")(lambda cfg, spec, rng: None)

    def test_extension_registration(self):
        @register_archetype("test_only_empty")
        def empty(cfg, spec, rng):
            from repro.worlds.archetypes import _corridor_frame
            from repro.environment.generator import GeneratedEnvironment
            from repro.environment.zones import ZoneMap

            start, goal, world = _corridor_frame(cfg)
            return GeneratedEnvironment(
                config=cfg, world=world, start=start, goal=goal,
                zone_map=ZoneMap(start, goal),
            )

        try:
            env = build_environment(TINY, WorldSpec(archetype="test_only_empty"))
            assert env.archetype == "test_only_empty"
            assert len(env.world.obstacles) == 0
            assert env.heterogeneity is not None
        finally:
            from repro.worlds import registry

            registry._ARCHETYPES.pop("test_only_empty")


class TestArchetypeInvariants:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_builds_a_flyable_world(self, name):
        env = build_environment(TINY, WorldSpec(archetype=name))
        assert env.archetype == name
        assert env.world_spec == WorldSpec(archetype=name)
        assert len(env.world.obstacles) > 0
        assert env.start == Vec3(0.0, 0.0, TINY.flight_altitude)
        assert env.goal == Vec3(TINY.goal_distance, 0.0, TINY.flight_altitude)
        # Obstacle centres stay in bounds.
        for obstacle in env.world.obstacles:
            assert env.world.bounds.contains(obstacle.center)
        # The keep-clear bubble around both mission endpoints holds.
        for obstacle in env.world.obstacles:
            assert obstacle.center.horizontal_distance_to(env.start) >= KEEP_CLEAR_M
            assert obstacle.center.horizontal_distance_to(env.goal) >= KEEP_CLEAR_M

    @pytest.mark.parametrize("name", BUILTINS)
    def test_zone_map_tiles_the_corridor(self, name):
        env = build_environment(TINY, WorldSpec(archetype=name))
        zones = env.zone_map.zones
        assert zones[0].start_fraction == 0.0
        assert zones[-1].end_fraction == 1.0
        for left, right in zip(zones, zones[1:]):
            assert left.end_fraction == pytest.approx(right.start_fraction)
        # Every corridor position resolves to a zone.
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert env.zone_map.zone_at(env.start.lerp(env.goal, t)) in zones

    @pytest.mark.parametrize("name", BUILTINS)
    def test_heterogeneity_field_present_and_bounded(self, name):
        env = build_environment(TINY, WorldSpec(archetype=name))
        field = env.heterogeneity
        assert field is not None
        assert len(field.samples) >= 16
        assert all(0.0 <= v <= 1.0 for v in field.samples)
        # difficulty_at interpolates inside the sample range.
        mid = env.start.lerp(env.goal, 0.5)
        assert min(field.samples) <= field.difficulty_at(mid) <= max(field.samples)
        assert env.difficulty_at(mid) == field.difficulty_at(mid)

    def test_disaster_rubble_has_a_density_gradient(self):
        env = build_environment(TINY, WorldSpec(archetype="disaster_rubble"))
        samples = env.heterogeneity.samples
        half = len(samples) // 2
        assert sum(samples[half:]) > sum(samples[:half])

    def test_density_knob_orders_obstacle_counts(self):
        sparse = build_environment(TINY, WorldSpec(archetype="forest"))
        dense = build_environment(
            EnvironmentConfig(
                obstacle_density=0.6, obstacle_spread=30.0, goal_distance=60.0, seed=7
            ),
            WorldSpec(archetype="forest"),
        )
        assert len(dense.world.obstacles) > len(sparse.world.obstacles)


class TestGolden:
    def test_paper_corridor_bit_identical_to_legacy_generator(self):
        """The worlds path must not perturb the pre-worlds corridor at all."""
        bench_cfg = EnvironmentConfig(
            obstacle_density=0.3, obstacle_spread=40.0, goal_distance=120.0, seed=11
        )
        legacy = EnvironmentGenerator().generate(bench_cfg)
        via_worlds = build_environment(bench_cfg, WorldSpec())
        assert len(legacy.world.obstacles) == len(via_worlds.world.obstacles)
        for a, b in zip(legacy.world.obstacles, via_worlds.world.obstacles):
            assert a.name == b.name
            assert a.box.min_corner == b.box.min_corner
            assert a.box.max_corner == b.box.max_corner
        assert [z.name for z in legacy.zone_map.zones] == [
            z.name for z in via_worlds.zone_map.zones
        ]
        assert legacy.cluster_centers == via_worlds.cluster_centers


class TestDeterminism:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_same_spec_and_seed_byte_identical(self, name):
        spec = WorldSpec(archetype=name)
        first = world_fingerprint(build_environment(TINY, spec))
        second = world_fingerprint(build_environment(TINY, spec))
        assert first == second

    def test_seed_changes_the_world(self):
        spec = WorldSpec(archetype="forest")
        base = world_fingerprint(build_environment(TINY, spec))
        other_cfg = EnvironmentConfig(
            obstacle_density=0.3, obstacle_spread=30.0, goal_distance=60.0, seed=8
        )
        assert world_fingerprint(build_environment(other_cfg, spec)) != base

    def test_world_spec_seed_overrides_config_seed(self):
        pinned = WorldSpec(archetype="forest", seed=7)
        other_cfg = EnvironmentConfig(
            obstacle_density=0.3, obstacle_spread=30.0, goal_distance=60.0, seed=99
        )
        assert world_fingerprint(
            build_environment(other_cfg, pinned)
        ) == world_fingerprint(build_environment(TINY, pinned))


class TestWorldSpec:
    def test_json_round_trip(self):
        from repro import MoverSpec

        spec = WorldSpec(
            archetype="warehouse",
            seed=3,
            params={"aisle_width_m": 6.0},
            movers=(
                MoverSpec(
                    kind="crosser", origin=(30.0, -20.0, 2.0),
                    velocity=(0.0, 2.0, 0.0), span_m=40.0,
                ),
            ),
        )
        restored = WorldSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert hash(restored) == hash(spec)

    def test_default_is_paper_corridor(self):
        assert WorldSpec().archetype == "paper_corridor"
        assert WorldSpec.from_dict(None) == WorldSpec()
        assert WorldSpec.from_dict({}) == WorldSpec()
        assert WorldSpec(archetype="forest") != WorldSpec()

    def test_validation(self):
        with pytest.raises(ValueError):
            WorldSpec(archetype="")
        with pytest.raises(ValueError):
            WorldSpec(params={"bad": "not a number"})
