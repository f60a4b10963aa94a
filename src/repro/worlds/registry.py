"""The archetype registry: names → procedural world generators.

An *archetype generator* is a callable ``(EnvironmentConfig, WorldSpec,
random.Random) -> GeneratedEnvironment`` registered under a unique name.
The registry is the worlds subsystem's single construction entry point,
:func:`build_environment`: environment difficulty knobs plus a
:class:`~repro.worlds.spec.WorldSpec` in, a fully finalised
:class:`~repro.environment.generator.GeneratedEnvironment` out (heterogeneity
field attached, movers bound, archetype stamped).

Registration is open: downstream code can add archetypes with
:func:`register_archetype` and campaigns sweep them by name — the registry
is what lets :func:`~repro.simulation.scenario.scenario_grid` treat "which
world" as just another grid axis.

Every generator must be a pure function of ``(config, spec, rng)`` where
``rng`` is seeded from the config/spec seeds: the determinism suite asserts
that the same spec + seed reproduce a byte-identical obstacle list and
difficulty field, including across multiprocessing campaign workers.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable, Dict, List, Optional

from repro.environment.generator import EnvironmentConfig, GeneratedEnvironment
from repro.worlds.field import HeterogeneityField
from repro.worlds.movers import DynamicObstacleSet, build_movers
from repro.worlds.spec import WorldSpec

ArchetypeGenerator = Callable[
    [EnvironmentConfig, WorldSpec, random.Random], GeneratedEnvironment
]

_ARCHETYPES: Dict[str, ArchetypeGenerator] = {}


def register_archetype(
    name: str,
) -> Callable[[ArchetypeGenerator], ArchetypeGenerator]:
    """Decorator registering a generator under ``name``.

    Raises:
        ValueError: when the name is empty or already registered.
    """
    if not name:
        raise ValueError("archetype name must be non-empty")

    def decorator(generator: ArchetypeGenerator) -> ArchetypeGenerator:
        if name in _ARCHETYPES:
            raise ValueError(f"archetype {name!r} is already registered")
        _ARCHETYPES[name] = generator
        return generator

    return decorator


def archetype_names() -> List[str]:
    """Registered archetype names, sorted."""
    return sorted(_ARCHETYPES)


def is_registered(name: str) -> bool:
    """True when an archetype generator exists under ``name``."""
    return name in _ARCHETYPES


def get_archetype(name: str) -> ArchetypeGenerator:
    """Look a generator up by name.

    Raises:
        KeyError: with the known names, when the archetype is unknown.
    """
    try:
        return _ARCHETYPES[name]
    except KeyError:
        raise KeyError(
            f"unknown world archetype {name!r}; registered: {archetype_names()}"
        ) from None


def effective_seed(config: EnvironmentConfig, spec: WorldSpec) -> int:
    """The world-layout seed: the spec's override, else the config's seed."""
    return config.seed if spec.seed is None else spec.seed


def build_environment(
    config: EnvironmentConfig, spec: Optional[WorldSpec] = None
) -> GeneratedEnvironment:
    """Generate and finalise one environment from difficulty knobs + a spec.

    The generator runs with an RNG seeded by :func:`effective_seed`; the
    result is then finalised: archetype name and world spec stamped,
    heterogeneity field sampled along the corridor, and dynamic obstacles
    (when the spec has movers) bound to the world at epoch 0.
    """
    world_spec = spec or WorldSpec()
    generator = get_archetype(world_spec.archetype)
    seed = effective_seed(config, world_spec)
    environment = generator(
        replace(config, seed=seed), world_spec, random.Random(seed)
    )
    return _finalise(environment, config, world_spec)


def _finalise(
    environment: GeneratedEnvironment,
    config: EnvironmentConfig,
    spec: WorldSpec,
) -> GeneratedEnvironment:
    """Attach the cross-cutting worlds extras to a generated environment."""
    environment.archetype = spec.archetype
    environment.world_spec = spec
    # The field is sampled before movers are bound: it describes the static
    # corridor, not one arbitrary epoch of the movers' motion.  Sampling is
    # eager — 10-30 ms per build of a 120 m world, up to about 0.2 s for a
    # 1200 m one, against minutes of mission wall-clock — so the field is a
    # plain value of the built artifact: the determinism suite fingerprints
    # it, and untraced missions pay nothing per decision.
    if environment.heterogeneity is None:
        sample_radius = min(config.corridor_width / 2.0, 30.0)
        sample_count = max(16, min(96, int(config.goal_distance // 15) + 2))
        environment.heterogeneity = HeterogeneityField.from_world(
            environment.world,
            environment.start,
            environment.goal,
            sample_count=sample_count,
            sample_radius=sample_radius,
        )
    if spec.movers:
        dynamics = DynamicObstacleSet(build_movers(spec.movers), environment.world)
        # Place the ground-truth dynamic layer at epoch 0 so the world is
        # complete even before a pipeline starts stepping it.
        dynamics.step(0)
        environment.dynamics = dynamics
    return environment
