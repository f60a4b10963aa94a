"""Procedural world-archetype library with dynamic obstacles.

The worlds subsystem multiplies the repo's scenario diversity: instead of
one fixed corridor shape, a mission names a :class:`WorldSpec` — a
JSON-serialisable value selecting a registered procedural *archetype*
(``paper_corridor``, ``urban_canyon``, ``forest``, ``warehouse``,
``disaster_rubble``, or any extension added via
:func:`register_archetype`), its knobs and its dynamic obstacles — and the
registry builds a fully wired
:class:`~repro.environment.generator.GeneratedEnvironment`:

* the obstacle :class:`~repro.environment.world.World` and
  :class:`~repro.environment.zones.ZoneMap` the mission flies through;
* a continuous :class:`HeterogeneityField` — local difficulty sampled
  along the corridor, stamped into every decision record; and
* a :class:`DynamicObstacleSet` of kinematic movers, stepped once per
  decision epoch at the sense stage boundary and re-marked into the
  occupancy map, one batch of voxel keys per mover.

The subsystem plugs into every downstream layer:
:class:`~repro.simulation.scenario.ScenarioSpec` carries a ``world`` field
(defaulting to the paper corridor, so old specs behave identically),
:func:`~repro.simulation.scenario.scenario_grid` sweeps archetypes as a
grid axis, and :mod:`repro.analysis` aggregates governor-vs-baseline
results per archetype.  See ``docs/worlds.md`` for the archetype
catalogue and knob semantics.
"""

from repro.worlds.field import HeterogeneityField
from repro.worlds.movers import (
    DynamicObstacleSet,
    KinematicMover,
    MoverSpec,
    build_movers,
)
from repro.worlds.registry import (
    archetype_names,
    build_environment,
    get_archetype,
    is_registered,
    register_archetype,
)
from repro.worlds.spec import DEFAULT_ARCHETYPE, WorldSpec

# Importing the module registers the built-in archetypes.
from repro.worlds import archetypes as _builtin_archetypes  # noqa: F401  (side effect)

__all__ = [
    "DEFAULT_ARCHETYPE",
    "DynamicObstacleSet",
    "HeterogeneityField",
    "KinematicMover",
    "MoverSpec",
    "WorldSpec",
    "archetype_names",
    "build_environment",
    "build_movers",
    "get_archetype",
    "is_registered",
    "register_archetype",
]
