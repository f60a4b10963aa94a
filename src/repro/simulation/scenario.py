"""Declarative mission scenarios.

A :class:`ScenarioSpec` names everything one mission needs — the environment
difficulty knobs, the mission configuration, the runtime design under test
and any injected faults — as one serialisable value.  Benchmarks, examples
and campaigns build specs instead of hand-wiring simulators, which makes a
sweep a plain list of values: easy to grid, to ship across a process pool
(:mod:`repro.simulation.campaign`) and to record next to its results.

Seeding: :meth:`ScenarioSpec.seeded` stamps one integer into both the
environment generator seed and the planner seed, so every mission of a
campaign is independently reproducible from its spec alone.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.environment.generator import EnvironmentConfig
from repro.simulation.faults import FAULT_SET_KEYS, FaultSet
from repro.simulation.fleet import FleetResult, FleetSimulator
from repro.simulation.mission import MissionConfig
from repro.worlds import WorldSpec, archetype_names, build_environment, is_registered

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.recorder import TraceRecorder

DESIGNS = ("roborun", "spatial_oblivious")


def _build_runtime(design: str):
    # Imported lazily: core.runtime pulls in the full governor stack, which
    # worker processes only need when they actually fly a mission.
    from repro.core.baseline import SpatialObliviousRuntime
    from repro.core.runtime import RoboRunRuntime

    return RoboRunRuntime() if design == "roborun" else SpatialObliviousRuntime()


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """One fully specified mission: environment + mission + design + faults.

    Attributes:
        name: human-readable identifier, unique within a campaign.
        design: the runtime under test (``roborun`` / ``spatial_oblivious``).
        environment: difficulty knobs for the generated world.
        mission: the decision-loop configuration.
        faults: the fault set injected into the mission — legacy always-on
            sensor faults plus timed :class:`~repro.simulation.faults.
            FaultSchedule` windows resolved by the fault orchestrator.
        world: which procedural world archetype to fly through (defaults to
            the paper corridor, so pre-worlds specs behave identically).
        n_drones: fleet size; 1 (the default, and what every saved pre-fleet
            spec deserialises to) flies a single drone.
    """

    name: str
    design: str = "roborun"
    environment: EnvironmentConfig = field(default_factory=EnvironmentConfig)
    mission: MissionConfig = field(default_factory=MissionConfig)
    faults: FaultSet = field(default_factory=FaultSet)
    world: WorldSpec = field(default_factory=WorldSpec)
    n_drones: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.design not in DESIGNS:
            raise ValueError(
                f"unknown design {self.design!r}; expected one of {DESIGNS}"
            )
        if not is_registered(self.world.archetype):
            raise ValueError(
                f"unknown world archetype {self.world.archetype!r}; "
                f"registered: {archetype_names()}"
            )
        if self.n_drones < 1:
            raise ValueError("n_drones must be at least 1")

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def seeded(self, seed: int) -> "ScenarioSpec":
        """A copy with the given seed stamped into environment and planner."""
        return replace(
            self,
            environment=replace(self.environment, seed=seed),
            mission=replace(self.mission, rng_seed=seed),
        )

    @property
    def seed(self) -> int:
        """The environment seed (the campaign's per-mission seed)."""
        return self.environment.seed

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def build_simulator(self) -> FleetSimulator:
        """Generate the world and wire a fleet simulator for this scenario.

        The environment is built through the worlds registry: for the
        default :class:`~repro.worlds.spec.WorldSpec` this is the paper
        corridor with a bit-identical obstacle list to the pre-worlds
        generator, plus the heterogeneity field the trace recorder samples.
        A single-drone spec is a fleet of one, which flies and records
        exactly as a :class:`~repro.simulation.mission.MissionSimulator`.
        """
        environment = build_environment(self.environment, self.world)
        return FleetSimulator(
            environment,
            lambda: _build_runtime(self.design),
            self.mission,
            n_drones=self.n_drones,
            faults=self.faults,
        )

    def run(
        self,
        recorder: Optional["TraceRecorder"] = None,
        taps: Sequence = (),
    ) -> FleetResult:
        """Fly the scenario once and return the full mission result.

        Args:
            recorder: optional :class:`~repro.analysis.recorder.
                TraceRecorder` to stream structured per-decision records to;
                a recorder without a spec of its own is stamped with this
                spec so its records carry the scenario's identity.
            taps: additional passive observers (``repro.obs`` taps), passed
                through to the simulator untouched.
        """
        if recorder is not None and recorder.spec is None:
            recorder.spec = self
        return self.build_simulator().run(recorder=recorder, taps=taps)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON-safe, crosses process boundaries)."""
        return {
            "name": self.name,
            "design": self.design,
            "environment": dataclasses.asdict(self.environment),
            "mission": dataclasses.asdict(self.mission),
            "faults": self.faults.to_dict(),
            "world": self.world.to_dict(),
            "n_drones": self.n_drones,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        """Parse the plain-data form of :meth:`to_dict`.

        Raises:
            ValueError: naming the field, when ``data`` is not a dictionary,
                lacks ``name`` or carries an unknown ``environment`` or
                ``mission`` key.
        """
        if not isinstance(data, dict):
            raise ValueError(f"a scenario spec must be a JSON object, got {data!r}")
        if "name" not in data:
            raise ValueError("scenario spec is missing its 'name' field")
        mission_data = checked_config_fields(
            MissionConfig, data.get("mission", {}), "mission"
        )
        band = mission_data.get("flight_band_m")
        if band is not None:
            mission_data["flight_band_m"] = tuple(band)
        environment_data = checked_config_fields(
            EnvironmentConfig, data.get("environment", {}), "environment"
        )
        return cls(
            name=data["name"],
            design=data.get("design", "roborun"),
            environment=EnvironmentConfig(**environment_data),
            mission=MissionConfig(**mission_data),
            faults=FaultSet.from_dict(data.get("faults")),
            # Pre-worlds spec dictionaries have no "world" key; they get the
            # default paper corridor, exactly what they meant.  Pre-fleet
            # dictionaries likewise have no "n_drones": a single drone.
            world=WorldSpec.from_dict(data.get("world")),
            n_drones=int(data.get("n_drones", 1)),
        )

    def to_json(self) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(payload))


def checked_config_fields(config_cls: type, data: Any, field: str) -> Dict[str, Any]:
    """A copy of ``data`` once it is known to hold only ``config_cls`` fields.

    Raises:
        ValueError: naming ``field``, when ``data`` is not a dictionary or
            carries a key that ``config_cls`` does not define.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{field!r} must be a JSON object, got {data!r}")
    known = {f.name for f in dataclasses.fields(config_cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"unknown {field!r} field(s) {unknown}; expected some of {sorted(known)}"
        )
    return dict(data)


def _coerce_world(value: Any) -> WorldSpec:
    """Accept a WorldSpec, an archetype name or a spec dictionary."""
    if isinstance(value, WorldSpec):
        return value
    if isinstance(value, str):
        return WorldSpec(archetype=value)
    if isinstance(value, dict):
        return WorldSpec.from_dict(value)
    raise TypeError(
        f"world entries must be WorldSpec, archetype name or dict, got {value!r}"
    )


def _coerce_fault_set(value: Any) -> FaultSet:
    """Accept a FaultSet, a fault-set dictionary or None (no faults)."""
    if value is None:
        return FaultSet()
    if isinstance(value, FaultSet):
        return value
    if isinstance(value, dict):
        return FaultSet.from_dict(value)
    raise TypeError(
        f"fault entries must be FaultSet, fault-set dict or None, got {value!r}"
    )


def _fault_axis(faults: Any) -> tuple:
    """Normalise ``scenario_grid``'s ``faults`` argument into a sweep axis.

    Returns ``(configs, named)`` where ``configs`` is a list of
    ``(FaultSet, tag)`` pairs and ``named`` says whether the axis was swept
    (tags then appear in spec names).  Two shapes are accepted:

    * a single configuration — ``None``, a :class:`FaultSet`, or a fault-set
      dictionary (keys from ``FAULT_SET_KEYS``): applied to *every* spec,
      names unchanged (the pre-orchestrator behaviour);
    * a named mapping ``{config_name: FaultSet | dict | None}`` — any dict
      whose keys are not fault-set keys: one grid axis entry per name.
      Typo'd fault names inside a config still fail loudly, because every
      inner dict goes through the strict :meth:`FaultSet.from_dict`.
    """
    if faults is None or isinstance(faults, FaultSet):
        return [(_coerce_fault_set(faults), "")], False
    if isinstance(faults, dict):
        if not faults or set(faults) <= set(FAULT_SET_KEYS):
            return [(FaultSet.from_dict(faults), "")], False
        configs = []
        for tag, value in faults.items():
            if not tag or not isinstance(tag, str):
                raise ValueError(
                    f"fault config names must be non-empty strings, got {tag!r}"
                )
            configs.append((_coerce_fault_set(value), tag))
        return configs, True
    raise TypeError(
        "faults must be None, a FaultSet, a fault-set dict or a "
        f"{{name: fault set}} mapping, got {faults!r}"
    )


def _ordinal_tags(labels: Sequence[str]) -> List[str]:
    """Spec-name tags for one grid axis: repeated labels get 0-based ordinals.

    ``["forest", "corridor", "forest"]`` → ``["forest0", "corridor",
    "forest1"]``.  Unique labels are used as-is, so names stay stable when an
    axis has no duplicates.  This is the one naming rule every swept axis
    (worlds, fleet sizes, …) shares; spec names double as trace-file stems,
    so tags must be unique and deterministic.
    """
    counts: Dict[str, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    seen: Dict[str, int] = {}
    tags: List[str] = []
    for label in labels:
        if counts[label] > 1:
            ordinal = seen.get(label, 0)
            seen[label] = ordinal + 1
            tags.append(f"{label}{ordinal}")
        else:
            tags.append(label)
    return tags


def scenario_grid(
    name_prefix: str,
    designs: Sequence[str] = DESIGNS,
    densities: Sequence[float] = (),
    spreads: Sequence[float] = (),
    goal_distances: Sequence[float] = (),
    worlds: Sequence[Any] = (),
    n_drones: Sequence[int] = (),
    base_environment: Optional[EnvironmentConfig] = None,
    mission: Optional[MissionConfig] = None,
    faults: Any = None,
    base_seed: int = 0,
) -> List[ScenarioSpec]:
    """Build the cartesian sweep of designs × worlds × fleets × faults × knobs.

    Empty knob lists fall back to the base environment's value, so a caller
    can sweep any subset of the three paper knobs (density, spread, goal
    distance).  ``worlds`` adds the archetype axis: each entry is a
    :class:`~repro.worlds.spec.WorldSpec`, an archetype name or a spec
    dictionary; an empty list means the default paper corridor, and spec
    names then stay identical to the pre-worlds grid.  ``n_drones`` adds the
    fleet axis the same way: an empty list means single-drone missions with
    unchanged names.  ``faults`` is either one configuration (``None``, a
    :class:`~repro.simulation.faults.FaultSet` or a fault-set dictionary)
    applied to every spec with unchanged names, or a named mapping
    ``{config_name: fault set}`` that becomes a swept axis whose config
    names are tagged into the spec names (``..._nofault_...``,
    ``..._brownout_...``).  Every spec receives a distinct, deterministic
    seed (``base_seed + index``), so the grid is reproducible mission by
    mission.
    """
    base_env = base_environment or EnvironmentConfig()
    density_values = tuple(densities) or (base_env.obstacle_density,)
    spread_values = tuple(spreads) or (base_env.obstacle_spread,)
    goal_values = tuple(goal_distances) or (base_env.goal_distance,)
    world_values = tuple(_coerce_world(w) for w in worlds) or (WorldSpec(),)
    fleet_values = tuple(int(n) for n in n_drones) or (1,)
    # Axis labels appear in spec names only when the axis is swept, so the
    # default grid's names (and trace-file names) are unchanged.  When the
    # same label appears more than once on an axis (e.g. two forest variants
    # with different params, or a repeated fleet size), _ordinal_tags keeps
    # the names — and therefore the per-spec trace files — distinct.
    name_worlds = bool(worlds)
    name_fleets = bool(n_drones)
    tagged_worlds = list(
        zip(world_values, _ordinal_tags([w.archetype for w in world_values]))
    )
    tagged_fleets = list(
        zip(fleet_values, _ordinal_tags([f"fleet{n}" for n in fleet_values]))
    )
    tagged_faults, name_faults = _fault_axis(faults)

    specs: List[ScenarioSpec] = []
    combos = itertools.product(
        designs, tagged_worlds, tagged_fleets, tagged_faults, density_values,
        spread_values, goal_values,
    )
    for index, (
        design, (world, tag), (fleet, fleet_label), (fault_set, fault_label),
        density, spread, goal,
    ) in enumerate(combos):
        environment = replace(
            base_env,
            obstacle_density=density,
            obstacle_spread=spread,
            goal_distance=goal,
        )
        world_tag = f"_{tag}" if name_worlds else ""
        fleet_tag = f"_{fleet_label}" if name_fleets else ""
        fault_tag = f"_{fault_label}" if name_faults else ""
        spec = ScenarioSpec(
            name=(
                f"{name_prefix}_{design}{world_tag}{fleet_tag}{fault_tag}"
                f"_den{density:g}_spr{spread:g}_goal{goal:g}"
            ),
            design=design,
            environment=environment,
            mission=mission or MissionConfig(),
            faults=fault_set,
            world=world,
            n_drones=fleet,
        ).seeded(base_seed + index)
        specs.append(spec)
    return specs
