"""The world specification: which archetype, which knobs, which movers.

A :class:`WorldSpec` is the declarative half of the worlds subsystem: plain
JSON-serialisable data naming a procedural archetype (``paper_corridor``,
``urban_canyon``, ``forest``, ``warehouse``, ``disaster_rubble``, or any
registered extension), archetype-specific parameters, an optional seed
override and the dynamic obstacles to animate.  The imperative half — the
registry that turns a spec into a generated environment — lives in
:mod:`repro.worlds.registry`.

Seeding: the shared difficulty knobs (obstacle density / spread / goal
distance) and the campaign's per-mission seed stay on
:class:`~repro.environment.generator.EnvironmentConfig`, exactly as before;
``WorldSpec.seed`` is ``None`` by default, meaning *inherit the environment
config's seed* so :meth:`~repro.simulation.scenario.ScenarioSpec.seeded`
keeps stamping one integer per mission.  Set it to pin the world layout
independently of the rest of the mission's randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.fields import check_number_fields
from repro.worlds.movers import MoverSpec

#: The archetype every spec (and every pre-worlds scenario) defaults to.
DEFAULT_ARCHETYPE = "paper_corridor"


@dataclass(frozen=True, slots=True)
class WorldSpec:
    """One procedural world, as plain serialisable data.

    Attributes:
        archetype: registered archetype name (see
            :func:`repro.worlds.registry.archetype_names`).
        seed: world-layout seed override; ``None`` inherits the
            :class:`~repro.environment.generator.EnvironmentConfig` seed.
        params: archetype-specific knobs (name → number; units documented
            per archetype in ``docs/worlds.md``).
        movers: dynamic obstacles animated through the world.
    """

    archetype: str = DEFAULT_ARCHETYPE
    seed: Optional[int] = None
    params: Dict[str, float] = field(default_factory=dict)
    movers: Tuple[MoverSpec, ...] = ()

    def __post_init__(self) -> None:
        check_number_fields(self)
        if not isinstance(self.archetype, str) or not self.archetype:
            raise ValueError(
                f"world.archetype must be a non-empty string, got {self.archetype!r}"
            )
        if not isinstance(self.params, dict):
            raise ValueError(f"world.params must be a JSON object, got {self.params!r}")
        if not isinstance(self.movers, (list, tuple)):
            raise ValueError(f"world.movers must be a list, got {self.movers!r}")
        for key, value in self.params.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(
                    f"world param {key!r} must be a number, got {value!r}"
                )
        object.__setattr__(self, "params", {k: float(v) for k, v in self.params.items()})
        object.__setattr__(
            self,
            "movers",
            tuple(
                m if isinstance(m, MoverSpec) else MoverSpec.from_dict(dict(m))
                for m in self.movers
            ),
        )

    def __hash__(self) -> int:
        # params is a dict (unhashable); hash the canonical item tuple instead.
        return hash(
            (self.archetype, self.seed, tuple(sorted(self.params.items())), self.movers)
        )

    def param(self, name: str, default: float) -> float:
        """One archetype knob with a default (the generators' accessor)."""
        return float(self.params.get(name, default))

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "archetype": self.archetype,
            "seed": self.seed,
            "params": dict(self.params),
            "movers": [m.to_dict() for m in self.movers],
        }

    @classmethod
    def from_dict(cls, data: Optional[Dict[str, Any]]) -> "WorldSpec":
        """Build a spec from plain data; ``None``/``{}`` give the default world."""
        if not data:
            return cls()
        return cls(
            archetype=data.get("archetype", DEFAULT_ARCHETYPE),
            seed=data.get("seed"),
            params=data.get("params") or {},
            movers=data.get("movers") or (),
        )
