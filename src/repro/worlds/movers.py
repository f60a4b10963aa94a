"""Dynamic obstacles: kinematic movers stepped once per decision epoch.

Static worlds understate how hard spatial heterogeneity is to exploit: a
governor that banks on yesterday's map is punished hardest when the map
moves.  This module adds *kinematic movers* — box obstacles whose position
is an exact, analytic function of the decision epoch — in two flavours:

* **waypoint loops** (``kind="waypoint_loop"``): the mover traverses a
  closed polyline at constant speed, wrapping from the last waypoint back
  to the first (a patrolling forklift, a security robot);
* **constant-velocity crossers** (``kind="crosser"``): the mover travels
  along a fixed velocity vector, optionally wrapping after ``span_m``
  metres so it re-crosses the corridor forever (cross-street traffic).

Positions are *computed*, not integrated: ``position_at(epoch)`` depends
only on the spec and the epoch number, so mover state is bit-reproducible
across processes and after any number of steps — the same property the
trace byte-determinism suite pins for the static world.

Per decision epoch, :class:`DynamicObstacleSet.step` does two things at the
sense stage boundary (before the cameras capture):

1. updates the ground-truth :class:`~repro.environment.world.World`'s
   dynamic obstacle layer, so depth cameras, collision checks and density
   queries see the mover where it *is*; and
2. re-marks each mover's footprint into the
   :class:`~repro.perception.octomap.OccupancyOctree` (clear old voxels,
   mark new ones), one batch of packed keys per box — planning and
   collision probes see the move without any rebuild.

All distances are metres, speeds metres/second, and ``epoch_s`` is the
simulated seconds of motion one decision epoch represents.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.environment.world import Obstacle, World
from repro.fields import check_number_fields
from repro.geometry.aabb import AABB
from repro.geometry.vec3 import Vec3

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.perception.octomap import OccupancyOctree

#: The supported mover kinds.
MOVER_KINDS = ("waypoint_loop", "crosser")

Point = Tuple[float, float, float]


def _point(field: str, value: Any) -> Point:
    """``value`` as three floats; a ``ValueError`` naming ``field`` otherwise."""
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 3
        or any(isinstance(v, bool) or not isinstance(v, numbers.Real) for v in value)
    ):
        raise ValueError(f"{field} must be three real numbers, got {value!r}")
    return (float(value[0]), float(value[1]), float(value[2]))


@dataclass(frozen=True, slots=True)
class MoverSpec:
    """One dynamic obstacle, as plain JSON-serialisable data.

    Attributes:
        kind: ``"waypoint_loop"`` or ``"crosser"``.
        size: (x, y, z) edge lengths of the mover's box, metres.
        epoch_s: simulated seconds of motion per decision epoch.
        speed_mps: traversal speed along the waypoint loop, m/s
            (``waypoint_loop`` only).
        waypoints: the loop's vertices, at least two, metres; the loop is
            closed (last wraps to first) (``waypoint_loop`` only).
        velocity: (vx, vy, vz) velocity vector, m/s (``crosser`` only).
        origin: the crosser's position at epoch 0, metres (``crosser`` only).
        span_m: wrap distance for crossers — after travelling this far the
            mover restarts from ``origin``; 0 means never wrap.
        name: label used for the obstacle and the octree re-mark ledger.
    """

    kind: str = "crosser"
    size: Point = (2.0, 2.0, 2.0)
    epoch_s: float = 0.5
    speed_mps: float = 2.0
    waypoints: Tuple[Point, ...] = ()
    velocity: Point = (0.0, 0.0, 0.0)
    origin: Point = (0.0, 0.0, 0.0)
    span_m: float = 0.0
    name: str = "mover"

    def __post_init__(self) -> None:
        check_number_fields(self)
        if not isinstance(self.waypoints, (list, tuple)):
            raise ValueError(f"waypoints must be a list of points, got {self.waypoints!r}")
        # Normalise JSON numbers to floats and lists to float tuples so specs
        # compare equal across serialisation round-trips.
        for field in ("epoch_s", "speed_mps", "span_m"):
            object.__setattr__(self, field, float(getattr(self, field)))
        for field in ("size", "velocity", "origin"):
            object.__setattr__(self, field, _point(field, getattr(self, field)))
        object.__setattr__(
            self,
            "waypoints",
            tuple(_point(f"waypoints[{n}]", p) for n, p in enumerate(self.waypoints)),
        )
        if self.kind not in MOVER_KINDS:
            raise ValueError(
                f"unknown mover kind {self.kind!r}; expected one of {MOVER_KINDS}"
            )
        if any(s <= 0 for s in self.size):
            raise ValueError("mover size must be three positive edge lengths")
        if self.epoch_s <= 0:
            raise ValueError("epoch_s must be positive seconds")
        if self.kind == "waypoint_loop":
            if len(self.waypoints) < 2:
                raise ValueError("a waypoint loop needs at least two waypoints")
            if self.speed_mps <= 0:
                raise ValueError("waypoint-loop speed must be positive")
        if self.kind == "crosser":
            if all(v == 0.0 for v in self.velocity):
                raise ValueError("a crosser needs a non-zero velocity")
            if self.span_m < 0:
                raise ValueError("span_m cannot be negative")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "size": list(self.size),
            "epoch_s": self.epoch_s,
            "speed_mps": self.speed_mps,
            "waypoints": [list(p) for p in self.waypoints],
            "velocity": list(self.velocity),
            "origin": list(self.origin),
            "span_m": self.span_m,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MoverSpec":
        return cls(
            kind=data.get("kind", "crosser"),
            size=data.get("size", (2.0, 2.0, 2.0)),
            epoch_s=data.get("epoch_s", 0.5),
            speed_mps=data.get("speed_mps", 2.0),
            waypoints=data.get("waypoints", ()),
            velocity=data.get("velocity", (0.0, 0.0, 0.0)),
            origin=data.get("origin", (0.0, 0.0, 0.0)),
            span_m=data.get("span_m", 0.0),
            name=str(data.get("name", "mover")),
        )


class KinematicMover:
    """A mover spec bound to a name, with exact per-epoch positions."""

    def __init__(self, spec: MoverSpec, name: Optional[str] = None) -> None:
        self.spec = spec
        self.name = name or spec.name
        if spec.kind == "waypoint_loop":
            points = [Vec3(*p) for p in spec.waypoints]
            # Closed loop: append the wrap segment back to the first vertex.
            self._loop = points + [points[0]]
            self._segment_lengths = [
                a.distance_to(b) for a, b in zip(self._loop, self._loop[1:])
            ]
            self._perimeter = sum(self._segment_lengths)
            if self._perimeter <= 0:
                raise ValueError("waypoint loop has zero perimeter")

    def position_at(self, epoch: int) -> Vec3:
        """The mover's centre at the given decision epoch (exact, analytic)."""
        if epoch < 0:
            raise ValueError("epoch cannot be negative")
        spec = self.spec
        t = spec.epoch_s * epoch
        if spec.kind == "waypoint_loop":
            travelled = math.fmod(spec.speed_mps * t, self._perimeter)
            for a, b, length in zip(self._loop, self._loop[1:], self._segment_lengths):
                if length > 0.0 and travelled <= length:
                    return a.lerp(b, travelled / length)
                travelled -= length
            # Accumulated rounding can leave a sliver past the last segment;
            # the loop is closed, so that sliver sits at the first vertex.
            return self._loop[0]
        velocity = Vec3(*spec.velocity)
        if spec.span_m > 0:
            speed = velocity.norm()
            travelled = math.fmod(speed * t, spec.span_m)
            return Vec3(*spec.origin) + velocity * (travelled / speed)
        return Vec3(*spec.origin) + velocity * t

    def box_at(self, epoch: int) -> AABB:
        """The mover's axis-aligned box at the given epoch."""
        return AABB.from_center(self.position_at(epoch), Vec3(*self.spec.size))


class DynamicObstacleSet:
    """All of one environment's movers, stepped together once per epoch.

    Attributes:
        movers: the kinematic movers, in spec order.
        world: the ground-truth world whose dynamic layer is updated.
        epoch: the most recently applied epoch (``None`` before any step).
    """

    def __init__(self, movers: Sequence[KinematicMover], world: World) -> None:
        names = [m.name for m in movers]
        if len(set(names)) != len(names):
            raise ValueError("mover names within an environment must be unique")
        self.movers: List[KinematicMover] = list(movers)
        self.world = world
        self.epoch: Optional[int] = None
        # Packed octree voxel keys currently marked, per octree then per
        # mover, for exact un-marking.  Keyed by id(octree) because a fleet steps one
        # mover set against N octomaps (one per drone) and each must track
        # its own footprints.  The octrees outlive this set (both belong to
        # the mission), so id reuse is not a concern in practice.
        self._marked: Dict[int, Dict[str, "np.ndarray"]] = {}
        self.last_step_stats: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.movers)

    def step(
        self,
        epoch: int,
        octree: Optional["OccupancyOctree"] = None,
        epoch_overrides: Optional[Dict[str, int]] = None,
    ) -> Dict[str, int]:
        """Advance every mover to ``epoch`` and re-mark maps accordingly.

        Updates the world's dynamic obstacle layer (ground truth) and, when
        an octree is given, clears each mover's previously marked voxels and
        marks its new footprint, one batch of keys per mover.

        Args:
            epoch: the decision epoch every mover advances to.
            octree: the occupancy map to re-mark, if any.
            epoch_overrides: per-mover epoch pins (``{mover_name: epoch}``) —
                a pinned mover is positioned at its pinned epoch instead of
                ``epoch``.  This is how a stuck-mover fault freezes one
                obstacle mid-route while the rest keep moving.

        Returns:
            Step statistics: ``movers`` (total), ``remarked`` (movers whose
            octree footprint was refreshed this step), ``voxels_marked`` and
            ``voxels_cleared``.
        """
        if epoch_overrides:
            boxes = [
                mover.box_at(epoch_overrides.get(mover.name, epoch))
                for mover in self.movers
            ]
        else:
            boxes = [mover.box_at(epoch) for mover in self.movers]
        self.world.set_dynamic_obstacles(
            [Obstacle(box, name=mover.name) for mover, box in zip(self.movers, boxes)]
        )
        stats = {
            "movers": len(self.movers),
            "remarked": 0,
            "voxels_marked": 0,
            "voxels_cleared": 0,
        }
        if octree is not None:
            marked = self._marked.setdefault(id(octree), {})
            # Two passes: clear every mover's old footprint before marking any
            # new one.  Interleaving would let a later mover's clear erase a
            # voxel an earlier mover just marked where their paths cross.
            for mover in self.movers:
                previous = marked.get(mover.name)
                if previous is not None and previous.size:
                    stats["voxels_cleared"] += octree.clear_cells(previous)
            for mover, box in zip(self.movers, boxes):
                keys = octree.mark_box(box)
                marked[mover.name] = keys
                stats["voxels_marked"] += len(keys)
                stats["remarked"] += 1
        self.epoch = epoch
        self.last_step_stats = stats
        return stats


def build_movers(specs: Sequence[MoverSpec]) -> List[KinematicMover]:
    """Instantiate movers from specs, suffixing names to guarantee uniqueness."""
    return [
        KinematicMover(spec, name=f"{spec.name}_{index}")
        for index, spec in enumerate(specs)
    ]
