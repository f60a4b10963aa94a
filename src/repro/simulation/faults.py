"""The fault library: registered fault classes + the sets scenarios inject.

The paper's core claim is that a compute-aware governor degrades more
gracefully than a static baseline when the environment or the platform
misbehaves.  This module is the robustness axis of that claim: an *open
registry* of fault classes (mirroring :func:`repro.worlds.register_archetype`)
whose instances act at their natural pipeline layer:

* :class:`SensorDropout` / :class:`CameraDegradation` — the sense boundary:
  lost frames and reduced capture resolution (the original two faults).
* :class:`CommsDropout` / :class:`CommsLatencySpike` — the pipeline hops:
  modelled messages between stages dropped (and retransmitted) or delayed,
  acting on each decision's ``comm_*`` stage latencies.
* :class:`PowerBrownout` — the compute platform: the per-decision time
  budget fed to the governor/solver shrinks (DVFS under a sagging supply).
* :class:`ThermalThrottle` — the compute platform: the charged compute
  latencies ramp up the longer the fault is active (a heat-soaked SoC).
* :class:`StuckMover` — the world: a dynamic obstacle freezes mid-route.

Timing: the legacy :class:`FaultSet` fields (``sensor_dropout`` /
``camera_degradation``) keep their original always-on semantics, while
:class:`FaultSchedule` entries give any registered fault a timed window —
activate at decision ``k``, clear at decision ``m``, optionally jittered by
a seeded offset.  The schedule is *data*; the engine that resolves jitter
and answers per-decision queries is
:class:`repro.simulation.orchestrator.FaultOrchestrator`.

Every fault class serialises to a plain dictionary so that
:class:`~repro.simulation.scenario.ScenarioSpec` round-trips through JSON
and crosses process boundaries in a campaign pool; unknown fault names and
unknown parameters raise a :class:`ValueError` naming what *is* registered,
so a typo'd grid JSON fails loudly instead of running fault-free.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.fields import check_number_fields
from repro.middleware.latency import COMM_STAGES

__all__ = [
    "CameraDegradation",
    "CommsDropout",
    "CommsLatencySpike",
    "Fault",
    "FaultSchedule",
    "FaultSet",
    "PowerBrownout",
    "SensorDropout",
    "StuckMover",
    "ThermalThrottle",
    "fault_names",
    "get_fault",
    "is_registered_fault",
    "register_fault",
]


# ----------------------------------------------------------------------
# The registry (mirrors repro.worlds.registry.register_archetype)
# ----------------------------------------------------------------------
_FAULTS: Dict[str, Type["Fault"]] = {}


def register_fault(name: str) -> Callable[[Type["Fault"]], Type["Fault"]]:
    """Decorator registering a fault class under ``name``.

    The class gains a ``fault_name`` attribute (the registry key used in
    serialised :class:`FaultSchedule` entries) and becomes sweepable by name
    from grid files.

    Raises:
        ValueError: when the name is empty or already registered.
    """
    if not name:
        raise ValueError("fault name must be non-empty")

    def decorator(fault_cls: Type["Fault"]) -> Type["Fault"]:
        if name in _FAULTS:
            raise ValueError(f"fault {name!r} is already registered")
        fault_cls.fault_name = name
        _FAULTS[name] = fault_cls
        return fault_cls

    return decorator


def fault_names() -> List[str]:
    """Registered fault names, sorted."""
    return sorted(_FAULTS)


def is_registered_fault(name: str) -> bool:
    """True when a fault class exists under ``name``."""
    return name in _FAULTS


def get_fault(name: str) -> Type["Fault"]:
    """Look a fault class up by name.

    Raises:
        KeyError: with the known names, when the fault is unknown.
    """
    try:
        return _FAULTS[name]
    except KeyError:
        raise KeyError(
            f"unknown fault {name!r}; registered: {fault_names()}"
        ) from None


def _check_keys(
    data: Any, allowed: Tuple[str, ...], context: str, required: Tuple[str, ...] = ()
) -> None:
    """Reject a non-dictionary, unknown or missing keys, naming ``context``."""
    if not isinstance(data, dict):
        raise ValueError(f"{context!r} must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown {context} key(s) {unknown}; expected a subset of "
            f"{sorted(allowed)}"
        )
    missing = sorted(set(required) - set(data))
    if missing:
        raise ValueError(f"{context!r} is missing required key(s) {missing}")


def _check_fields(value: Any) -> None:
    """Reject a numeric field of the wrong type, then store reals as floats.

    A JSON ``2`` is a valid real; storing it as ``2.0`` keeps ``to_dict``,
    and every trace that embeds the spec, the same whether the value came
    from JSON or from Python.  A NaN or infinite real is rejected too.
    """
    check_number_fields(value)
    for field in dataclasses.fields(value):
        if field.type == "float":
            real = float(getattr(value, field.name))
            if not math.isfinite(real):
                raise ValueError(f"{field.name} must be finite, got {real!r}")
            object.__setattr__(value, field.name, real)


# ----------------------------------------------------------------------
# The fault interface
# ----------------------------------------------------------------------
class Fault:
    """Base class / protocol of every registered fault.

    A fault is a frozen, JSON-serialisable value plus a set of *effect
    hooks* the :class:`~repro.simulation.orchestrator.FaultOrchestrator`
    consults each decision while the fault's window is active.  The base
    class implements every hook as a neutral no-op; subclasses override the
    hooks of the layer they act at, so a new fault class only has to say
    what it changes.  Hook arguments: ``index`` is the absolute decision
    index, ``active_for`` the number of decisions since the fault's window
    opened (0 on the activation decision).
    """

    #: Registry key, stamped by :func:`register_fault`.
    fault_name: str = ""

    # -- effect hooks (neutral defaults) --------------------------------
    def sensor_dropped(self, index: int, active_for: int) -> bool:
        """True when this decision's sensor frame is lost."""
        return False

    def camera_resolution(self, index: int, active_for: int) -> Optional[Tuple[int, int]]:
        """(width, height) the rig must capture at, or ``None`` for nominal."""
        return None

    def budget_scale(self, index: int, active_for: int) -> float:
        """Multiplier on the decision time budget fed to the governor/solver."""
        return 1.0

    def compute_factor(self, index: int, active_for: int) -> float:
        """Multiplier on every charged compute-stage latency."""
        return 1.0

    def comm_seconds(
        self, stage: str, seconds: float, index: int, active_for: int
    ) -> float:
        """The adjusted latency of one ``comm_*`` hop (seconds in, seconds out)."""
        return seconds

    def freezes_mover(self, mover_name: str) -> bool:
        """True when this fault pins the named dynamic obstacle in place."""
        return False

    # -- serialisation ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:  # pragma: no cover - subclasses override
        raise NotImplementedError

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Fault":  # pragma: no cover
        raise NotImplementedError


# ----------------------------------------------------------------------
# Sense-boundary faults (the original two, now registered)
# ----------------------------------------------------------------------
@register_fault("sensor_dropout")
@dataclass(frozen=True, slots=True)
class SensorDropout(Fault):
    """Periodic total loss of a sensor frame.

    Attributes:
        every_n: one decision out of every ``every_n`` loses its frame (the
            last of each group, so the mission always starts on a good frame).
        start_decision: decisions before this index never drop.
    """

    every_n: int
    start_decision: int = 0

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.every_n < 2:
            raise ValueError("dropout every_n must be at least 2")
        if self.start_decision < 0:
            raise ValueError("start_decision cannot be negative")

    def drops(self, decision_index: int) -> bool:
        """True when the given decision's sensor frame is lost."""
        if decision_index < self.start_decision:
            return False
        return (decision_index - self.start_decision) % self.every_n == self.every_n - 1

    def sensor_dropped(self, index: int, active_for: int) -> bool:
        return self.drops(index)

    def to_dict(self) -> Dict[str, Any]:
        return {"every_n": self.every_n, "start_decision": self.start_decision}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SensorDropout":
        _check_keys(data, ("every_n", "start_decision"), "sensor_dropout", ("every_n",))
        return cls(
            every_n=data["every_n"],
            start_decision=data.get("start_decision", 0),
        )


@register_fault("camera_degradation")
@dataclass(frozen=True, slots=True)
class CameraDegradation(Fault):
    """Permanent resolution loss from a given decision onward.

    Attributes:
        width / height: per-camera capture resolution after the fault
            strikes, pixels.
        after_decision: first decision index captured at the reduced
            resolution.
    """

    width: int
    height: int
    after_decision: int = 0

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.width < 1 or self.height < 1:
            raise ValueError("degraded resolution must be at least 1x1")
        if self.after_decision < 0:
            raise ValueError("after_decision cannot be negative")

    def active(self, decision_index: int) -> bool:
        """True when captures at this decision use the degraded resolution."""
        return decision_index >= self.after_decision

    def camera_resolution(self, index: int, active_for: int) -> Optional[Tuple[int, int]]:
        return (self.width, self.height) if self.active(index) else None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "width": self.width,
            "height": self.height,
            "after_decision": self.after_decision,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CameraDegradation":
        keys = ("width", "height", "after_decision")
        _check_keys(data, keys, "camera_degradation", keys[:2])
        return cls(
            width=data["width"],
            height=data["height"],
            after_decision=data.get("after_decision", 0),
        )


# ----------------------------------------------------------------------
# Pipeline-hop faults (the comm_* stage latencies)
# ----------------------------------------------------------------------
#: Valid hop selectors for the comm faults: one canonical stage, or all four.
COMM_HOPS: Tuple[str, ...] = tuple(COMM_STAGES) + ("all",)


@register_fault("comms_dropout")
@dataclass(frozen=True, slots=True)
class CommsDropout(Fault):
    """A pipeline hop loses its message and pays a retransmission.

    The decision itself always completes — the modelled transport
    retransmits after a timeout, as a lossy ROS transport would — so the
    fault shows up as extra latency on the affected ``comm_*`` hop(s),
    inflating the decision's end-to-end latency (and therefore the flight
    interval and deadline-miss accounting).

    Attributes:
        hop: the comm stage hit (``"comm_point_cloud"``, ``"comm_octomap"``,
            ``"comm_planning"``, ``"comm_control"``) or ``"all"``.
        every_n: one decision out of every ``every_n`` active decisions
            loses the hop's message (1 = every active decision, starting at
            activation).
        retransmit_s: the retransmission timeout added to the hop's latency
            when the message is lost, seconds.
    """

    hop: str = "all"
    every_n: int = 1
    retransmit_s: float = 0.05

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.hop not in COMM_HOPS:
            raise ValueError(
                f"unknown comm hop {self.hop!r}; expected one of {list(COMM_HOPS)}"
            )
        if self.every_n < 1:
            raise ValueError("comms dropout every_n must be at least 1")
        if self.retransmit_s <= 0:
            raise ValueError("retransmit_s must be positive seconds")

    def _hits(self, stage: str, active_for: int) -> bool:
        if self.hop != "all" and stage != self.hop:
            return False
        return active_for % self.every_n == 0

    def comm_seconds(
        self, stage: str, seconds: float, index: int, active_for: int
    ) -> float:
        if self._hits(stage, active_for):
            return seconds + self.retransmit_s
        return seconds

    def to_dict(self) -> Dict[str, Any]:
        return {
            "hop": self.hop,
            "every_n": self.every_n,
            "retransmit_s": self.retransmit_s,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CommsDropout":
        _check_keys(data, ("hop", "every_n", "retransmit_s"), "comms_dropout")
        return cls(
            hop=data.get("hop", "all"),
            every_n=data.get("every_n", 1),
            retransmit_s=data.get("retransmit_s", 0.05),
        )


@register_fault("comms_latency_spike")
@dataclass(frozen=True, slots=True)
class CommsLatencySpike(Fault):
    """A congested transport multiplies a hop's serialisation latency.

    Attributes:
        factor: multiplier applied to the hop's ``comm_*`` latency while the
            fault is active; must exceed 1 (1 would be a no-op).
        hop: the comm stage hit, or ``"all"`` (see :data:`COMM_HOPS`).
    """

    factor: float = 4.0
    hop: str = "all"

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.factor <= 1.0:
            raise ValueError("latency spike factor must exceed 1")
        if self.hop not in COMM_HOPS:
            raise ValueError(
                f"unknown comm hop {self.hop!r}; expected one of {list(COMM_HOPS)}"
            )

    def comm_seconds(
        self, stage: str, seconds: float, index: int, active_for: int
    ) -> float:
        if self.hop == "all" or stage == self.hop:
            return seconds * self.factor
        return seconds

    def to_dict(self) -> Dict[str, Any]:
        return {"factor": self.factor, "hop": self.hop}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CommsLatencySpike":
        _check_keys(data, ("factor", "hop"), "comms_latency_spike")
        return cls(factor=data.get("factor", 4.0), hop=data.get("hop", "all"))


# ----------------------------------------------------------------------
# Compute-platform faults (budget and latency model)
# ----------------------------------------------------------------------
@register_fault("power_brownout")
@dataclass(frozen=True, slots=True)
class PowerBrownout(Fault):
    """A sagging supply shrinks the per-decision compute budget.

    The platform's power manager clamps the deadline it grants the decision
    pipeline; the governor re-solves its knobs against the smaller budget
    (coarser maps, different velocity cap) while the static baseline keeps
    its design-time knobs and simply violates the shrunken deadline — the
    graceful-degradation differential the fault-robustness table measures.

    Attributes:
        scale: multiplier on the decision time budget fed to the
            governor/solver, dimensionless in (0, 1).
    """

    scale: float = 0.5

    def __post_init__(self) -> None:
        _check_fields(self)
        if not 0.0 < self.scale < 1.0:
            raise ValueError("brownout scale must lie strictly between 0 and 1")

    def budget_scale(self, index: int, active_for: int) -> float:
        return self.scale

    def to_dict(self) -> Dict[str, Any]:
        return {"scale": self.scale}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PowerBrownout":
        _check_keys(data, ("scale",), "power_brownout")
        return cls(scale=data.get("scale", 0.5))


@register_fault("thermal_throttle")
@dataclass(frozen=True, slots=True)
class ThermalThrottle(Fault):
    """A heat-soaked SoC: charged compute latencies ramp up over time.

    Every compute stage's charged latency is multiplied by
    ``min(1 + ramp_per_decision * active_for, max_factor)`` — the factor
    grows the longer the window stays open, capped at the thermal limit.

    Attributes:
        ramp_per_decision: slowdown added per active decision
            (dimensionless per decision; 0.05 = +5%/decision).
        max_factor: the throttle ceiling (>= 1).
    """

    ramp_per_decision: float = 0.05
    max_factor: float = 2.0

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.ramp_per_decision <= 0:
            raise ValueError("thermal ramp_per_decision must be positive")
        if self.max_factor < 1.0:
            raise ValueError("thermal max_factor must be at least 1")

    def compute_factor(self, index: int, active_for: int) -> float:
        return min(1.0 + self.ramp_per_decision * active_for, self.max_factor)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ramp_per_decision": self.ramp_per_decision,
            "max_factor": self.max_factor,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ThermalThrottle":
        _check_keys(data, ("ramp_per_decision", "max_factor"), "thermal_throttle")
        return cls(
            ramp_per_decision=data.get("ramp_per_decision", 0.05),
            max_factor=data.get("max_factor", 2.0),
        )


# ----------------------------------------------------------------------
# World faults (dynamic obstacles)
# ----------------------------------------------------------------------
@register_fault("stuck_mover")
@dataclass(frozen=True, slots=True)
class StuckMover(Fault):
    """A dynamic obstacle freezes mid-route (a broken-down forklift).

    While the fault's window is active, matching movers hold the position
    they had at the activation decision instead of following their analytic
    route; when the window clears they resume their exact kinematic
    schedule (``position_at(epoch)``), as if towed back on course.

    Attributes:
        mover: which movers freeze — ``"*"`` for all, otherwise an exact
            mover name or a spec-level name, which matches its instances
            (:func:`~repro.worlds.movers.build_movers` suffixes each name
            with ``_<index>``).
    """

    mover: str = "*"

    def __post_init__(self) -> None:
        _check_fields(self)
        if not isinstance(self.mover, str) or not self.mover:
            raise ValueError(
                "stuck mover pattern 'mover' must be a non-empty string "
                f"('*' for all), got {self.mover!r}"
            )

    def freezes_mover(self, mover_name: str) -> bool:
        if self.mover == "*" or mover_name == self.mover:
            return True
        stem, _, index = mover_name.rpartition("_")
        return stem == self.mover and index.isascii() and index.isdigit()

    def to_dict(self) -> Dict[str, Any]:
        return {"mover": self.mover}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StuckMover":
        _check_keys(data, ("mover",), "stuck_mover")
        return cls(mover=data.get("mover", "*"))


# ----------------------------------------------------------------------
# Timed windows
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class FaultSchedule:
    """One fault bound to a timed activation/recovery window.

    The window is half-open over decision indices: the fault is active from
    ``activate_at`` (inclusive) to ``clear_at`` (exclusive); ``clear_at
    = None`` means the fault never recovers.  ``jitter`` shifts both bounds
    by independent seeded offsets drawn from ``[-jitter, +jitter]`` when the
    schedule is resolved against the mission seed, so a campaign can sweep
    *when* a fault strikes without hand-placing every window — and resolve
    identically in every worker process.

    Attributes:
        fault: a registered fault instance.
        activate_at: first active decision index (>= 0).
        clear_at: first decision index after recovery, or ``None`` for no
            recovery; must exceed ``activate_at``.
        jitter: maximum seeded shift of each bound, decisions (>= 0).
    """

    fault: Fault
    activate_at: int = 0
    clear_at: Optional[int] = None
    jitter: int = 0

    def __post_init__(self) -> None:
        _check_fields(self)
        name = getattr(type(self.fault), "fault_name", "")
        if not name or not is_registered_fault(name):
            raise ValueError(
                f"fault {type(self.fault).__name__} is not registered; "
                f"registered: {fault_names()}"
            )
        if self.activate_at < 0:
            raise ValueError("activate_at cannot be negative")
        if self.clear_at is not None and self.clear_at <= self.activate_at:
            raise ValueError("clear_at must exceed activate_at")
        if self.jitter < 0:
            raise ValueError("jitter cannot be negative")

    def resolve(self, seed: int, ordinal: int) -> Tuple[int, Optional[int]]:
        """The (start, end) window for one mission, jitter applied.

        Deterministic in ``(seed, ordinal, fault name)``: the RNG is seeded
        from a string, which Python hashes with SHA-512 regardless of
        ``PYTHONHASHSEED``, so serial and multiprocessing campaign runs
        resolve identical windows.
        """
        if self.jitter == 0:
            return self.activate_at, self.clear_at
        rng = random.Random(
            f"fault-window:{seed}:{ordinal}:{type(self.fault).fault_name}"
        )
        start = max(0, self.activate_at + rng.randint(-self.jitter, self.jitter))
        if self.clear_at is None:
            return start, None
        end = max(start + 1, self.clear_at + rng.randint(-self.jitter, self.jitter))
        return start, end

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fault": type(self.fault).fault_name,
            "params": self.fault.to_dict(),
            "activate_at": self.activate_at,
            "clear_at": self.clear_at,
            "jitter": self.jitter,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSchedule":
        _check_keys(
            data, ("fault", "params", "activate_at", "clear_at", "jitter"), "schedule"
        )
        name = data.get("fault")
        if not name or not is_registered_fault(str(name)):
            raise ValueError(
                f"unknown fault {name!r} in schedule; registered: {fault_names()}"
            )
        params = data.get("params")
        if params is None:
            params = {}
        if not isinstance(params, dict):
            raise ValueError(
                f"schedule 'params' of {name!r} must be a JSON object, got {params!r}"
            )
        return cls(
            fault=get_fault(str(name)).from_dict(params),
            activate_at=data.get("activate_at", 0),
            clear_at=data.get("clear_at"),
            jitter=data.get("jitter", 0),
        )


# ----------------------------------------------------------------------
# The per-scenario fault set
# ----------------------------------------------------------------------
#: FaultSet's serialised vocabulary: the two legacy always-on fields plus
#: the timed schedule.  Anything else in a "faults" dictionary is a typo.
FAULT_SET_KEYS: Tuple[str, ...] = ("sensor_dropout", "camera_degradation", "schedule")


@dataclass(frozen=True, slots=True)
class FaultSet:
    """The faults injected into one scenario.

    The two legacy fields keep their original always-on semantics (their
    own ``start_decision`` / ``after_decision`` knobs aside); ``schedule``
    holds any registered fault inside a timed
    :class:`FaultSchedule` window.  An empty set is the no-fault default
    and serialises exactly as it did before the schedule existed, which is
    what keeps no-fault campaign traces byte-identical across versions.
    """

    sensor_dropout: Optional[SensorDropout] = None
    camera_degradation: Optional[CameraDegradation] = None
    schedule: Tuple[FaultSchedule, ...] = ()

    def __post_init__(self) -> None:
        # Normalise JSON lists to tuples so sets compare equal across
        # serialisation round-trips.
        object.__setattr__(self, "schedule", tuple(self.schedule))

    def active(self) -> bool:
        """True when at least one fault is configured."""
        return (
            self.sensor_dropout is not None
            or self.camera_degradation is not None
            or bool(self.schedule)
        )

    def to_dict(self) -> Dict[str, Any]:
        # The "schedule" key is omitted when empty so that pre-schedule
        # fault sets (including the no-fault default stamped into every
        # trace's spec) serialise byte-identically to older versions.
        data: Dict[str, Any] = {
            "sensor_dropout": self.sensor_dropout.to_dict() if self.sensor_dropout else None,
            "camera_degradation": (
                self.camera_degradation.to_dict() if self.camera_degradation else None
            ),
        }
        if self.schedule:
            data["schedule"] = [entry.to_dict() for entry in self.schedule]
        return data

    @classmethod
    def from_dict(cls, data: Optional[Dict[str, Any]]) -> "FaultSet":
        if data is None:
            return cls()
        if not isinstance(data, dict):
            raise ValueError(f"'faults' must be a JSON object, got {data!r}")
        unknown = sorted(set(data) - set(FAULT_SET_KEYS))
        if unknown:
            raise ValueError(
                f"unknown fault name(s) {unknown} in fault set; registered "
                f"faults: {fault_names()} (legacy keys "
                f"{list(FAULT_SET_KEYS[:2])} plus 'schedule' entries)"
            )
        # Only null means "absent": a 0, "" or [] in a fault field is an error.
        dropout = data.get("sensor_dropout")
        degradation = data.get("camera_degradation")
        schedule = data.get("schedule")
        if schedule is None:
            schedule = ()
        if not isinstance(schedule, (list, tuple)):
            raise ValueError(
                f"fault set 'schedule' must be a list of windows, got {schedule!r}"
            )
        return cls(
            sensor_dropout=None if dropout is None else SensorDropout.from_dict(dropout),
            camera_degradation=(
                None if degradation is None else CameraDegradation.from_dict(degradation)
            ),
            schedule=tuple(FaultSchedule.from_dict(entry) for entry in schedule),
        )
