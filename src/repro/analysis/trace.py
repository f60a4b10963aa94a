"""Structured mission trace records.

The paper's figures are all derived quantities: latency vs. deadline
(Figure 2), governor response to congestion (Figure 5), mission-level
speedups (Figure 7) and sensitivity to the environment knobs (Figure 8).
Instead of letting every benchmark re-derive them from live objects, a
mission emits a stream of plain records — one :class:`DecisionRecord` per
pipeline decision plus one :class:`MissionRecord` at the end — and the
aggregation layer (:mod:`repro.analysis.figures`) folds streams of records
into the figures.  Records are flat, JSON-serialisable values so they can be
streamed to disk (:mod:`repro.analysis.io`), shipped across campaign worker
processes and replayed long after the mission objects are gone.

Serialisation is canonical: :func:`record_to_line` always produces the same
bytes for the same record (sorted keys, minimal separators), which is what
makes trace files byte-identical between serial and multiprocessing campaign
runs of the same specs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.middleware.latency import compute_seconds

#: Discriminator values stored in each JSONL line's ``"kind"`` field.
KIND_DECISION = "decision"
KIND_MISSION = "mission"

#: Schema version stamped into every line; bump when a field changes meaning.
TRACE_SCHEMA_VERSION = 1

#: The metrics a mission line without an error must carry: the Figure 7
#: quantities, which the report's folds read (each other fold reads a subset).
FOLDED_METRICS = ("mean_velocity_mps", "mission_time_s", "energy_kj", "mean_cpu_utilization")

#: The environment difficulty knobs of the Figure 8 sweep.
FIG8_KNOBS: Tuple[str, ...] = (
    "obstacle_density",
    "obstacle_spread",
    "goal_distance",
)


def _finite(name: str, value: Any, kind: str = KIND_DECISION) -> float:
    """A field of a ``kind`` line as a float; NaN and ±Infinity are rejected."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{kind} field {name!r} is {number}, not a finite number")
    return number


def _text(name: str, value: Any, kind: str = KIND_DECISION) -> str:
    """A field of a ``kind`` line that must hold a JSON string."""
    if not isinstance(value, str):
        raise ValueError(f"{kind} field {name!r} must be a string, got {value!r:.80}")
    return value


def _nested(name: str, value: Any, wanted: str) -> ValueError:
    """The error for a nested mission field that does not hold ``wanted``."""
    return ValueError(f"mission field {name!r} must be {wanted}, got {value!r:.80}")


def _object(name: str, value: Any) -> Dict[str, Any]:
    """A mission field that must hold a JSON object; a falsy value reads as {}."""
    if not value:
        return {}
    if not isinstance(value, dict):
        raise _nested(name, value, "an object")
    return value


def _check_folded_fields(data: Dict[str, Any]) -> None:
    """Check the nested mission fields the report's folds read.

    These are what :class:`MissionRecord`'s ``archetype``, ``fault_label``,
    ``n_drones``, ``completion_rate`` and ``knob`` read; each bad value
    raises a ``ValueError`` naming its field.
    """
    spec = _object("spec", data.get("spec"))
    world = _object("spec.world", spec.get("world"))
    if world.get("archetype"):
        _text("spec.world.archetype", world["archetype"], KIND_MISSION)
    faults = _object("spec.faults", spec.get("faults"))
    schedule = faults.get("schedule") or []
    if not isinstance(schedule, list):
        raise _nested("spec.faults.schedule", schedule, "a list")
    for i, entry in enumerate(schedule):
        fault = _object(f"spec.faults.schedule[{i}]", entry).get("fault")
        if fault:
            _text(f"spec.faults.schedule[{i}].fault", fault, KIND_MISSION)
    fleet = _object("fleet", data.get("fleet"))
    for name, fields in (("spec", spec), ("fleet", fleet)):
        count = fields.get("n_drones", 1)
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise _nested(f"{name}.n_drones", count, "an integer >= 1")
    environment = _object("environment", data.get("environment"))
    checked = [("fleet.completion_rate", fleet.get("completion_rate", 0.0))]
    # A knob that is null or absent reads as unknown.
    checked += [
        (f"environment.{k}", environment[k])
        for k in FIG8_KNOBS
        if environment.get(k) is not None
    ]
    for name, value in checked:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _nested(name, value, "a number")
        _finite(name, value, KIND_MISSION)


@dataclass(frozen=True, slots=True)
class DecisionRecord:
    """Everything one pipeline decision saw and decided, as plain data.

    One record is emitted per decision cascade (sense → profile → governor →
    perception → planning → flight).  All times are simulated seconds, all
    distances metres, all volumes cubic metres, all energies joules.

    Attributes:
        spec_name: the owning scenario's name ("" for ad-hoc missions).
        design: runtime under test ("roborun" / "spatial_oblivious").
        index: decision index within the mission, starting at 0.
        timestamp: simulated time when the decision completed, seconds.
        position: drone position (x, y, z) at decision time, metres.
        zone: congestion zone name at the drone's position ("A"/"B"/"C").
        speed: drone speed entering the decision, m/s.
        velocity_cap: the governor's safe-velocity cap for the next flight
            segment, m/s.
        time_budget: the decision deadline δ_d allocated by the governor,
            seconds.
        predicted_latency: the solver's end-to-end latency prediction at the
            chosen knobs, seconds.
        solver_feasible: False when the solver fell back to the worst-case
            policy.
        policy: the chosen knob assignment (precisions in metres, volumes in
            cubic metres) — the solver knobs of Table II.
        stage_latencies: seconds charged per pipeline stage; ``comm_*`` keys
            are the per-hop communication latencies (the Figure 11 bars).
        end_to_end_latency: sum of all stage latencies, seconds.
        visibility: usable look-ahead distance, metres.
        closest_obstacle: distance to the nearest observed obstacle, metres.
        gap_min / gap_avg: smallest / average gap between nearby obstacles,
            metres.
        sensor_volume: volume observable by the rig this decision, m³.
        map_volume: volume already present in the occupancy map, m³.
        map_voxels: occupied voxel count of the octree after this decision's
            map update — the map-size axis of the scaling figures.
        flown: distance flown during this decision's flight segment, metres.
        interval: duration of the flight segment, seconds.
        energy: energy spent during the segment (flight + compute), joules.
        replanned: True when the piece-wise planner ran this decision.
        dropped: True when the sensor frame was lost to a fault injection.
        hit: True when the segment ended in a collision.
        archetype: world-archetype name the mission flew through
            ("paper_corridor" unless the scenario named another world; ""
            for pre-worlds traces).
        difficulty: local corridor difficulty in [0, 1] at the decision's
            position, interpolated from the environment's heterogeneity
            field (0.0 when the environment has none — including every
            pre-worlds trace).
        drone_id: which drone of a fleet mission made this decision (0 for
            every single-drone mission, and for every pre-fleet trace).
        faults: registry names of the faults whose windows covered this
            decision, sorted (empty for fault-free decisions and for every
            pre-orchestrator trace).
    """

    spec_name: str
    design: str
    index: int
    timestamp: float
    position: Tuple[float, float, float]
    zone: str
    speed: float
    velocity_cap: float
    time_budget: float
    predicted_latency: float
    solver_feasible: bool
    policy: Dict[str, float]
    stage_latencies: Dict[str, float]
    end_to_end_latency: float
    visibility: float
    closest_obstacle: float
    gap_min: float
    gap_avg: float
    sensor_volume: float
    map_volume: float
    map_voxels: int
    flown: float
    interval: float
    energy: float
    replanned: bool
    dropped: bool
    hit: bool
    # Worlds-layer fields; defaulted so pre-worlds trace lines still parse.
    archetype: str = ""
    difficulty: float = 0.0
    # Fleet-layer field; defaulted so pre-fleet trace lines still parse.
    drone_id: int = 0
    # Fault-orchestrator field; defaulted so pre-orchestrator lines parse.
    faults: Tuple[str, ...] = ()

    @property
    def compute_latency(self) -> float:
        """Computation (non-``comm_*``) share of the decision latency, seconds."""
        return compute_seconds(self.stage_latencies)

    @property
    def deadline_met(self) -> bool:
        """True when the decision finished within its time budget."""
        return self.end_to_end_latency <= self.time_budget + 1e-9

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form with the ``kind`` / ``v`` envelope fields.

        The ``faults`` key appears only on decisions a fault actually
        covered, so fault-free traces keep the exact bytes they had before
        the fault orchestrator existed.
        """
        data = {
            "kind": KIND_DECISION,
            "v": TRACE_SCHEMA_VERSION,
            "spec_name": self.spec_name,
            "design": self.design,
            "index": self.index,
            "timestamp": self.timestamp,
            "position": list(self.position),
            "zone": self.zone,
            "speed": self.speed,
            "velocity_cap": self.velocity_cap,
            "time_budget": self.time_budget,
            "predicted_latency": self.predicted_latency,
            "solver_feasible": self.solver_feasible,
            "policy": dict(self.policy),
            "stage_latencies": dict(self.stage_latencies),
            "end_to_end_latency": self.end_to_end_latency,
            "visibility": self.visibility,
            "closest_obstacle": self.closest_obstacle,
            "gap_min": self.gap_min,
            "gap_avg": self.gap_avg,
            "sensor_volume": self.sensor_volume,
            "map_volume": self.map_volume,
            "map_voxels": self.map_voxels,
            "flown": self.flown,
            "interval": self.interval,
            "energy": self.energy,
            "replanned": self.replanned,
            "dropped": self.dropped,
            "hit": self.hit,
            "archetype": self.archetype,
            "difficulty": self.difficulty,
            "drone_id": self.drone_id,
        }
        if self.faults:
            data["faults"] = list(self.faults)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DecisionRecord":
        """Parse one decision line's JSON object.

        Raises:
            ValueError: naming the field, when a text field holds no string
                or a float field (a ``position``, ``policy`` or
                ``stage_latencies`` entry included) is NaN or ±Infinity.
                Other malformed fields raise what their conversion raises,
                which :func:`record_from_line` turns into a ``ValueError``.
        """
        return cls(
            spec_name=_text("spec_name", data["spec_name"]),
            design=_text("design", data["design"]),
            index=int(data["index"]),
            timestamp=_finite("timestamp", data["timestamp"]),
            position=tuple(_finite("position", v) for v in data["position"]),
            zone=_text("zone", data["zone"]),
            speed=_finite("speed", data["speed"]),
            velocity_cap=_finite("velocity_cap", data["velocity_cap"]),
            time_budget=_finite("time_budget", data["time_budget"]),
            predicted_latency=_finite("predicted_latency", data["predicted_latency"]),
            solver_feasible=bool(data["solver_feasible"]),
            policy={k: _finite("policy", v) for k, v in data["policy"].items()},
            stage_latencies={
                k: _finite("stage_latencies", v)
                for k, v in data["stage_latencies"].items()
            },
            end_to_end_latency=_finite("end_to_end_latency", data["end_to_end_latency"]),
            visibility=_finite("visibility", data["visibility"]),
            closest_obstacle=_finite("closest_obstacle", data["closest_obstacle"]),
            gap_min=_finite("gap_min", data["gap_min"]),
            gap_avg=_finite("gap_avg", data["gap_avg"]),
            sensor_volume=_finite("sensor_volume", data["sensor_volume"]),
            map_volume=_finite("map_volume", data["map_volume"]),
            map_voxels=int(data["map_voxels"]),
            flown=_finite("flown", data["flown"]),
            interval=_finite("interval", data["interval"]),
            energy=_finite("energy", data["energy"]),
            replanned=bool(data["replanned"]),
            dropped=bool(data["dropped"]),
            hit=bool(data["hit"]),
            # Absent in pre-worlds traces; the defaults keep old files readable.
            archetype=str(data.get("archetype", "")),
            difficulty=_finite("difficulty", data.get("difficulty", 0.0)),
            # Absent in pre-fleet traces: a single drone, id 0.
            drone_id=int(data.get("drone_id", 0)),
            # Absent in pre-orchestrator traces (and fault-free decisions).
            faults=tuple(str(name) for name in data.get("faults", ())),
        )


@dataclass(frozen=True, slots=True)
class MissionRecord:
    """One mission's identity, environment knobs and final metrics.

    Emitted once at the end of a mission (or, for a failed campaign spec,
    instead of a mission).  Together with its decision records this is the
    complete provenance of one experiment: what was asked (the spec), what
    knobs the environment had, and what came out (the metrics or the error).

    Attributes:
        spec_name: the scenario's name within its campaign.
        design: runtime under test ("roborun" / "spatial_oblivious").
        seed: the per-mission RNG seed (environment + planner).
        environment: the difficulty knobs the environment was generated from
            (``obstacle_density`` fraction, ``obstacle_spread`` metres,
            ``goal_distance`` metres, …).
        metrics: :meth:`repro.simulation.metrics.MissionMetrics.as_dict`
            (times in seconds, distances in metres, energy in kilojoules);
            empty for a failed spec.
        error: ``None`` on success; otherwise ``{"type", "message",
            "traceback", "spec_json"}`` describing the per-spec failure.
        spec: the full scenario spec as plain data, when known.
        fleet: fleet-level aggregates (``n_drones``, ``completion_rate``,
            ``min_separation_m``, ``airspace_conflicts``, ``fleet_energy_kj``,
            …) for fleet missions; ``None`` for single-drone missions and
            every pre-fleet trace.
        drones: one per-drone metrics dictionary per fleet member, in
            drone-id order; ``None`` for single-drone missions.
    """

    spec_name: str
    design: str
    seed: int
    environment: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    error: Optional[Dict[str, str]] = None
    spec: Optional[Dict[str, Any]] = None
    # Fleet-layer fields; defaulted so pre-fleet trace lines still parse.
    fleet: Optional[Dict[str, Any]] = None
    drones: Optional[List[Dict[str, Any]]] = None

    @property
    def ok(self) -> bool:
        """True when the mission ran to completion (possibly unsuccessfully)."""
        return self.error is None

    @property
    def success(self) -> bool:
        """True when the drone reached the goal without colliding."""
        return self.ok and bool(self.metrics.get("success"))

    @property
    def archetype(self) -> str:
        """The world archetype the mission flew through.

        Read from the spec's ``world`` entry; specs recorded before the
        worlds subsystem existed have none and report ``"paper_corridor"``,
        which is exactly the world they flew.
        """
        spec = self.spec or {}
        world = spec.get("world") or {}
        return str(world.get("archetype") or "paper_corridor")

    @property
    def n_drones(self) -> int:
        """The mission's fleet size (1 for every pre-fleet record)."""
        if self.fleet and self.fleet.get("n_drones"):
            return int(self.fleet["n_drones"])
        spec = self.spec or {}
        return int(spec.get("n_drones", 1) or 1)

    @property
    def completion_rate(self) -> float:
        """Fraction of the fleet that completed its mission.

        Single-drone missions report 1.0 / 0.0 from the mission's own
        success flag, so the fleet-scaling table can mix fleet sizes.
        """
        if self.fleet is not None and "completion_rate" in self.fleet:
            return float(self.fleet["completion_rate"])
        return 1.0 if self.success else 0.0

    @property
    def fault_label(self) -> str:
        """The mission's fault configuration as a grouping tag.

        Sorted unique registry names of every configured fault (legacy
        always-on fields plus schedule entries), ``"+"``-joined;
        ``"none"`` for fault-free missions and every pre-orchestrator
        trace — read from the spec's ``faults`` entry, so replayed traces
        group identically to live ones.
        """
        spec = self.spec or {}
        faults = spec.get("faults") or {}
        names = set()
        if faults.get("sensor_dropout"):
            names.add("sensor_dropout")
        if faults.get("camera_degradation"):
            names.add("camera_degradation")
        for entry in faults.get("schedule") or ():
            name = (entry or {}).get("fault")
            if name:
                names.add(str(name))
        return "+".join(sorted(names)) if names else "none"

    def knob(self, name: str) -> Optional[float]:
        """One environment difficulty knob value, or None when unknown."""
        value = self.environment.get(name)
        return float(value) if value is not None else None

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form with the ``kind`` / ``v`` envelope fields."""
        return {
            "kind": KIND_MISSION,
            "v": TRACE_SCHEMA_VERSION,
            "spec_name": self.spec_name,
            "design": self.design,
            "seed": self.seed,
            "environment": dict(self.environment),
            "metrics": dict(self.metrics),
            "error": dict(self.error) if self.error else None,
            "spec": dict(self.spec) if self.spec else None,
            "fleet": dict(self.fleet) if self.fleet else None,
            "drones": [dict(d) for d in self.drones] if self.drones else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MissionRecord":
        """Parse a mission line: ``spec_name`` and ``design`` must be strings,
        every metric a finite number (named as ``metrics.<name>``), and the
        nested fields the report folds read well-formed (named by their
        path, as ``spec.faults.schedule[0].fault``)."""
        _check_folded_fields(data)
        return cls(
            spec_name=_text("spec_name", data["spec_name"], KIND_MISSION),
            design=_text("design", data["design"], KIND_MISSION),
            seed=int(data["seed"]),
            environment=dict(data.get("environment") or {}),
            metrics={
                k: _finite(f"metrics.{k}", v, KIND_MISSION)
                for k, v in (data.get("metrics") or {}).items()
            },
            error=dict(data["error"]) if data.get("error") else None,
            spec=dict(data["spec"]) if data.get("spec") else None,
            fleet=dict(data["fleet"]) if data.get("fleet") else None,
            drones=(
                [dict(d) for d in data["drones"]] if data.get("drones") else None
            ),
        )


TraceRecord = Union[DecisionRecord, MissionRecord]


def jsonify(value: Any) -> Any:
    """Normalise a value to what a JSON round-trip would make of it.

    Records compare equal across write → read cycles only when the values
    they carry are already in JSON's vocabulary (lists, not tuples); spec
    dictionaries are passed through this before being stored in a record.
    """
    return json.loads(json.dumps(value))


def record_to_line(record: TraceRecord) -> str:
    """Canonical JSONL line (no trailing newline) for one record.

    Sorted keys and minimal separators make the encoding a pure function of
    the record's value, so identical missions produce byte-identical trace
    files no matter which process wrote them.
    """
    return json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":"))


def record_from_line(line: str) -> TraceRecord:
    """Parse one JSONL line back into its record type.

    Raises:
        ValueError: when the line is not a JSON object (nesting too deep for
            the decoder included), its ``kind`` field is missing or unknown,
            or a field is missing (named in the message; for a mission
            without an error, one of :data:`FOLDED_METRICS` included) or
            malformed (``Infinity`` in an integer field, ``NaN`` or
            ``Infinity`` in a float field and a non-string name or design
            included).
    """
    try:
        data = json.loads(line)
    except RecursionError:
        raise ValueError("trace line nests too deeply to decode") from None
    if not isinstance(data, dict):
        raise ValueError(f"trace line is not a JSON object: {line[:80]!r}")
    kind = data.get("kind")
    if kind == KIND_DECISION:
        parse = DecisionRecord.from_dict
    elif kind == KIND_MISSION:
        parse = MissionRecord.from_dict
    else:
        raise ValueError(f"unknown trace record kind {kind!r}")
    try:
        record = parse(data)
    except KeyError as exc:
        raise ValueError(f"{kind} trace line lacks the {exc.args[0]!r} field") from None
    except (AttributeError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed {kind} trace line: {exc}") from None
    if isinstance(record, MissionRecord) and record.ok:
        for key in FOLDED_METRICS:
            if key not in record.metrics:
                raise ValueError(f"mission trace line lacks the 'metrics.{key}' field")
    return record


def split_records(
    records: Iterable[TraceRecord],
) -> Tuple[List[DecisionRecord], List[MissionRecord]]:
    """Partition a mixed record stream into (decisions, missions), in order."""
    decisions: List[DecisionRecord] = []
    missions: List[MissionRecord] = []
    for record in records:
        if isinstance(record, DecisionRecord):
            decisions.append(record)
        else:
            missions.append(record)
    return decisions, missions
