"""The trace recorder: a step observer on the decision pipeline.

The pipeline's flight stage builds one :class:`~repro.analysis.trace.
DecisionRecord` per decision whether or not anything records it (the
mission result's ``traces``).  :class:`TraceRecorder` is a step observer,
like :class:`~repro.obs.heartbeat.HeartbeatEmitter`: at the end of each
decision it emits the pipeline's latest record, stamped with the owning
spec's name.  It only reads the record, so a traced mission logs exactly
the dispatch log of an untraced one.

Records can be kept in memory (``keep_records=True``, the default), streamed
to a :class:`~repro.analysis.io.TraceWriter`, or both.  Campaign workers use
the streaming path so multi-thousand-mission campaigns never hold a
campaign's traces in memory at once.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.analysis.trace import DecisionRecord, MissionRecord, jsonify

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.io import TraceWriter
    from repro.simulation.metrics import MissionMetrics
    from repro.simulation.pipeline import DecisionPipeline, FlightResult


class TraceRecorder:
    """Emits one :class:`DecisionRecord` per decision, then the mission record.

    Attributes:
        writer: optional streaming sink; every record is appended as soon as
            it is complete.
        spec: the owning scenario spec (a ``ScenarioSpec`` or its plain-dict
            form), used to stamp identity and environment knobs into the
            records; ``None`` for ad-hoc missions.
        keep_records: keep completed records in :attr:`records` /
            :attr:`mission_record` (disable for campaign-scale streaming).
        records: completed decision records, in decision order.
        mission_record: the final mission summary, set by
            :meth:`on_mission_end`.
    """

    def __init__(
        self,
        writer: Optional["TraceWriter"] = None,
        spec: Optional[Any] = None,
        keep_records: bool = True,
    ) -> None:
        self.writer = writer
        self.keep_records = keep_records
        self.records: List[DecisionRecord] = []
        self.mission_record: Optional[MissionRecord] = None
        self._spec: Optional[Any] = None
        self._spec_dict: Optional[Dict[str, Any]] = None
        self.spec = spec
        self._pipeline: Optional["DecisionPipeline"] = None

    # ------------------------------------------------------------------
    # Spec context
    # ------------------------------------------------------------------
    @property
    def spec(self) -> Optional[Any]:
        """The owning scenario spec, in whatever form it was supplied."""
        return self._spec

    @spec.setter
    def spec(self, value: Optional[Any]) -> None:
        # Normalise once at assignment: spec_name is read on every decision,
        # so the JSON round-trip must not sit on the recording hot path.
        self._spec = value
        if value is None:
            self._spec_dict = None
        elif hasattr(value, "to_dict"):
            self._spec_dict = jsonify(value.to_dict())
        else:
            self._spec_dict = jsonify(dict(value))

    @property
    def spec_dict(self) -> Optional[Dict[str, Any]]:
        """The spec as plain JSON-shaped data (cached at assignment)."""
        return self._spec_dict

    @property
    def spec_name(self) -> str:
        """The owning scenario's name ("" for ad-hoc missions)."""
        return self._spec_dict["name"] if self._spec_dict else ""

    # ------------------------------------------------------------------
    # Pipeline tap
    # ------------------------------------------------------------------
    def attach(self, pipeline: "DecisionPipeline") -> None:
        """Observe the pipeline's decisions (the tap protocol).

        Called by :meth:`DecisionPipeline.add_tap`.  A fleet mission attaches
        one recorder to every drone's pipeline; each record already carries
        its drone's id.  Attaching the *same* pipeline twice would
        double-record it and is rejected.
        """
        if self in pipeline.observers:
            raise ValueError("recorder is already attached to this pipeline")
        if self._pipeline is None:
            self._pipeline = pipeline
        pipeline.observers.append(self)

    def on_decision_start(self, pipeline: "DecisionPipeline", index: int) -> None:
        del pipeline, index

    def on_decision_end(
        self, pipeline: "DecisionPipeline", index: int, result: "FlightResult"
    ) -> None:
        del index, result
        self._emit(replace(pipeline.traces[-1], spec_name=self.spec_name))

    # ------------------------------------------------------------------
    # Mission end
    # ------------------------------------------------------------------
    def on_mission_end(
        self,
        metrics: "MissionMetrics",
        fleet: Optional[Dict[str, Any]] = None,
        drones: Optional[List[Dict[str, Any]]] = None,
    ) -> MissionRecord:
        """Emit the mission summary record once the mission loop finishes.

        Fleet missions pass the fleet-level aggregate (``fleet``) and the
        per-drone metric dictionaries (``drones``); single-drone missions
        leave both ``None`` and the record serialises exactly as before.
        """
        spec = self.spec_dict
        pipeline = self._pipeline
        design = metrics.design
        seed = 0
        environment: Dict[str, Any] = {}
        if spec is not None:
            environment = dict(spec.get("environment", {}))
            seed = int(environment.get("seed", 0))
        elif pipeline is not None:
            seed = int(pipeline.planning.config.rng_seed)
        record = MissionRecord(
            spec_name=self.spec_name,
            design=design,
            seed=seed,
            environment=environment,
            metrics=metrics.as_dict(),
            error=None,
            spec=spec,
            fleet=dict(fleet) if fleet else None,
            drones=[dict(d) for d in drones] if drones else None,
        )
        self.mission_record = record if self.keep_records else None
        self._emit(record, keep=False)
        return record

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _emit(self, record: Any, keep: bool = True) -> None:
        if keep and self.keep_records:
            self.records.append(record)
        if self.writer is not None:
            self.writer.write(record)
