"""Campaigns: many scenarios, one worker fleet, one outcome per scenario.

The paper's evaluation flies 27 environments per design.  A :class:`CampaignRunner`
fans a list of :class:`~repro.simulation.scenario.ScenarioSpec`s across
worker processes and collects the per-mission outcomes in a
:class:`CampaignResult`.  Two execution modes share the one ``run()`` API
(selected by ``mode=``):

* ``serial`` — every spec inline in this process (debugging, determinism
  checks); a campaign with one worker or one pending spec also runs inline;
* ``async`` — the default: persistent work-stealing workers pulling specs
  from a shared queue and streaming rows back as they finish
  (:mod:`repro.simulation.async_runner`), with per-spec wall-clock
  timeouts, bounded retry for specs whose worker died, and poisoned-spec
  exclusion.

Determinism: specs carry their own seeds, workers receive plain dictionaries
(no shared state), and results are collected in spec order regardless of
which worker finishes first, so a campaign's outcomes — and every per-spec
JSONL trace — are identical whichever mode runs it.
"""

from __future__ import annotations

import json
import os
import traceback as _traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.simulation.fleet import FleetResult
from repro.simulation.scenario import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.trace import MissionRecord


#: The execution modes :class:`CampaignRunner` understands.
CAMPAIGN_MODES = ("serial", "async")


def _error_record(spec_dict: Dict[str, Any], exc: BaseException) -> Dict[str, str]:
    """The per-spec failure description shipped back to the campaign parent."""
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": _traceback.format_exc(),
        "spec_json": json.dumps(spec_dict, sort_keys=True),
    }


def _error_mission_record(
    spec_dict: Dict[str, Any], error: Dict[str, str]
) -> "MissionRecord":
    """The single mission record a failed spec leaves in its trace file."""
    from repro.analysis.trace import MissionRecord

    environment = dict(spec_dict.get("environment", {}))
    return MissionRecord(
        spec_name=spec_dict.get("name", "?"),
        design=spec_dict.get("design", "?"),
        seed=int(environment.get("seed", 0)),
        environment=environment,
        metrics={},
        error=error,
        spec=spec_dict,
    )


def write_error_trace(
    trace_dir: Any, spec_dict: Dict[str, Any], error: Dict[str, str]
) -> None:
    """Replace a spec's trace file with a single error mission record.

    Workers append their own error records when the spec *raises*; this is
    the parent-side twin for specs whose worker never got to — crashed
    processes and killed-on-timeout workers leave a partial (or absent)
    trace file, which this overwrites so the report still shows the spec in
    its partial-failures section.
    """
    from repro.analysis.io import TraceWriter, trace_path

    with TraceWriter(trace_path(trace_dir, str(spec_dict.get("name", "unnamed")))) as writer:
        writer.write(_error_mission_record(spec_dict, error))


def _row_from_trace(path: Any, spec_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Rebuild a worker result row from a completed spec's trace file.

    ``--resume`` skips specs whose traces pass
    :func:`repro.analysis.io.is_complete_trace`; their outcomes are
    reconstructed from the mission record already on disk instead of being
    re-flown, so the outcomes still cover every spec in spec order.
    """
    from repro.analysis.io import TraceReader

    mission = None
    for record in TraceReader(path):
        mission = record
    # The probe guaranteed the file ends with an error-free MissionRecord.
    return {"spec": spec_dict, "metrics": dict(mission.metrics)}


#: Worker-side heartbeat sink.  ``None`` (the default) means telemetry is
#: off and the worker touches none of the heartbeat code.  Async workers
#: install their telemetry queue here when they start; serial campaigns set
#: an in-process sink around the inline loop.
_worker_telemetry_sink: Optional[Any] = None


def _run_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: fly one scenario described as plain data.

    Runs in an async worker (or inline for serial campaigns); everything that
    crosses the process boundary is a dictionary, so no live object graph is
    pickled.  When the caller asked to keep full results, the heavyweight
    pipeline (its stages, operator set and occupancy map) is stripped first.

    A spec that raises does not kill the campaign: the worker returns an
    ``error`` row carrying the exception, its traceback and the failing
    spec's JSON, so campaign reports can show partial failures.  When the
    payload names a ``trace_dir``, the mission streams one JSONL trace file
    (decision records plus the final mission record — or an error record for
    a failed spec) into it.
    """
    spec_dict = payload["spec"]
    row: Dict[str, Any] = {"spec": spec_dict}
    writer = None
    recorder = None
    emitter = None
    sink = _worker_telemetry_sink if payload.get("telemetry") else None
    try:
        # The writer is opened before the spec is parsed (from the raw dict's
        # name) so that even a spec that fails to *parse* leaves an error
        # record in the trace stream; imports are lazy so workers without
        # tracing never load the analysis package.
        if payload.get("trace_dir"):
            from repro.analysis.io import TraceWriter, trace_path

            writer = TraceWriter(
                trace_path(payload["trace_dir"], str(spec_dict.get("name", "unnamed")))
            )
        if sink is not None:
            # Lazy import for the same reason as the analysis layer: workers
            # without telemetry never load the obs package.
            from repro.obs.heartbeat import HeartbeatEmitter

            emitter = HeartbeatEmitter(str(spec_dict.get("name", "unnamed")), sink)
            emitter.emit("start")
        spec = ScenarioSpec.from_dict(spec_dict)
        if writer is not None:
            from repro.analysis.recorder import TraceRecorder

            recorder = TraceRecorder(writer=writer, spec=spec, keep_records=False)
        taps = (emitter,) if emitter is not None else ()
        result = spec.run(recorder=recorder, taps=taps)
        row["metrics"] = result.metrics.as_dict()
        if payload.get("keep_results"):
            result.pipeline = None
            # Every drone's MissionResult carries its own live pipeline too.
            for drone_result in result.drones:
                drone_result.pipeline = None
            row["result"] = result
        if emitter is not None:
            emitter.emit("done")
    except Exception as exc:  # noqa: BLE001 - the whole point is to surface it
        error = _error_record(spec_dict, exc)
        row["error"] = error
        if emitter is not None:
            emitter.emit("error", error=f"{type(exc).__name__}: {exc}")
        if writer is not None:
            writer.write(_error_mission_record(spec_dict, error))
    finally:
        if writer is not None:
            writer.close()
    return row


@dataclass(frozen=True, slots=True)
class ScenarioOutcome:
    """One scenario's spec and what its mission produced.

    Attributes:
        spec: the scenario that was flown.
        metrics: the mission's flat metric dictionary (times in seconds,
            distances in metres, energy in kilojoules); ``None`` when the
            spec errored instead of flying.
        result: the full :class:`~repro.simulation.fleet.FleetResult` when
            the campaign was run with ``keep_results=True``.
        error: ``None`` on success; otherwise the per-spec failure record
            (``type`` / ``message`` / ``traceback`` / ``spec_json``).
    """

    spec: ScenarioSpec
    metrics: Optional[Dict[str, float]]
    result: Optional[FleetResult] = None
    error: Optional[Dict[str, str]] = None

    @property
    def ok(self) -> bool:
        """True when the mission ran to completion (possibly unsuccessfully)."""
        return self.error is None


@dataclass
class CampaignResult:
    """The outcomes of one campaign, in spec order.

    Attributes:
        outcomes: one :class:`ScenarioOutcome` per spec, in spec order
            (including error outcomes for specs that failed to run).
        trace_dir: the directory the campaign streamed JSONL traces into,
            when it was run with one.
    """

    outcomes: List[ScenarioOutcome] = field(default_factory=list)
    trace_dir: Optional[str] = None

    def __len__(self) -> int:
        return len(self.outcomes)

    def failures(self) -> List[ScenarioOutcome]:
        """Outcomes whose spec raised instead of flying, in spec order."""
        return [o for o in self.outcomes if not o.ok]


class CampaignRunner:
    """Fans scenario specs across worker processes and collects the outcomes.

    Attributes:
        max_workers: worker count; ``None`` sizes the fleet to the machine
            (capped by the campaign size), while 0 or 1 runs serially in
            process — useful for debugging and for determinism checks
            against a parallel run.
        mode: one of :data:`CAMPAIGN_MODES` — ``serial`` forces the inline
            path, ``async`` (the default) is the persistent work-stealing
            engine (:mod:`repro.simulation.async_runner`).
        spec_timeout_s: parallel campaigns — wall-clock budget per spec
            attempt; a worker over budget is killed and the spec retried.
            ``None`` (the default) disables the timeout.
        max_attempts: parallel campaigns — dispatch attempts per spec
            before it is excluded as poisoned and surfaced as an error
            outcome.
        retry_backoff_s: parallel campaigns — base of the exponential
            backoff (``base * 2**(attempt-1)``) between attempts of one spec.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        mode: str = "async",
        spec_timeout_s: Optional[float] = None,
        max_attempts: int = 3,
        retry_backoff_s: float = 0.1,
    ) -> None:
        if max_workers is not None and max_workers < 0:
            raise ValueError("max_workers cannot be negative")
        mode = mode.lower()
        if mode not in CAMPAIGN_MODES:
            raise ValueError(
                f"unknown campaign mode {mode!r}; choose from {CAMPAIGN_MODES}"
            )
        if spec_timeout_s is not None and spec_timeout_s <= 0:
            raise ValueError("spec_timeout_s must be positive (or None)")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s cannot be negative")
        self.max_workers = max_workers
        self.mode = mode
        self.spec_timeout_s = spec_timeout_s
        self.max_attempts = max_attempts
        self.retry_backoff_s = retry_backoff_s

    def _pool_size(self, job_count: int) -> int:
        if self.max_workers is not None:
            return min(self.max_workers, job_count)
        return min(os.cpu_count() or 1, job_count)

    def run(
        self,
        specs: Sequence[ScenarioSpec],
        keep_results: bool = False,
        trace_dir: Optional[Any] = None,
        telemetry_dir: Optional[Any] = None,
        progress: Optional[Any] = None,
        resume: bool = False,
    ) -> CampaignResult:
        """Fly every scenario and collect the outcomes, in spec order.

        A spec that raises does not abort the campaign: its outcome carries
        an error record (exception type, message, traceback and the failing
        spec's JSON) and the other specs still fly.

        Args:
            specs: the campaign's scenarios; names should be unique.
            keep_results: also return each mission's full
                :class:`~repro.simulation.fleet.FleetResult` (traces,
                ledger, environment) on the outcome — heavier to transfer,
                needed by trace-level figures.
            trace_dir: when given, every worker streams its mission's
                structured trace to ``<trace_dir>/<spec name>.jsonl`` (one
                decision record per decision plus the mission record).  The
                directory is swept of stale ``*.jsonl`` files first, so
                after the campaign it holds exactly this campaign's traces;
                the files depend only on the specs, so serial and parallel
                runs of the same campaign produce byte-identical traces.
            telemetry_dir: when given, workers emit heartbeat/progress
                records (spec, status, epoch, wall elapsed, rss) which the
                parent appends to ``<telemetry_dir>/heartbeats.jsonl``.
                ``None`` (the default) disables telemetry entirely — no
                queue, no emitters, no extra work in the workers.
            progress: optional callable invoked in the parent with each
                heartbeat dictionary as it arrives (live progress lines).
                Supplying only ``progress`` enables telemetry without
                writing a file.
            resume: skip every spec whose trace file already exists in
                ``trace_dir`` and parses cleanly to a completed mission
                (:func:`repro.analysis.io.is_complete_trace`); their
                outcomes are rebuilt from the traces on disk, only the
                remaining specs are flown, and stale files belonging to no
                completed spec are still swept.  Requires ``trace_dir``;
                skipped specs never carry a live ``result`` even under
                ``keep_results=True``.
        """
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError("scenario names within a campaign must be unique")
        if resume and trace_dir is None:
            raise ValueError("resume=True requires a trace_dir")
        spec_dicts = [spec.to_dict() for spec in specs]
        resumed_rows: Dict[int, Dict[str, Any]] = {}
        if trace_dir is not None:
            from repro.analysis.io import (
                clear_traces,
                is_complete_trace,
                list_trace_files,
                trace_path,
            )

            paths = [trace_path(trace_dir, name) for name in names]
            stems = [path.name for path in paths]
            if len(set(stems)) != len(stems):
                # Distinct names can collide once path separators are
                # flattened ("a/b" and "a_b" share a trace file).
                raise ValueError(
                    "scenario names map to colliding trace files; rename the "
                    "specs so their sanitised names are unique"
                )
            Path(trace_dir).mkdir(parents=True, exist_ok=True)
            if resume:
                for index, path in enumerate(paths):
                    if is_complete_trace(path):
                        resumed_rows[index] = _row_from_trace(
                            path, spec_dicts[index]
                        )
                kept = {paths[index] for index in resumed_rows}
                # Sweep everything that is not a completed trace of this
                # campaign: other campaigns' files, partial traces, error
                # records — exactly what clear_traces does on a cold run.
                for stale in list_trace_files(trace_dir):
                    if stale not in kept:
                        stale.unlink()
            else:
                clear_traces(trace_dir)
        telemetry = telemetry_dir is not None or progress is not None
        if telemetry_dir is not None:
            from repro.obs.heartbeat import HEARTBEAT_FILE, clear_heartbeats

            # write_heartbeats appends; without this sweep a campaign re-run
            # into the same telemetry_dir would fold the previous run's
            # records into runtime_summary.
            clear_heartbeats(Path(telemetry_dir) / HEARTBEAT_FILE)
        pending = [i for i in range(len(specs)) if i not in resumed_rows]
        payloads = [
            {
                "spec": spec_dicts[i],
                "keep_results": keep_results,
                "trace_dir": str(trace_dir) if trace_dir is not None else None,
                "telemetry": telemetry,
            }
            for i in pending
        ]
        workers = 1 if self.mode == "serial" else self._pool_size(len(payloads))
        heartbeats: List[Dict[str, Any]] = []
        if workers <= 1 or len(payloads) <= 1:
            flown = self._run_serial(payloads, telemetry, progress, heartbeats)
        else:
            flown = self._run_async(
                payloads, workers, telemetry, progress, heartbeats
            )

        if telemetry_dir is not None and heartbeats:
            from repro.obs.heartbeat import HEARTBEAT_FILE, write_heartbeats

            write_heartbeats(
                heartbeats, Path(telemetry_dir) / HEARTBEAT_FILE
            )

        rows = dict(resumed_rows)
        rows.update(zip(pending, flown))
        outcomes = [
            ScenarioOutcome(
                spec=spec,
                metrics=rows[i].get("metrics"),
                result=rows[i].get("result"),
                error=rows[i].get("error"),
            )
            for i, spec in enumerate(specs)
        ]
        return CampaignResult(
            outcomes=outcomes,
            trace_dir=str(trace_dir) if trace_dir is not None else None,
        )

    @staticmethod
    def _run_serial(
        payloads: List[Dict[str, Any]],
        telemetry: bool,
        progress: Optional[Any],
        heartbeats: List[Dict[str, Any]],
    ) -> List[Dict[str, Any]]:
        """Run every payload inline, with an in-process heartbeat sink."""
        global _worker_telemetry_sink
        if not telemetry:
            return [_run_payload(payload) for payload in payloads]
        sink = _InlineSink(heartbeats, progress)
        previous = _worker_telemetry_sink
        _worker_telemetry_sink = sink
        try:
            return [_run_payload(payload) for payload in payloads]
        finally:
            _worker_telemetry_sink = previous

    def _run_async(
        self,
        payloads: List[Dict[str, Any]],
        workers: int,
        telemetry: bool,
        progress: Optional[Any],
        heartbeats: List[Dict[str, Any]],
    ) -> List[Dict[str, Any]]:
        """Run payloads on the persistent work-stealing engine."""
        from repro.simulation.async_runner import AsyncCampaignEngine

        engine = AsyncCampaignEngine(
            workers,
            spec_timeout_s=self.spec_timeout_s,
            max_attempts=self.max_attempts,
            retry_backoff_s=self.retry_backoff_s,
        )
        return engine.run(
            payloads, telemetry=telemetry, progress=progress, heartbeats=heartbeats
        )


class _InlineSink:
    """Serial-campaign heartbeat sink: collect + forward to the progress hook."""

    def __init__(
        self, collected: List[Dict[str, Any]], progress: Optional[Any]
    ) -> None:
        self._collected = collected
        self._progress = progress

    def put(self, record: Dict[str, Any]) -> None:
        self._collected.append(record)
        if self._progress is not None:
            self._progress(record)
