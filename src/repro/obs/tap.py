"""The observability tap: spans + metrics wired into a running pipeline.

:class:`ObsTap` is attached exactly like the analysis layer's
``TraceRecorder`` — ``pipeline.add_tap(tap)`` — but it watches the *runtime*
instead of the simulation: wall-clock spans around every decision and each
of its six stages (the sense stage's span is ``capture``), and
counters/gauges/histograms over the dispatch log, solver, planner, octree,
comm hops and fault engine.

It is strictly off the data path, by construction rather than by care:

* it observes through the pipeline's step and stage hooks, which hand it
  each stage's output to read; it never changes one, so the dispatch log
  (the determinism witness) is identical with the tap attached or absent;
* it calls nothing on the stages;
* when no tap is attached, the only residue in the runtime is one
  truthiness check per stage and two per decision.

One tap instance can observe a whole fleet: each drone's pipeline shares
the tap's tracer (one swimlane per drone) and metrics registry (one label
set per drone).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.tracer import Span, Tracer

#: Buckets for the governor's decision deadline δ_d, seconds.
TIME_BUDGET_BUCKETS: Tuple[float, ...] = (
    0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4,
)


class ObsTap:
    """Passive runtime instrumentation for one mission or fleet run.

    The tap owns its span sink (:attr:`tracer`) and metric sink
    (:attr:`metrics`).

    Args:
        process_name: Chrome-trace process name (usually the spec name).
    """

    def __init__(self, process_name: str = "repro") -> None:
        self.tracer = Tracer(process_name)
        self.metrics = MetricsRegistry()
        self._pipelines: List[Any] = []
        self._mission_spans: Dict[str, Span] = {}
        self._decision_spans: Dict[str, Span] = {}
        # Per lane, the span of the stage running now.
        self._stage_spans: Dict[str, Span] = {}
        # Per lane, the dispatch log's length when the decision started.
        self._log_marks: Dict[str, int] = {}
        # Hot-path instrument cache, one bundle per lane.
        self._lane_counters: Dict[str, Dict[str, Counter]] = {}
        self._budget_histograms: Dict[str, Histogram] = {}
        self._finished = False

    # ------------------------------------------------------------------
    # Attachment (the pipeline tap protocol)
    # ------------------------------------------------------------------
    def attach(self, pipeline: Any) -> None:
        """Hook this tap into ``pipeline`` (idempotent per pipeline)."""
        if any(p is pipeline for p in self._pipelines):
            return
        self._pipelines.append(pipeline)
        lane = self.lane_for(pipeline)
        self.tracer.lane(lane)
        if self not in pipeline.observers:
            pipeline.observers.append(self)
        if self not in pipeline.stage_observers:
            pipeline.stage_observers.append(self)
        self._lane_counters.setdefault(lane, self._build_lane_counters(lane))
        self._budget_histograms.setdefault(
            lane,
            self.metrics.histogram(
                "governor_time_budget_seconds",
                help="Decision deadline delta_d chosen by the time budgeter",
                unit="s",
                labels={"drone": lane},
                buckets=TIME_BUDGET_BUCKETS,
            ),
        )

    @staticmethod
    def lane_for(pipeline: Any) -> str:
        return f"drone{pipeline.drone_id}"

    def _build_lane_counters(self, lane: str) -> Dict[str, Counter]:
        labels = {"drone": lane}
        m = self.metrics
        return {
            "dispatches": m.counter(
                "executor_dispatches_total",
                help="Dispatch-log entries of this drone's decisions",
                labels=labels,
            ),
            "decisions": m.counter(
                "decisions_total",
                help="Completed decision cascades",
                labels=labels,
            ),
            "replans": m.counter(
                "planner_replans_total",
                help="Decisions whose planning stage replanned",
                labels=labels,
            ),
            "planner_iterations": m.counter(
                "planner_iterations_total",
                help="RRT* sampling iterations executed",
                labels=labels,
            ),
            "planner_nodes": m.counter(
                "planner_nodes_total",
                help="RRT* tree nodes expanded",
                labels=labels,
            ),
            "collision_samples": m.counter(
                "planner_collision_samples_total",
                help="Collision ray-cast samples probed",
                labels=labels,
            ),
            "rewires": m.counter(
                "planner_rewires_total",
                help="RRT* edges re-parented by the rewiring pass",
                labels=labels,
            ),
            "infeasible": m.counter(
                "governor_infeasible_total",
                help="Decisions where the solver fell back to the safe policy",
                labels=labels,
            ),
            "solver_solves": m.counter(
                "solver_solves_total",
                help="Knob solver invocations",
                labels=labels,
            ),
            "solver_candidates": m.counter(
                "solver_candidates_total",
                help="Precision-ladder candidates the solver evaluated",
                labels=labels,
            ),
        }

    # ------------------------------------------------------------------
    # Stage observer
    # ------------------------------------------------------------------
    def before_stage(self, pipeline: Any, stage: str) -> None:
        lane = self.lane_for(pipeline)
        if stage == "sense":
            # The sense stage (mover step, rig capture, state estimate).
            span = self.tracer.begin("capture", category="phase", lane=lane)
        else:
            span = self.tracer.begin(stage, category="stage", lane=lane)
        self._stage_spans[lane] = span

    def after_stage(self, pipeline: Any, stage: str, output: Any) -> None:
        lane = self.lane_for(pipeline)
        self.tracer.end(self._stage_spans.pop(lane))
        if stage == "governor":
            self._sample_decision(lane, output)
        elif stage == "planning":
            self._sample_planning(lane, output)

    # ------------------------------------------------------------------
    # Output sampling (read-only peeks at the stages' outputs)
    # ------------------------------------------------------------------
    def _sample_planning(self, lane: str, sample: Any) -> None:
        counters = self._lane_counters[lane]
        work = sample.output.work
        counters["planner_iterations"].inc(work.planner_iterations)
        counters["planner_nodes"].inc(work.planner_nodes)
        counters["collision_samples"].inc(work.planner_collision_samples)
        plan = sample.output.plan
        if plan is not None:
            counters["rewires"].inc(plan.rewires)
        if sample.replanned:
            counters["replans"].inc()

    def _sample_decision(self, lane: str, decision: Any) -> None:
        self._budget_histograms[lane].observe(decision.time_budget)
        if not decision.solver_feasible:
            self._lane_counters[lane]["infeasible"].inc()

    # ------------------------------------------------------------------
    # Pipeline step observer
    # ------------------------------------------------------------------
    def on_decision_start(self, pipeline: Any, index: int) -> None:
        lane = self.lane_for(pipeline)
        if lane not in self._mission_spans:
            self._mission_spans[lane] = self.tracer.begin(
                "mission",
                category="mission",
                lane=lane,
                args={"drone_id": pipeline.drone_id},
            )
        self._decision_spans[lane] = self.tracer.begin(
            "decision",
            category="decision",
            lane=lane,
            args={"index": index, "sim_time_s": pipeline.clock.now},
        )
        self._log_marks[lane] = len(pipeline.dispatch_log())

    def on_decision_end(self, pipeline: Any, index: int, result: Any) -> None:
        lane = self.lane_for(pipeline)
        span = self._decision_spans.pop(lane, None)
        if span is not None:
            self.tracer.end(
                span,
                args={
                    "sim_time_s": pipeline.clock.now,
                    "flown_m": result.flown,
                    "hit": result.hit,
                },
            )
        counters = self._lane_counters[lane]
        counters["decisions"].inc()
        counters["dispatches"].inc(
            len(pipeline.dispatch_log()) - self._log_marks.pop(lane)
        )
        labels = {"drone": lane}
        record = pipeline.traces[-1]

        # Per-stage latency histograms (compute stages and comm_* hops).
        for stage, seconds in record.stage_latencies.items():
            self.metrics.histogram(
                "pipeline_stage_seconds",
                help="Simulated per-stage latency of the decision cascade",
                unit="s",
                labels={"drone": lane, "stage": stage},
            ).observe(seconds)

        # Map growth.
        self.metrics.gauge(
            "octree_occupied_voxels",
            help="Occupied minimum-resolution voxels in the shared octree",
            labels=labels,
        ).set(record.map_voxels)

        # Fault engine activity.
        for fault_name in record.faults:
            self.metrics.counter(
                "fault_active_decisions_total",
                help="Decisions during which each fault was active",
                labels={"drone": lane, "fault": fault_name},
            ).inc()

        # Solver counters (RoboRun runtimes only; the baseline has no solver).
        governor = getattr(pipeline.runtime, "governor", None)
        solver = getattr(governor, "solver", None)
        if solver is not None:
            solves = counters["solver_solves"]
            candidates = counters["solver_candidates"]
            solves.inc(max(0, solver.solve_count - solves.value))
            candidates.inc(max(0, solver.candidates_evaluated - candidates.value))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Close every open span and take the final gauge samples."""
        if self._finished:
            return
        self._finished = True
        for span in self._stage_spans.values():
            self.tracer.end(span)
        self._stage_spans.clear()
        for lane, span in list(self._decision_spans.items()):
            self.tracer.end(span)
        self._decision_spans.clear()
        for lane, span in list(self._mission_spans.items()):
            self.tracer.end(span)
        self._mission_spans.clear()
        for pipeline in self._pipelines:
            self.metrics.gauge(
                "executor_dispatched",
                help="Entries in the decision loop's dispatch log",
                labels={},
            ).set(len(pipeline.dispatch_log()))
        self.tracer.finish()

    def export(self, out_dir: Any, stem: str = "obs") -> Dict[str, Any]:
        """Write the trace + metric artefacts under ``out_dir``.

        Returns the paths written: ``trace`` (Chrome trace JSON),
        ``metrics`` (JSON snapshot) and ``prometheus`` (text exposition).
        """
        from pathlib import Path

        self.finish()
        out = Path(out_dir)
        return {
            "trace": self.tracer.write_chrome_trace(out / f"{stem}_trace.json"),
            "metrics": self.metrics.write_snapshot(out / f"{stem}_metrics.json"),
            "prometheus": self.metrics.write_prometheus(out / f"{stem}_metrics.prom"),
        }
