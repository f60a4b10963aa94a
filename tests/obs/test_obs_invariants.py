"""The observability contract: strictly off the data path.

Two layers, mirroring ``tests/simulation/test_faults_backcompat.py``:

* **Fast** — on a small mission, a run with an :class:`ObsTap` attached
  produces a dispatch log, mission metrics and decision records that are
  *byte-identical* to an untapped run, while the tap itself yields a valid
  Chrome trace and a populated metrics registry.
* **Slow** — the benchmark-seed mission with the tap ENABLED still hashes
  to the pre-obs SHA-256 goldens, and a no-obs campaign reproduces the
  golden trace files bit for bit.
"""

import hashlib
import json

import pytest

from repro import (
    CampaignRunner,
    EnvironmentConfig,
    MissionConfig,
    MissionSimulator,
    ObsTap,
    RoboRunRuntime,
    ScenarioSpec,
    TraceRecorder,
    build_environment,
    scenario_grid,
)
from repro.obs.tracer import validate_chrome_trace
from tests.simulation.test_faults_backcompat import (
    GOLDEN_CFG,
    GOLDEN_DISPATCH_SHA,
    GOLDEN_ENV,
    GOLDEN_METRICS_SHA,
    GOLDEN_TRACE_SHA,
)

SMALL_ENV = EnvironmentConfig(
    obstacle_density=0.2, obstacle_spread=25.0, goal_distance=40.0, seed=3
)
SMALL_CFG = MissionConfig(max_decisions=8, max_mission_time_s=60.0)


def _run_small(tap=None, recorder=None):
    environment = build_environment(SMALL_ENV)
    simulator = MissionSimulator(environment, RoboRunRuntime(), SMALL_CFG)
    taps = (tap,) if tap is not None else ()
    return simulator.run(recorder=recorder, taps=taps)


class TestOffTheDataPath:
    """Tapped and untapped runs are indistinguishable on the data path."""

    def test_dispatch_log_and_metrics_identical_with_tap(self):
        baseline = _run_small()
        tapped = _run_small(tap=ObsTap())
        assert json.dumps(tapped.pipeline.dispatch_log()) == json.dumps(
            baseline.pipeline.dispatch_log()
        ), "attaching an ObsTap changed the dispatch log"
        assert json.dumps(
            tapped.metrics.as_dict(), sort_keys=True
        ) == json.dumps(baseline.metrics.as_dict(), sort_keys=True)

    def test_decision_records_identical_with_tap(self):
        plain = TraceRecorder()
        _run_small(recorder=plain)
        taprec = TraceRecorder()
        _run_small(tap=ObsTap(), recorder=taprec)
        as_lines = lambda rec: [
            json.dumps(r.to_dict(), sort_keys=True) for r in rec.records
        ]
        assert as_lines(taprec) == as_lines(plain), (
            "an ObsTap must not perturb DecisionRecord bytes"
        )

    def test_repeated_tapped_runs_are_deterministic(self):
        a = _run_small(tap=ObsTap())
        b = _run_small(tap=ObsTap())
        assert json.dumps(a.pipeline.dispatch_log()) == json.dumps(
            b.pipeline.dispatch_log()
        )


class TestTapOutputs:
    """What the tap collects is well-formed and covers the mission."""

    def test_chrome_trace_validates_and_covers_all_stages(self):
        tap = ObsTap()
        result = _run_small(tap=tap)
        tap.finish()
        document = tap.tracer.to_chrome_trace()
        assert validate_chrome_trace(document) == []
        names = {e["name"] for e in document["traceEvents"] if e["ph"] == "B"}
        assert {"mission", "decision"} <= names
        # The sense stage's span is the capture phase.
        for stage in ("capture", "profile", "governor", "perception",
                      "planning", "flight"):
            assert stage in names, f"no span for pipeline stage {stage!r}"
        durations = tap.tracer.span_durations()
        decisions = result.metrics.decision_count
        assert durations["decision"]["count"] == decisions
        # One span per stage and decision.
        assert all(
            durations[stage]["count"] == decisions
            for stage in ("capture", "profile", "flight")
        )

    def test_one_capture_span_per_decision_and_spans_cover_decisions(self):
        tap = ObsTap()
        result = _run_small(tap=tap)
        tap.finish()
        begins = [e["name"] for e in tap.tracer.events if e["ph"] == "B"]
        # The capture span opens right after its decision's span, once each.
        after_decision = [
            begins[i + 1] for i, name in enumerate(begins) if name == "decision"
        ]
        assert after_decision == ["capture"] * result.metrics.decision_count
        assert begins.count("capture") == result.metrics.decision_count
        # The stage spans account for nearly all decision time.
        decision_us = tap.tracer.span_durations()["decision"]["total_us"]
        assert tap.tracer.self_time_us("decision") <= 0.05 * decision_us

    def test_metrics_cover_the_catalogue(self):
        tap = ObsTap()
        result = _run_small(tap=tap)
        tap.finish()
        labels = {"drone": "drone0"}
        get = lambda name: tap.metrics.get(name, labels)
        assert get("decisions_total").value == result.metrics.decision_count
        assert get("executor_dispatches_total").value > 0
        assert get("solver_solves_total").value > 0
        assert get("planner_iterations_total").value > 0
        assert get("octree_occupied_voxels").peak > 0
        budget = tap.metrics.get("governor_time_budget_seconds", labels)
        assert budget.count == result.metrics.decision_count
        for stage_name in ("point_cloud", "octomap", "piecewise_planning",
                           "comm_point_cloud"):
            stage = tap.metrics.get(
                "pipeline_stage_seconds",
                {"drone": "drone0", "stage": stage_name},
            )
            assert stage is not None, f"no latency histogram for {stage_name}"
            assert stage.count == result.metrics.decision_count

    #: The counters on ``_run_small``: one decision per epoch, 14 log entries
    #: per decision, and the planner and governor outputs sampled once each.
    PINNED_COUNTERS = {
        "decisions_total": 8.0,
        "executor_dispatches_total": 112.0,
        "planner_iterations_total": 23.0,
        "planner_nodes_total": 22.0,
        "planner_collision_samples_total": 357.0,
        "planner_rewires_total": 1.0,
        "planner_replans_total": 1.0,
        "governor_infeasible_total": 0.0,
        "solver_solves_total": 8.0,
        "solver_candidates_total": 44.0,
    }

    def test_counters_hold_their_pinned_values(self):
        tap = ObsTap()
        _run_small(tap=tap)
        tap.finish()
        labels = {"drone": "drone0"}
        values = {
            name: tap.metrics.get(name, labels).value
            for name in self.PINNED_COUNTERS
        }
        assert values == self.PINNED_COUNTERS
        budget = tap.metrics.get("governor_time_budget_seconds", labels)
        assert (budget.count, budget.total) == (8, 64.8)
        assert tap.metrics.get("executor_dispatched", {}).value == 112.0

    def test_snapshot_round_trips_and_prometheus_renders(self, tmp_path):
        tap = ObsTap()
        _run_small(tap=tap)
        tap.finish()
        paths = tap.export(tmp_path, stem="small")
        snapshot = json.loads(paths["metrics"].read_text())
        from repro import MetricsRegistry
        rebuilt = MetricsRegistry.from_snapshot(snapshot)
        assert rebuilt.snapshot() == tap.metrics.snapshot()
        prom = paths["prometheus"].read_text()
        assert "# TYPE repro_decisions_total counter" in prom
        trace = json.loads(paths["trace"].read_text())
        assert validate_chrome_trace(trace) == []

    def test_fleet_mission_gets_one_lane_per_drone(self):
        spec = ScenarioSpec(
            name="fleet-obs",
            environment=SMALL_ENV,
            mission=SMALL_CFG,
            n_drones=2,
        )
        tap = ObsTap()
        spec.run(taps=(tap,))
        tap.finish()
        assert {"drone0", "drone1"} <= set(tap.tracer.lanes)
        assert validate_chrome_trace(tap.tracer.to_chrome_trace()) == []


@pytest.mark.slow
class TestGoldenIdentity:
    """The benchmark-seed artefacts hash to the pre-obs goldens."""

    def test_tapped_golden_mission_matches_pre_obs_digests(self):
        environment = build_environment(GOLDEN_ENV)
        result = MissionSimulator(
            environment, RoboRunRuntime(), GOLDEN_CFG
        ).run(taps=(ObsTap(),))
        dispatch = json.dumps(result.pipeline.dispatch_log())
        metrics = json.dumps(result.metrics.as_dict(), sort_keys=True)
        assert hashlib.sha256(dispatch.encode()).hexdigest() == (
            GOLDEN_DISPATCH_SHA
        ), "an ENABLED ObsTap moved the golden dispatch log"
        assert hashlib.sha256(metrics.encode()).hexdigest() == (
            GOLDEN_METRICS_SHA
        ), "an ENABLED ObsTap moved the golden mission metrics"

    def test_no_obs_campaign_traces_still_bit_identical(self, tmp_path):
        specs = scenario_grid(
            "golden",
            densities=(0.3,),
            base_environment=GOLDEN_ENV,
            mission=GOLDEN_CFG,
            base_seed=7,
        )
        CampaignRunner(max_workers=1).run(
            specs, trace_dir=tmp_path, telemetry_dir=tmp_path / "telemetry"
        )
        produced = {p.name for p in tmp_path.glob("*.jsonl")}
        assert produced == set(GOLDEN_TRACE_SHA)
        for name, expected in GOLDEN_TRACE_SHA.items():
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == expected, (
                f"campaign telemetry perturbed golden trace {name}"
            )
        assert (tmp_path / "telemetry" / "heartbeats.jsonl").exists()
