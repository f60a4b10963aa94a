"""Trace round-tripping: write → read → aggregate must lose nothing.

Three invariants are pinned here:

1. a mission's streamed JSONL trace reads back into exactly the records the
   recorder held in memory;
2. aggregating from a trace file equals aggregating from the in-memory
   records (the figures are a pure function of the records); and
3. campaign trace files are byte-identical between serial and
   multiprocessing runs of the same specs.
"""

import dataclasses
import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    CampaignRunner,
    EnvironmentConfig,
    MissionConfig,
    ScenarioSpec,
)
from repro.analysis import (
    CampaignReport,
    TraceReader,
    TraceRecorder,
    TraceWriter,
    clear_traces,
    read_traces,
    trace_path,
)
from repro.analysis.figures import fig2_latency_deadline, fig5_governor_response
from repro.analysis.io import is_complete_trace
from repro.analysis.trace import DecisionRecord, MissionRecord, record_from_line, record_to_line

TINY_ENV = EnvironmentConfig(
    obstacle_density=0.3, obstacle_spread=30.0, goal_distance=60.0, seed=7
)
TINY_CFG = MissionConfig(max_decisions=12, max_mission_time_s=100.0)

#: A mission line whose integer ``seed`` is ``Infinity``.
INFINITE_SEED_LINE = '{"kind":"mission","spec_name":"a","design":"b","seed":Infinity}'

#: The non-finite numbers, which no integer field can hold.
NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
#: Any JSON value Python's ``json`` reads, ``Infinity`` and ``NaN`` included.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def tiny_spec(name="tiny", design="roborun", seed=7):
    return ScenarioSpec(
        name=name,
        design=design,
        environment=dataclasses.replace(TINY_ENV, seed=seed),
        mission=TINY_CFG,
    ).seeded(seed)


@pytest.fixture(scope="module")
def traced_mission(tmp_path_factory):
    """One traced mission: the recorder's memory plus its JSONL file."""
    path = tmp_path_factory.mktemp("traces") / "tiny.jsonl"
    spec = tiny_spec()
    with TraceWriter(path) as writer:
        recorder = TraceRecorder(writer=writer, spec=spec)
        result = spec.run(recorder=recorder)
    return {"path": path, "recorder": recorder, "result": result, "spec": spec}


class TestRecorder:
    def test_one_record_per_decision(self, traced_mission):
        recorder = traced_mission["recorder"]
        result = traced_mission["result"]
        assert len(recorder.records) == result.metrics.decision_count
        assert [r.index for r in recorder.records] == list(
            range(len(recorder.records))
        )
        assert recorder.mission_record is not None
        assert recorder.mission_record.ok

    def test_records_carry_decision_content(self, traced_mission):
        record = traced_mission["recorder"].records[0]
        assert record.spec_name == "tiny"
        assert record.design == "roborun"
        assert record.time_budget > 0
        assert record.end_to_end_latency > 0
        assert record.policy  # solver knobs present
        assert any(k.startswith("comm_") for k in record.stage_latencies)
        assert record.map_voxels > 0
        assert record.energy > 0
        assert record.stage_latencies["runtime"] >= 0

    def test_records_match_pipeline_traces(self, traced_mission):
        """The recorder emits the pipeline's own records, spec name aside."""
        recorder = traced_mission["recorder"]
        result = traced_mission["result"]
        assert len(recorder.records) == len(result.traces)
        for record, trace in zip(recorder.records, result.traces):
            assert trace.spec_name == ""
            assert dataclasses.replace(record, spec_name="") == trace

    def test_mission_record_metrics_match(self, traced_mission):
        mission = traced_mission["recorder"].mission_record
        assert mission.metrics == traced_mission["result"].metrics.as_dict()
        assert mission.environment["seed"] == 7


class TestRoundTrip:
    def test_file_reads_back_to_identical_records(self, traced_mission):
        records = list(TraceReader(traced_mission["path"]))
        recorder = traced_mission["recorder"]
        assert records[:-1] == recorder.records
        assert records[-1] == recorder.mission_record

    def test_line_codec_is_stable(self, traced_mission):
        for record in traced_mission["recorder"].records:
            line = record_to_line(record)
            assert record_from_line(line) == record
            assert record_to_line(record_from_line(line)) == line

    def test_aggregation_from_file_equals_in_memory(self, traced_mission):
        recorder = traced_mission["recorder"]
        decisions, missions = read_traces([traced_mission["path"]])
        from_file = CampaignReport(decisions, missions)
        in_memory = CampaignReport(recorder.records, [recorder.mission_record])
        for file_table, memory_table in zip(from_file.tables(), in_memory.tables()):
            assert file_table.columns == memory_table.columns
            assert file_table.rows == memory_table.rows
        assert from_file.to_markdown() == in_memory.to_markdown()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            record_from_line('{"kind": "mystery"}')

    def test_missing_field_is_named(self):
        with pytest.raises(ValueError, match="'spec_name'"):
            record_from_line('{"kind": "decision"}')

    def test_non_object_line_rejected(self):
        with pytest.raises(ValueError, match="not a JSON object"):
            record_from_line("[1, 2]")

    @pytest.mark.parametrize(
        "line", [INFINITE_SEED_LINE, "[" * 5000], ids=["infinite_seed", "deep_nesting"]
    )
    def test_overflow_and_deep_nesting_are_value_errors(self, line):
        with pytest.raises(ValueError):
            record_from_line(line)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_bad_field_raises_only_value_error(self, traced_mission, data):
        lines = traced_mission["path"].read_text().splitlines()
        # The first decision line or the mission line.
        record = json.loads(data.draw(st.sampled_from([lines[0], lines[-1]])))
        target = record
        if record["kind"] == "mission" and data.draw(st.booleans()):
            # One field nested in the spec, the environment or a fleet.
            record["fleet"] = {"n_drones": 2, "completion_rate": 0.5}
            target = record[data.draw(st.sampled_from(["spec", "environment", "fleet"]))]
        key = data.draw(st.sampled_from(sorted(target)))
        if data.draw(st.booleans()):
            del target[key]
        else:
            target[key] = data.draw(NON_FINITE | JSON_VALUES)
        try:
            parsed = record_from_line(json.dumps(record))
        except ValueError:
            return
        assert isinstance(parsed, (DecisionRecord, MissionRecord))
        records = traced_mission["recorder"].records
        if isinstance(parsed, DecisionRecord):
            # An accepted decision folds into the decision figures.
            decisions = [parsed] + records[1:]
            fig2_latency_deadline(decisions)
            fig5_governor_response(decisions)
        else:
            # An accepted mission folds into every table of the report.
            report = CampaignReport(records, [parsed, traced_mission["recorder"].mission_record])
            report.tables()
            report.to_markdown()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("speed", math.nan),
            ("position", [0.0, math.inf, 5.0]),
            ("policy", {"point_cloud_precision": -math.inf}),
            ("stage_latencies", {"runtime": math.nan}),
            ("design", ["roborun"]),
        ],
        ids=["scalar", "position", "policy", "stage_latencies", "text"],
    )
    def test_bad_decision_field_is_named_and_makes_the_trace_incomplete(
        self, traced_mission, tmp_path, field, value
    ):
        lines = traced_mission["path"].read_text().splitlines()
        data = json.loads(lines[0])
        data[field] = value
        torn = tmp_path / "torn.jsonl"
        torn.write_text("\n".join([json.dumps(data)] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match=rf"^{torn}:1: .*'{field}'"):
            list(TraceReader(torn))
        assert not is_complete_trace(torn)

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("design", ["x"], "design"),
            ("spec_name", 7, "spec_name"),
            ("metrics.mission_time_s", math.nan, "metrics.mission_time_s"),
            ("metrics.energy_kj", -math.inf, "metrics.energy_kj"),
            ("metrics", None, "metrics.mean_velocity_mps"),
            ("spec.world", 5, "spec.world"),
            ("spec.world.archetype", ["x"], "spec.world.archetype"),
            ("spec.faults", 5, "spec.faults"),
            ("spec.faults", {"schedule": 5}, "spec.faults.schedule"),
            ("spec.faults", {"schedule": [5]}, "spec.faults.schedule[0]"),
            ("spec.faults", {"schedule": [{"fault": 3}]}, "spec.faults.schedule[0].fault"),
            ("spec.n_drones", "x", "spec.n_drones"),
            ("spec.n_drones", 2.7, "spec.n_drones"),
            ("spec.n_drones", True, "spec.n_drones"),
            ("fleet", {"n_drones": 0}, "fleet.n_drones"),
            ("fleet", {"n_drones": 2, "completion_rate": "x"}, "fleet.completion_rate"),
            ("fleet", {"n_drones": 2, "completion_rate": math.nan}, "fleet.completion_rate"),
            ("environment.obstacle_density", "x", "environment.obstacle_density"),
            ("environment.goal_distance", math.nan, "environment.goal_distance"),
        ],
        ids=[
            "design", "spec_name", "nan_metric", "infinite_metric", "no_metrics",
            "world", "archetype", "faults", "schedule", "schedule_entry",
            "schedule_fault", "n_drones_text", "n_drones_float", "n_drones_bool",
            "fleet_n_drones", "completion_rate_text", "completion_rate_nan",
            "knob_text", "knob_nan",
        ],
    )
    def test_bad_mission_field_is_named_and_makes_the_trace_incomplete(
        self, traced_mission, tmp_path, field, value, named
    ):
        lines = traced_mission["path"].read_text().splitlines()
        data = json.loads(lines[-1])
        *parents, leaf = field.split(".")
        target = data
        for key in parents:
            target = target[key]
        target[leaf] = value
        torn = tmp_path / "torn.jsonl"
        torn.write_text("\n".join(lines[:-1] + [json.dumps(data)]) + "\n")
        with pytest.raises(
            ValueError, match=rf"^{torn}:{len(lines)}: .*'{re.escape(named)}'"
        ):
            list(TraceReader(torn))
        assert not is_complete_trace(torn)

    def test_reader_names_the_file_and_line(self, traced_mission, tmp_path):
        lines = traced_mission["path"].read_text().splitlines()
        torn = tmp_path / "torn.jsonl"
        torn.write_text("\n".join(lines[:2] + [INFINITE_SEED_LINE]) + "\n")
        with pytest.raises(ValueError, match=rf"^{torn}:3: "):
            list(TraceReader(torn))

    @pytest.mark.parametrize("bad_line", ['{"kind": "decision"}', "[1, 2]"])
    def test_bad_line_makes_the_trace_incomplete(
        self, traced_mission, tmp_path, bad_line
    ):
        lines = traced_mission["path"].read_text().splitlines()
        assert is_complete_trace(traced_mission["path"])
        torn = tmp_path / "torn.jsonl"
        torn.write_text("\n".join(lines[:-1] + [bad_line, lines[-1]]) + "\n")
        assert not is_complete_trace(torn)

    def test_clear_traces(self, tmp_path):
        (tmp_path / "old.jsonl").write_text("{}")
        (tmp_path / "keep.txt").write_text("not a trace")
        assert clear_traces(tmp_path) == 1
        assert clear_traces(tmp_path) == 0
        assert (tmp_path / "keep.txt").exists()
        assert clear_traces(tmp_path / "missing") == 0


class TestPreWorldsCompat:
    def test_pre_worlds_decision_line_still_parses(self, traced_mission):
        """A trace line without the worlds fields (schema as of PR 3) reads
        back with the documented defaults — old saved traces stay loadable."""
        import json

        record = traced_mission["recorder"].records[0]
        data = json.loads(record_to_line(record))
        assert data["archetype"] == "paper_corridor"
        del data["archetype"]
        del data["difficulty"]
        old = DecisionRecord.from_dict(data)
        assert old.archetype == ""
        assert old.difficulty == 0.0
        assert old.index == record.index
        assert old.stage_latencies == record.stage_latencies

    def test_worlds_context_recorded_per_decision(self, traced_mission):
        for record in traced_mission["recorder"].records:
            assert record.archetype == "paper_corridor"
            assert 0.0 <= record.difficulty <= 1.0
        mission = traced_mission["recorder"].mission_record
        assert mission.archetype == "paper_corridor"


class TestCampaignTraceDeterminism:
    def test_serial_and_parallel_traces_byte_identical(self, tmp_path):
        specs = [
            tiny_spec(name="a", seed=1),
            tiny_spec(name="b", design="spatial_oblivious", seed=2),
        ]
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = CampaignRunner(max_workers=1).run(specs, trace_dir=serial_dir)
        parallel = CampaignRunner(max_workers=2).run(specs, trace_dir=parallel_dir)
        assert serial.trace_dir == str(serial_dir)
        assert parallel.trace_dir == str(parallel_dir)
        for spec in specs:
            serial_bytes = trace_path(serial_dir, spec.name).read_bytes()
            parallel_bytes = trace_path(parallel_dir, spec.name).read_bytes()
            assert serial_bytes, f"empty trace for {spec.name}"
            assert serial_bytes == parallel_bytes

    def test_mixed_archetype_campaign_traces_byte_identical(self, tmp_path):
        """Worlds determinism across process boundaries: a grid sweeping two
        archetypes (one with a dynamic obstacle) streams byte-identical
        traces from serial and multiprocessing workers."""
        from repro import MoverSpec, WorldSpec, scenario_grid

        crosser = MoverSpec(
            kind="crosser", origin=(30.0, -20.0, 2.0), velocity=(0.0, 2.0, 0.0),
            span_m=40.0,
        )
        specs = scenario_grid(
            "mix",
            designs=("roborun",),
            worlds=(WorldSpec(archetype="forest"),
                    WorldSpec(archetype="warehouse", movers=(crosser,))),
            base_environment=TINY_ENV,
            mission=dataclasses.replace(TINY_CFG, max_decisions=8),
            base_seed=21,
        )
        assert len(specs) == 2
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        CampaignRunner(max_workers=1).run(specs, trace_dir=serial_dir)
        CampaignRunner(max_workers=2).run(specs, trace_dir=parallel_dir)
        for spec in specs:
            serial_bytes = trace_path(serial_dir, spec.name).read_bytes()
            assert serial_bytes, f"empty trace for {spec.name}"
            assert serial_bytes == trace_path(parallel_dir, spec.name).read_bytes()
        # The traces carry the archetype context they were flown in.
        report = CampaignReport.from_trace_dir(serial_dir)
        assert sorted({d.archetype for d in report.decisions}) == [
            "forest", "warehouse",
        ]
        assert {m.archetype for m in report.missions} == {"forest", "warehouse"}
        assert any(d.difficulty > 0.0 for d in report.decisions)

    def test_campaign_trace_aggregates_match_outcomes(self, tmp_path):
        specs = [
            tiny_spec(name="a", seed=1),
            tiny_spec(name="b", design="spatial_oblivious", seed=2),
        ]
        campaign = CampaignRunner(max_workers=1).run(specs, trace_dir=tmp_path)
        report = CampaignReport.from_trace_dir(tmp_path)
        assert len(report.missions) == 2
        by_name = {m.spec_name: m for m in report.missions}
        for outcome in campaign.outcomes:
            assert by_name[outcome.spec.name].metrics == outcome.metrics

    def test_stale_traces_swept_by_run(self, tmp_path):
        ghost = tmp_path / "ghost.jsonl"
        ghost.write_text("{}")
        CampaignRunner(max_workers=1).run(
            [tiny_spec(name="a", seed=1)], trace_dir=tmp_path
        )
        assert not ghost.exists()
        assert trace_path(tmp_path, "a").exists()

    def test_colliding_sanitised_names_rejected(self, tmp_path):
        specs = [tiny_spec(name="a/b", seed=1), tiny_spec(name="a_b", seed=2)]
        with pytest.raises(ValueError, match="colliding trace files"):
            CampaignRunner(max_workers=1).run(specs, trace_dir=tmp_path)

    def test_traced_mission_equals_untraced(self):
        """Tracing must not perturb the mission: same metrics, and the same
        dispatch log (the recorder subscribes to no topic)."""
        for n_drones in (1, 2):
            spec = dataclasses.replace(tiny_spec(name="t", seed=3), n_drones=n_drones)
            plain = spec.run()
            traced = spec.run(recorder=TraceRecorder(spec=spec))
            assert traced.metrics.as_dict() == plain.metrics.as_dict()
            assert traced.pipeline.dispatch_log() == plain.pipeline.dispatch_log()
