"""Campaign telemetry: heartbeats, runtime tables, live progress.

The contract has two halves: with telemetry ON, heartbeats flow from every
worker (serial or pooled) into the JSONL file, the progress hook and the
report's runtime table; with telemetry OFF (the default), campaigns take
exactly the pre-obs code path and their trace files are byte-identical to
a telemetry-enabled run.
"""

import json
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    CampaignRunner,
    CampaignReport,
    EnvironmentConfig,
    MissionConfig,
    ScenarioSpec,
)
from repro.obs.heartbeat import (
    HEARTBEAT_FILE,
    HEARTBEAT_STATUSES,
    HeartbeatEmitter,
    HeartbeatRecord,
    peak_rss_mb,
    read_heartbeats,
    runtime_summary,
    write_heartbeats,
)
from repro.report import _ProgressLine

TINY_ENV = EnvironmentConfig(
    obstacle_density=0.15, obstacle_spread=25.0, goal_distance=30.0, seed=11
)
TINY_CFG = MissionConfig(max_decisions=3, max_mission_time_s=30.0)


#: Any JSON value Python's ``json`` reads, ``Infinity`` and ``NaN`` included.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _heartbeats():
    """A real emitter's heartbeats for one spec: start, running and error."""
    records = []
    emitter = HeartbeatEmitter("spec-a", SimpleNamespace(put=records.append))
    emitter.emit("start")
    emitter.emit("running")
    emitter.emit("error", error="ValueError: boom")
    return records


def _specs(count=2):
    return [
        ScenarioSpec(
            name=f"tele-{i}", environment=TINY_ENV, mission=TINY_CFG
        ).seeded(11 + i)
        for i in range(count)
    ]


class TestHeartbeatPrimitives:
    def test_record_round_trips_and_omits_empty_error(self):
        record = HeartbeatRecord(
            spec="s", status="done", seq=3, epoch=7, decisions=8,
            wall_elapsed_s=1.5, rss_mb=120.0, pid=42,
        )
        data = record.to_dict()
        assert "error" not in data
        assert HeartbeatRecord.from_dict(json.loads(json.dumps(data))) == record
        errored = HeartbeatRecord(
            spec="s", status="error", seq=4, epoch=7, decisions=8,
            wall_elapsed_s=1.6, rss_mb=120.0, pid=42, error="ValueError: no",
        )
        assert errored.to_dict()["error"] == "ValueError: no"

    def test_peak_rss_is_positive_on_this_platform(self):
        assert peak_rss_mb() > 0

    def test_write_and_read_round_trip(self, tmp_path):
        records = []
        sink = SimpleNamespace(put=records.append)
        emitter = HeartbeatEmitter("spec-a", sink, min_interval_s=0.0)
        emitter.emit("start")
        emitter.emit("done")
        path = write_heartbeats(records, tmp_path / "t" / HEARTBEAT_FILE)
        records = read_heartbeats(path)
        assert [r.status for r in records] == ["start", "done"]
        assert [r.seq for r in records] == [0, 1]

    def test_read_missing_file_is_empty(self, tmp_path):
        assert read_heartbeats(tmp_path / "absent.jsonl") == []

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[1, 2]", "not a JSON object"),
            ('{"spec": "x", "seq": 0}', "lacks the 'status' field"),
            ('{"spec": "x", "status": "done", "seq": "0", "epoch": 0, "decisions": 0,'
             ' "wall_elapsed_s": 0.5, "rss_mb": 1.0, "pid": 1}', "'seq' must be of type int"),
            ('{"spec": "x", "status": "done", "seq": 0, "epoch": 0, "decisions": 1%s,'
             ' "wall_elapsed_s": 0.5, "rss_mb": 1.0, "pid": 1}' % ("0" * 400),
             "'decisions' is past the 64-bit range"),
            ("[" * 5000, "nests too deeply"),
        ],
        ids=["not_an_object", "missing_field", "wrong_type", "huge_count", "deep_nesting"],
    )
    def test_read_names_the_file_and_line_of_a_bad_heartbeat(
        self, tmp_path, line, message
    ):
        good = json.dumps(_heartbeats()[0])
        path = tmp_path / HEARTBEAT_FILE
        path.write_text(good + "\n" + line + "\n")
        with pytest.raises(ValueError, match=rf"^{path}:2: .*{re.escape(message)}"):
            read_heartbeats(path)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_bad_field_raises_only_value_error(self, data):
        records = _heartbeats()
        record = records[data.draw(st.sampled_from([0, len(records) - 1]))]
        key = data.draw(st.sampled_from(sorted(record)))
        if data.draw(st.booleans()):
            del record[key]
        else:
            record[key] = data.draw(JSON_VALUES)
        try:
            parsed = [HeartbeatRecord.from_dict(json.loads(json.dumps(r))) for r in records]
        except ValueError:
            return
        CampaignReport(heartbeats=parsed).runtime_table()

    def test_runtime_summary_uses_last_record_per_spec(self):
        records = [
            HeartbeatRecord("a", "start", 0, -1, 0, 0.0, 10.0, 1),
            HeartbeatRecord("a", "running", 1, 4, 5, 2.0, 11.0, 1),
            HeartbeatRecord("a", "done", 2, 9, 10, 5.0, 12.0, 1),
            HeartbeatRecord("b", "error", 1, -1, 0, 0.5, 9.0, 2,
                            error="ValueError: boom"),
        ]
        summary = runtime_summary(records)
        assert summary["a"]["status"] == "done"
        assert summary["a"]["decisions"] == 10
        assert summary["a"]["decisions_per_sec"] == pytest.approx(2.0)
        assert summary["a"]["peak_rss_mb"] == 12.0
        assert summary["b"]["status"] == "error"
        assert summary["b"]["error"] == "ValueError: boom"

    def test_runtime_summary_prefers_arrival_order_over_seq(self):
        # An async retry restarts the emitter: the dead attempt got further
        # (higher seq) than the successful retry, but the retry's 'done'
        # arrived later and must win.
        records = [
            HeartbeatRecord("a", "running", 8, 30, 31, 9.0, 15.0, 1),
            HeartbeatRecord("a", "retry", 0, -1, 0, 9.5, 0.0, 99),
            HeartbeatRecord("a", "done", 2, 9, 10, 4.0, 12.0, 2),
        ]
        summary = runtime_summary(records)
        assert summary["a"]["status"] == "done"
        assert summary["a"]["decisions"] == 10


class TestCampaignTelemetry:
    def test_serial_campaign_writes_heartbeat_file(self, tmp_path):
        specs = _specs()
        CampaignRunner(max_workers=1).run(
            specs, telemetry_dir=tmp_path / "telemetry"
        )
        records = read_heartbeats(tmp_path / "telemetry" / HEARTBEAT_FILE)
        by_spec = {}
        for record in records:
            by_spec.setdefault(record.spec, []).append(record.status)
        assert set(by_spec) == {s.name for s in specs}
        for statuses in by_spec.values():
            assert statuses[0] == "start"
            assert statuses[-1] == "done"

    def test_parallel_campaign_streams_heartbeats(self, tmp_path):
        specs = _specs()
        CampaignRunner(max_workers=2).run(
            specs, telemetry_dir=tmp_path / "telemetry"
        )
        records = read_heartbeats(tmp_path / "telemetry" / HEARTBEAT_FILE)
        statuses = {(r.spec, r.status) for r in records}
        for spec in specs:
            assert (spec.name, "start") in statuses
            assert (spec.name, "done") in statuses

    def test_parallel_heartbeat_file_holds_only_known_statuses(self, tmp_path):
        telemetry_dir = tmp_path / "telemetry"
        CampaignRunner(max_workers=2).run(_specs(), telemetry_dir=telemetry_dir)
        records = read_heartbeats(telemetry_dir / HEARTBEAT_FILE)
        assert records
        for record in records:
            assert record.status in HEARTBEAT_STATUSES

    def test_traces_identical_with_and_without_telemetry(self, tmp_path):
        specs = _specs()
        plain_dir = tmp_path / "plain"
        tele_dir = tmp_path / "tele"
        CampaignRunner(max_workers=1).run(specs, trace_dir=plain_dir)
        CampaignRunner(max_workers=2).run(
            specs, trace_dir=tele_dir, telemetry_dir=tele_dir / "telemetry"
        )
        plain = sorted(p.name for p in plain_dir.glob("*.jsonl"))
        tele = sorted(p.name for p in tele_dir.glob("*.jsonl"))
        assert plain == tele and plain
        for name in plain:
            assert (plain_dir / name).read_bytes() == (
                tele_dir / name
            ).read_bytes(), f"telemetry perturbed trace {name}"

    def test_rerun_into_same_telemetry_dir_replaces_heartbeats(self, tmp_path):
        """Regression: write_heartbeats appends, so without the campaign-start
        sweep a re-run would accumulate the previous run's records and
        runtime_summary would report stale totals."""
        specs = _specs()
        telemetry_dir = tmp_path / "telemetry"
        CampaignRunner(max_workers=1).run(specs, telemetry_dir=telemetry_dir)
        first = read_heartbeats(telemetry_dir / HEARTBEAT_FILE)
        CampaignRunner(max_workers=1).run(specs, telemetry_dir=telemetry_dir)
        second = read_heartbeats(telemetry_dir / HEARTBEAT_FILE)
        assert len(second) == len(first)  # not len(first) + len(second run)
        summary = runtime_summary(second)
        assert set(summary) == {s.name for s in specs}

    def test_no_telemetry_by_default(self, tmp_path):
        CampaignRunner(max_workers=1).run(_specs(1), trace_dir=tmp_path)
        assert not (tmp_path / "telemetry").exists()

    def test_progress_hook_receives_heartbeats(self):
        seen = []
        CampaignRunner(max_workers=1).run(_specs(1), progress=seen.append)
        assert [r["status"] for r in seen][0] == "start"
        assert [r["status"] for r in seen][-1] == "done"

    def test_failing_spec_emits_error_heartbeat(self, monkeypatch):
        def exploding_run(self, recorder=None, taps=()):
            for tap in taps:
                pass
            raise RuntimeError("mid-air collision with a test")

        monkeypatch.setattr(ScenarioSpec, "run", exploding_run)
        seen = []
        CampaignRunner(max_workers=1).run(_specs(1), progress=seen.append)
        error = [r for r in seen if r["status"] == "error"]
        assert len(error) == 1
        assert "RuntimeError" in error[0]["error"]


class TestReportIntegration:
    def test_runtime_table_folds_into_the_report(self, tmp_path):
        specs = _specs()
        CampaignRunner(max_workers=1).run(
            specs,
            trace_dir=tmp_path,
            telemetry_dir=tmp_path / "telemetry",
        )
        report = CampaignReport.from_trace_dir(tmp_path)
        table = report.runtime_table()
        assert [row[0] for row in table.rows] == sorted(s.name for s in specs)
        status_col = table.columns.index("status")
        assert all(row[status_col] == "done" for row in table.rows)
        markdown = report.to_markdown(title="t")
        assert "## Runtime (campaign telemetry)" in markdown

    def test_report_without_telemetry_has_no_runtime_section(self, tmp_path):
        CampaignRunner(max_workers=1).run(_specs(1), trace_dir=tmp_path)
        report = CampaignReport.from_trace_dir(tmp_path)
        assert report.runtime_table().rows == []
        assert "Runtime (campaign telemetry)" not in report.to_markdown(title="t")

    def test_runtime_csv_is_written(self, tmp_path):
        CampaignRunner(max_workers=1).run(
            _specs(1),
            trace_dir=tmp_path,
            telemetry_dir=tmp_path / "telemetry",
        )
        report = CampaignReport.from_trace_dir(tmp_path)
        written = report.write_csvs(tmp_path / "csv")
        assert any(p.name == "runtime.csv" for p in written)


class TestProgressLine:
    def _record(self, status, spec="s", epoch=3):
        return {"status": status, "spec": spec, "epoch": epoch, "rss_mb": 50.0}

    def test_counts_done_and_failed(self):
        line = _ProgressLine(total_specs=3)
        line(self._record("start"))
        line(self._record("done"))
        line(self._record("error"))
        assert line.done == 2
        assert line.failed == 1

    def test_silent_when_stderr_is_not_a_tty(self, capsys):
        line = _ProgressLine(total_specs=1)
        line(self._record("done"))
        line.close()
        captured = capsys.readouterr()
        assert captured.err == ""

    def test_renders_on_a_tty(self, monkeypatch, capsys):
        import repro.report as report_module

        class _TtyStderr:
            def __init__(self):
                self.buffer = []

            def isatty(self):
                return True

            def write(self, text):
                self.buffer.append(text)

            def flush(self):
                pass

        fake = _TtyStderr()
        monkeypatch.setattr(report_module.sys, "stderr", fake)
        line = _ProgressLine(total_specs=2)
        line(self._record("done", spec="alpha"))
        line.close()
        text = "".join(fake.buffer)
        assert "[1/2] alpha" in text
        assert text.endswith("\n")
