"""Figure aggregators, campaign error surfacing and the report CLI."""

import dataclasses
import json
import math
import sys

import pytest

from repro import (
    CampaignRunner,
    EnvironmentConfig,
    MissionConfig,
    ScenarioSpec,
)
from repro.analysis import CampaignReport, FigureTable
from repro.analysis.figures import (
    archetype_comparison,
    fault_robustness,
    fig2_latency_deadline,
    fig2a_model_table,
    fig5_governor_response,
    fig5_model_table,
    fig7_overall,
    fig8_sensitivity,
    fleet_scaling,
)
from repro.analysis.trace import DecisionRecord, MissionRecord, record_to_line
from repro.report import load_grid_file, main as report_main

TINY_ENV = EnvironmentConfig(
    obstacle_density=0.3, obstacle_spread=30.0, goal_distance=60.0, seed=7
)
TINY_CFG = MissionConfig(max_decisions=12, max_mission_time_s=100.0)


def make_decision(design="roborun", index=0, speed=1.0, visibility=10.0,
                  latency=0.5, budget=2.0):
    return DecisionRecord(
        spec_name="t",
        design=design,
        index=index,
        timestamp=float(index),
        position=(0.0, 0.0, 5.0),
        zone="A",
        speed=speed,
        velocity_cap=2.0,
        time_budget=budget,
        predicted_latency=latency,
        solver_feasible=True,
        policy={"point_cloud_precision": 0.6},
        stage_latencies={"runtime": latency, "comm_control": 0.0},
        end_to_end_latency=latency,
        visibility=visibility,
        closest_obstacle=5.0,
        gap_min=1.0,
        gap_avg=2.0,
        sensor_volume=1000.0,
        map_volume=500.0,
        map_voxels=100,
        flown=1.0,
        interval=1.0,
        energy=450.0,
        replanned=False,
        dropped=False,
        hit=False,
    )


def make_mission(design="roborun", name="m", density=0.3, time_s=100.0, error=None,
                 archetype=None):
    return MissionRecord(
        spec_name=name,
        design=design,
        seed=1,
        environment={"obstacle_density": density, "obstacle_spread": 30.0,
                     "goal_distance": 60.0},
        metrics={} if error else {
            "success": 1.0,
            "mission_time_s": time_s,
            "mean_velocity_mps": 60.0 / time_s,
            "energy_kj": time_s * 0.5,
            "mean_cpu_utilization": 0.5,
            "decision_count": 10.0,
        },
        error=error,
        spec={"world": {"archetype": archetype}} if archetype else None,
    )


class TestFigureTable:
    def test_markdown_and_csv(self):
        table = FigureTable("k", "T", ["a", "b"], [[1, 2], [3, 4]])
        md = table.to_markdown()
        assert md.splitlines()[0] == "| a | b |"
        assert "| 3 | 4 |" in md
        assert table.to_csv() == "a,b\n1,2\n3,4\n"
        assert table.as_rows() == [["a", "b"], [1, 2], [3, 4]]


class TestTraceAggregators:
    def test_fig2_bins_by_design_and_speed(self):
        decisions = [
            make_decision(speed=0.2, latency=0.4, budget=1.0),
            make_decision(speed=0.3, latency=0.6, budget=2.0),
            make_decision(design="spatial_oblivious", speed=0.2),
        ]
        table = fig2_latency_deadline(decisions)
        # baseline row first, then roborun; one bucket each
        assert table.rows[0][0] == "spatial_oblivious"
        robo = table.rows[1]
        assert robo[2] == 2  # two decisions in the [0, 0.5) bucket
        assert robo[3] == pytest.approx(1.5)  # mean deadline
        assert robo[4] == pytest.approx(0.5)  # mean latency
        assert robo[5] == 1.0  # both met their deadline

    def test_fig2_gives_a_speed_past_the_last_finite_bin_its_own_bin(self):
        table = fig2_latency_deadline([make_decision(speed=sys.float_info.max)])
        assert table.rows[0][1] == "[inf, inf)"

    def test_fig5_static_column_is_flat(self):
        decisions = [
            make_decision(design="spatial_oblivious", visibility=v,
                          latency=2.0, budget=6.7)
            for v in (2.0, 12.0, 22.0)
        ] + [
            make_decision(visibility=v, latency=0.2 + v / 100.0, budget=v / 2.0)
            for v in (2.0, 12.0, 22.0)
        ]
        table = fig5_governor_response(decisions)
        static_deadlines = {row[table.columns.index("spatial_oblivious_deadline_s")]
                            for row in table.rows}
        assert static_deadlines == {6.7}
        robo_deadlines = [row[table.columns.index("roborun_deadline_s")]
                          for row in table.rows]
        assert robo_deadlines == sorted(robo_deadlines)

    def test_fig7_improvement_ratios(self):
        missions = [
            make_mission(design="spatial_oblivious", name="b", time_s=200.0),
            make_mission(design="roborun", name="r", time_s=100.0),
        ]
        table = fig7_overall(missions)
        assert table.columns == ["metric", "spatial_oblivious", "roborun", "improvement"]
        by_metric = {row[0]: row for row in table.rows}
        assert by_metric["mission time (s)"][3] == pytest.approx(2.0)
        assert by_metric["flight velocity (m/s)"][3] == pytest.approx(2.0)
        assert by_metric["CPU utilization"][3] == pytest.approx(0.0)

    def test_fig7_skips_errored_missions(self):
        missions = [
            make_mission(design="roborun", name="ok", time_s=100.0),
            make_mission(design="roborun", name="bad",
                         error={"type": "ValueError", "message": "boom"}),
        ]
        table = fig7_overall(missions)
        assert table.rows[0] == ["missions", 1]

    def test_fig8_ratio_and_degenerate_sweep(self):
        missions = [
            make_mission(name="a", density=0.3, time_s=100.0),
            make_mission(name="b", density=0.6, time_s=150.0),
        ]
        table = fig8_sensitivity(missions, "obstacle_density")
        assert table.meta["ratios"]["roborun"] == pytest.approx(1.5)
        degenerate = fig8_sensitivity(missions, "obstacle_spread")
        assert degenerate.meta["ratios"]["roborun"] is None
        assert degenerate.rows[0][-1] == "n/a"

    def test_failed_mission_decisions_excluded_from_fig_tables(self):
        """Partial decision records of a crashed spec must not skew fig2/fig5."""
        good = make_decision(speed=1.0, latency=0.5)
        bad = dataclasses.replace(
            make_decision(speed=1.0, latency=99.0), spec_name="bad"
        )
        missions = [
            make_mission(name="t"),
            make_mission(name="bad", error={"type": "X", "message": "y"}),
        ]
        report = CampaignReport([good, bad], missions)
        fig2 = report.fig2()
        assert sum(row[2] for row in fig2.rows) == 1  # only the completed one
        assert all(row[4] != 99.0 for row in fig2.rows)

    def test_model_tables_have_expected_shape(self):
        fig2a = fig2a_model_table()
        assert fig2a.columns[0] == "precision_m"
        assert len(fig2a.rows) == 6
        fig5 = fig5_model_table()
        static = [row[1] for row in fig5.rows]
        assert len(set(static)) == 1  # static latency is flat by construction


class TestArchetypeComparison:
    def test_rows_group_by_archetype_with_speedups(self):
        missions = [
            make_mission(design="spatial_oblivious", name="b1", time_s=200.0,
                         archetype="forest"),
            make_mission(design="roborun", name="r1", time_s=100.0,
                         archetype="forest"),
            make_mission(design="spatial_oblivious", name="b2", time_s=300.0,
                         archetype="warehouse"),
            make_mission(design="roborun", name="r2", time_s=100.0,
                         archetype="warehouse"),
        ]
        table = archetype_comparison(missions)
        assert table.key == "archetypes"
        assert [row[0] for row in table.rows] == ["forest", "warehouse"]
        assert table.meta["speedups"]["forest"] == pytest.approx(2.0)
        assert table.meta["speedups"]["warehouse"] == pytest.approx(3.0)
        # Baseline columns come first (design_order), then roborun.
        assert table.columns[1].startswith("spatial_oblivious")
        assert table.rows[0][-1] == 2.0

    def test_missing_pair_reports_na(self):
        missions = [make_mission(design="roborun", name="r", archetype="forest")]
        table = archetype_comparison(missions)
        assert table.rows[0][-1] == "n/a"
        assert table.meta["speedups"]["forest"] is None

    def test_pre_worlds_records_count_as_paper_corridor(self):
        missions = [
            make_mission(design="roborun", name="old"),  # no spec at all
            make_mission(design="spatial_oblivious", name="old_b"),
        ]
        table = archetype_comparison(missions)
        assert [row[0] for row in table.rows] == ["paper_corridor"]
        assert missions[0].archetype == "paper_corridor"

    def test_errored_missions_excluded(self):
        missions = [
            make_mission(design="roborun", name="ok", archetype="forest"),
            make_mission(design="roborun", name="bad", archetype="forest",
                         error={"type": "RuntimeError", "message": "boom"}),
        ]
        table = archetype_comparison(missions)
        assert table.columns[1] == "roborun_missions"
        assert table.rows[0][1] == 1  # only "ok" counted

    def test_report_includes_archetype_table(self):
        report = CampaignReport(
            decisions=[],
            missions=[make_mission(design="roborun", name="r", archetype="forest")],
        )
        assert report.archetypes().rows
        assert "Per-archetype comparison" in report.to_markdown()


def _pinned_mission(design, name, time_s, spec, success=1.0, miss_rate=None,
                    fleet=None, error=None):
    metrics = {
        "success": success,
        "mission_time_s": time_s,
        "mean_velocity_mps": 60.0 / time_s if time_s else 0.0,
        "energy_kj": time_s * 0.4 + 1.0,
    }
    if miss_rate is not None:
        metrics["deadline_miss_rate"] = miss_rate
    return MissionRecord(
        spec_name=name, design=design, seed=1, metrics={} if error else metrics,
        error=error, spec=spec, fleet=fleet,
    )


#: One fixed record set for the three grouped A/B tables: a forest pair
#: (2-drone fleet, brownout), a fault-free corridor pair whose specs lack
#: ``world``/``n_drones``/``faults`` and whose RoboRun mean time is 0, a
#: warehouse mission only RoboRun flew (under a fault that sorts before
#: ``"none"``), and an error record that every table must drop.
PINNED_MISSIONS = [
    _pinned_mission(
        "spatial_oblivious", "b_forest", 200.0,
        {"world": {"archetype": "forest"}, "n_drones": 2,
         "faults": {"schedule": [{"fault": "power_brownout"}]}},
        miss_rate=0.25,
    ),
    _pinned_mission(
        "roborun", "r_forest", 100.0,
        {"world": {"archetype": "forest"}, "n_drones": 2,
         "faults": {"schedule": [{"fault": "power_brownout"}]}},
        miss_rate=0.1, fleet={"n_drones": 2, "completion_rate": 0.5},
    ),
    _pinned_mission("spatial_oblivious", "b_corridor", 150.0, {"world": {}}),
    _pinned_mission("roborun", "r_corridor", 0.0, None, success=0.0),
    _pinned_mission(
        "roborun", "r_warehouse", 80.0,
        {"world": {"archetype": "warehouse"},
         "faults": {"camera_degradation": {"width": 16, "height": 12}}},
        miss_rate=0.05,
    ),
    _pinned_mission(
        "roborun", "r_crashed", 0.0,
        {"world": {"archetype": "cave"}, "n_drones": 8,
         "faults": {"sensor_dropout": {"every_n": 3}}},
        error={"type": "RuntimeError", "message": "boom"},
    ),
]


class TestGroupedComparisonTables:
    """The archetype, fleet and fault tables, pinned byte for byte."""

    def test_archetype_table(self):
        table = archetype_comparison(PINNED_MISSIONS)
        assert table.key == "archetypes"
        assert table.title == (
            "Per-archetype comparison: governor vs. baseline across world archetypes"
        )
        assert table.to_csv() == (
            "archetype,spatial_oblivious_missions,spatial_oblivious_success_rate,"
            "spatial_oblivious_time_s,spatial_oblivious_velocity_mps,"
            "roborun_missions,roborun_success_rate,roborun_time_s,"
            "roborun_velocity_mps,time_speedup\n"
            "forest,1,1.0,200.0,0.3,1,1.0,100.0,0.6,2.0\n"
            "paper_corridor,1,1.0,150.0,0.4,1,0.0,0.0,0.0,n/a\n"
            "warehouse,0,-,-,-,1,1.0,80.0,0.75,n/a\n"
        )
        assert table.meta == {
            "speedups": {"forest": 2.0, "paper_corridor": None, "warehouse": None},
            "archetypes": ["forest", "paper_corridor", "warehouse"],
        }

    def test_fleet_table(self):
        table = fleet_scaling(PINNED_MISSIONS)
        assert table.key == "fleet"
        assert table.title == "Fleet scaling: governor vs. baseline as the fleet grows"
        assert table.to_csv() == (
            "n_drones,spatial_oblivious_missions,spatial_oblivious_completion_rate,"
            "spatial_oblivious_time_s,spatial_oblivious_energy_kj,"
            "roborun_missions,roborun_completion_rate,roborun_time_s,"
            "roborun_energy_kj,time_speedup\n"
            "1,1,1.0,150.0,61.0,2,0.5,40.0,17.0,3.75\n"
            "2,1,1.0,200.0,81.0,1,0.5,100.0,41.0,2.0\n"
        )
        assert table.meta == {"speedups": {1: 3.75, 2: 2.0}, "sizes": [1, 2]}

    def test_fault_table(self):
        table = fault_robustness(PINNED_MISSIONS)
        assert table.key == "faults"
        assert table.title == (
            "Fault robustness: governor vs. baseline under injected faults"
        )
        assert table.to_csv() == (
            "fault,spatial_oblivious_missions,spatial_oblivious_completion_rate,"
            "spatial_oblivious_time_s,spatial_oblivious_energy_kj,"
            "spatial_oblivious_deadline_miss_rate,roborun_missions,"
            "roborun_completion_rate,roborun_time_s,roborun_energy_kj,"
            "roborun_deadline_miss_rate,time_speedup\n"
            "none,1,1.0,150.0,61.0,0.0,1,0.0,0.0,1.0,0.0,n/a\n"
            "camera_degradation,0,-,-,-,-,1,1.0,80.0,33.0,0.05,n/a\n"
            "power_brownout,1,1.0,200.0,81.0,0.25,1,0.5,100.0,41.0,0.1,2.0\n"
        )
        assert table.meta == {
            "speedups": {"none": None, "camera_degradation": None,
                         "power_brownout": 2.0},
            "labels": ["none", "camera_degradation", "power_brownout"],
        }


class TestCampaignErrorRecords:
    def _good_spec(self):
        return ScenarioSpec(
            name="good", design="roborun", environment=TINY_ENV, mission=TINY_CFG
        )

    def test_worker_surfaces_exception_as_error_row(self):
        from repro.simulation.campaign import _run_payload

        bad_payload = {
            "spec": {"name": "bad", "design": "roborun",
                     "environment": {"obstacle_density": 5.0}},
            "keep_results": False,
        }
        row = _run_payload(bad_payload)
        assert "metrics" not in row
        assert row["error"]["type"] == "ValueError"
        assert "obstacle density" in row["error"]["message"]
        assert json.loads(row["error"]["spec_json"])["name"] == "bad"
        assert "Traceback" in row["error"]["traceback"]

    def test_unparseable_spec_still_leaves_error_trace(self, tmp_path):
        """A spec that fails to even parse must leave an error record on disk."""
        from repro.analysis import CampaignReport as Report
        from repro.simulation.campaign import _run_payload

        row = _run_payload({
            "spec": {"name": "bad", "design": "roborun",
                     "environment": {"obstacle_density": 5.0}},
            "trace_dir": str(tmp_path),
        })
        assert row["error"]["type"] == "ValueError"
        report = Report.from_trace_dir(tmp_path)
        assert len(report.failures()) == 1
        assert report.failures()[0].spec_name == "bad"

    def test_clean_campaign_has_no_failures(self):
        campaign = CampaignRunner(max_workers=1).run([self._good_spec()])
        assert campaign.failures() == []
        assert campaign.outcomes[0].ok

    def test_error_outcome_aggregation(self, tmp_path, monkeypatch):
        import repro.simulation.campaign as campaign_mod

        good = self._good_spec()
        bad = dataclasses.replace(good, name="boom")
        original = campaign_mod.ScenarioSpec.run

        def exploding_run(self, recorder=None, taps=()):
            if self.name == "boom":
                raise RuntimeError("mid-mission failure")
            return original(self, recorder=recorder, taps=taps)

        monkeypatch.setattr(campaign_mod.ScenarioSpec, "run", exploding_run)
        campaign = CampaignRunner(max_workers=1).run(
            [good, bad], trace_dir=tmp_path
        )
        assert len(campaign.failures()) == 1
        failure = campaign.failures()[0]
        assert failure.spec.name == "boom"
        assert failure.metrics is None
        assert failure.error["type"] == "RuntimeError"
        assert json.loads(failure.error["spec_json"])["name"] == "boom"
        # The trace stream records the failure too, so trace-only reports
        # show the partial failure and fold only the spec that flew.
        report = CampaignReport.from_trace_dir(tmp_path)
        fig7 = {row[0]: row for row in report.fig7().rows}
        assert fig7["missions"] == ["missions", 1]
        assert fig7["mission time (s)"][1] > 0
        assert len(report.failures()) == 1
        assert report.failures()[0].spec_name == "boom"
        markdown = report.to_markdown()
        assert "Partial failures" in markdown
        assert "RuntimeError" in markdown


class TestReportCli:
    def test_grid_file_shapes(self, tmp_path):
        grid = tmp_path / "g.json"
        grid.write_text(json.dumps({
            "grid": {
                "name_prefix": "g",
                "designs": ["roborun"],
                "densities": [0.3, 0.5],
                "base_environment": {"obstacle_spread": 30.0, "goal_distance": 60.0},
                "mission": {"max_decisions": 5},
                "base_seed": 3,
            }
        }))
        specs = load_grid_file(grid)
        assert [s.design for s in specs] == ["roborun", "roborun"]
        assert [s.seed for s in specs] == [3, 4]

        listed = tmp_path / "list.json"
        listed.write_text(json.dumps([s.to_dict() for s in specs]))
        assert load_grid_file(listed) == specs

        with pytest.raises(ValueError):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps({"nope": 1}))
            load_grid_file(bad)

    @pytest.mark.parametrize(
        "text, message",
        [
            (json.dumps({"grid": {"name_prefix": "bad", "n_drones": 2}}), "'n_drones'"),
            (json.dumps({"specs": [{"name": 5}]}), "name"),
            ("{not json", "Expecting"),
            (None, "No such file"),
        ],
    )
    def test_cli_rejects_a_malformed_grid_as_a_usage_error(
        self, tmp_path, capsys, text, message
    ):
        grid = tmp_path / "bad.json"
        if text is not None:
            grid.write_text(text)
        with pytest.raises(SystemExit) as exit_info:
            report_main([
                "--grid", str(grid),
                "--out", str(tmp_path / "report.md"),
                "--trace-dir", str(tmp_path / "traces"),
            ])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "traces").exists()

    @pytest.mark.parametrize(
        "line",
        [
            '{"kind":"mission","spec_name":"a","design":"b","seed":Infinity}',
            "[" * 5000,
            "{not json",
            record_to_line(dataclasses.replace(make_decision(), speed=math.nan)),
        ],
        ids=["infinite_seed", "deep_nesting", "not_json", "nan_speed"],
    )
    def test_cli_rejects_a_malformed_trace_as_a_usage_error(self, tmp_path, capsys, line):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        (trace_dir / "bad.jsonl").write_text(line + "\n")
        out = tmp_path / "report.md"
        with pytest.raises(SystemExit) as exit_info:
            report_main(["--traces", str(trace_dir), "--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "bad.jsonl:1: " in err and "Traceback" not in err
        assert not out.exists()

    def test_cli_rejects_a_malformed_heartbeat_as_a_usage_error(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        (trace_dir / "telemetry").mkdir(parents=True)
        (trace_dir / "m.jsonl").write_text(record_to_line(make_mission()) + "\n")
        heartbeats = trace_dir / "telemetry" / "heartbeats.jsonl"
        heartbeats.write_text('{"spec": "x", "seq": 0}\n')
        out = tmp_path / "report.md"
        with pytest.raises(SystemExit) as exit_info:
            report_main(["--traces", str(trace_dir), "--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"{heartbeats}:1: " in err and "'status'" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_cli_end_to_end_on_tiny_grid(self, tmp_path):
        grid = tmp_path / "tiny.json"
        grid.write_text(json.dumps({
            "grid": {
                "name_prefix": "tiny",
                "densities": [0.3],
                "base_environment": {"obstacle_spread": 30.0, "goal_distance": 60.0,
                                     "seed": 7},
                "mission": {"max_decisions": 8, "max_mission_time_s": 60.0},
                "base_seed": 7,
            }
        }))
        out = tmp_path / "report.md"
        trace_dir = tmp_path / "traces"
        # A stale trace from an earlier, different campaign must not leak
        # into the new report.
        trace_dir.mkdir()
        stale = trace_dir / "stale_spec.jsonl"
        stale.write_text("")
        code = report_main([
            "--grid", str(grid),
            "--out", str(out),
            "--trace-dir", str(trace_dir),
            "--workers", "1",
            "--csv-dir", str(tmp_path / "csv"),
        ])
        assert code == 0
        assert not stale.exists()
        content = out.read_text()
        assert content.strip()
        assert "stale_spec" not in content
        for anchor in ("Figure 2", "Figure 5", "Figure 7", "Figure 8",
                       "Per-archetype comparison"):
            assert anchor in content
        assert "paper_corridor" in content
        assert (tmp_path / "csv" / "fig7.csv").exists()
        # Re-reporting from the saved traces alone reproduces the report.
        out2 = tmp_path / "report2.md"
        assert report_main(["--traces", str(trace_dir), "--out", str(out2)]) == 0
        body = lambda text: text.split("\n", 1)[1]
        assert body(out2.read_text()) == body(content)
