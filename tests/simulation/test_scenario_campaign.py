"""Tests for the declarative scenario layer and the campaign runner."""

import dataclasses
import json

import pytest

from repro import (
    CampaignRunner,
    EnvironmentConfig,
    FaultSet,
    MissionConfig,
    ScenarioSpec,
    SensorDropout,
    WorldSpec,
    scenario_grid,
)
from repro.report import load_grid_file
from repro.simulation.campaign import _run_payload

TINY_ENV = EnvironmentConfig(
    obstacle_density=0.3, obstacle_spread=30.0, goal_distance=60.0, seed=7
)
TINY_CFG = MissionConfig(max_decisions=15, max_mission_time_s=100.0)


def tiny_spec(name="tiny", design="roborun", **overrides):
    return ScenarioSpec(
        name=name,
        design=design,
        environment=dataclasses.replace(TINY_ENV, **overrides),
        mission=TINY_CFG,
    )


class TestScenarioSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="", design="roborun")
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", design="not_a_design")

    def test_json_round_trip(self):
        spec = ScenarioSpec(
            name="rt",
            design="spatial_oblivious",
            environment=TINY_ENV,
            mission=dataclasses.replace(TINY_CFG, flight_band_m=(1.5, 9.5)),
            faults=FaultSet(sensor_dropout=SensorDropout(every_n=4, start_decision=2)),
        )
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.mission.flight_band_m == (1.5, 9.5)
        assert restored.faults.sensor_dropout.every_n == 4

    @pytest.mark.parametrize(
        "field, value",
        [
            ("camera_width", 0),
            ("camera_height", 0),
            ("camera_range_m", 0.0),
            ("planner_iterations", 0),
            ("planner_step_m", -1.0),
            ("local_map_radius_m", 0.0),
            ("collision_margin_m", -0.1),
            ("planner_margin_m", -1.0),
            ("emergency_brake_lookahead_s", -0.5),
            ("replan_interval_decisions", 0),
            ("max_consecutive_plan_failures", 0),
            ("max_mission_time_s", 0.0),
            ("max_mission_time_s", float("nan")),
        ],
    )
    def test_from_dict_rejects_bad_mission_field(self, field, value):
        # A bad mission field fails while the spec is parsed, naming the
        # field, not later when a worker builds the simulator.
        data = tiny_spec().to_dict()
        data["mission"][field] = value
        with pytest.raises(ValueError, match=field):
            ScenarioSpec.from_dict(data)

    def test_zero_margins_and_lookahead_are_valid(self):
        cfg = dataclasses.replace(
            TINY_CFG,
            collision_margin_m=0.0,
            planner_margin_m=0.0,
            emergency_brake_lookahead_s=0.0,
        )
        assert cfg.planner_margin_m == 0.0

    def test_seeded_stamps_both_seeds(self):
        spec = tiny_spec().seeded(99)
        assert spec.environment.seed == 99
        assert spec.mission.rng_seed == 99
        assert spec.seed == 99

    def test_run_produces_mission_result(self):
        result = tiny_spec().run()
        assert result.design == "roborun"
        assert result.metrics.decision_count > 0

    def test_worker_payload_round_trip(self):
        spec = tiny_spec(name="worker")
        row = _run_payload({"spec": spec.to_dict(), "keep_results": False})
        assert row["metrics"]["decision_count"] > 0
        assert "result" not in row


class TestScenarioGrid:
    def test_grid_covers_product_with_distinct_seeds(self):
        specs = scenario_grid(
            "g",
            densities=(0.3, 0.5),
            spreads=(30.0,),
            goal_distances=(60.0, 90.0),
            base_environment=TINY_ENV,
            mission=TINY_CFG,
            base_seed=10,
        )
        assert len(specs) == 2 * 2 * 2  # designs x densities x goals
        assert len({spec.name for spec in specs}) == len(specs)
        assert [spec.seed for spec in specs] == list(range(10, 10 + len(specs)))
        assert {spec.design for spec in specs} == {"roborun", "spatial_oblivious"}

    def test_grid_defaults_to_base_environment_values(self):
        specs = scenario_grid("g", designs=("roborun",), base_environment=TINY_ENV,
                              mission=TINY_CFG)
        assert len(specs) == 1
        assert specs[0].environment.obstacle_density == TINY_ENV.obstacle_density
        # No worlds axis: the default world and the pre-worlds names.
        assert specs[0].world == WorldSpec()
        assert "paper_corridor" not in specs[0].name

    def test_grid_sweeps_world_archetypes(self):
        specs = scenario_grid(
            "g",
            designs=("roborun",),
            worlds=("paper_corridor", "forest", WorldSpec(archetype="warehouse")),
            densities=(0.3, 0.5),
            base_environment=TINY_ENV,
            mission=TINY_CFG,
            base_seed=5,
        )
        assert len(specs) == 3 * 2  # worlds x densities
        assert len({spec.name for spec in specs}) == len(specs)
        assert [spec.seed for spec in specs] == list(range(5, 11))
        archetypes = [spec.world.archetype for spec in specs]
        assert archetypes == ["paper_corridor"] * 2 + ["forest"] * 2 + ["warehouse"] * 2
        # Archetype names land in the spec names when worlds are swept.
        assert all(spec.world.archetype in spec.name for spec in specs)
        # Grid dictionaries round-trip through JSON (the campaign pool path).
        for spec in specs:
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_repeated_archetype_variants_get_distinct_names(self):
        specs = scenario_grid(
            "g",
            designs=("roborun",),
            worlds=(WorldSpec(archetype="forest"),
                    WorldSpec(archetype="forest", params={"cover_scale": 0.2})),
            base_environment=TINY_ENV,
            mission=TINY_CFG,
        )
        assert len({spec.name for spec in specs}) == 2
        assert specs[0].world != specs[1].world

    def test_unknown_archetype_rejected_at_spec_construction(self):
        with pytest.raises(ValueError, match="archetype"):
            ScenarioSpec(name="x", world=WorldSpec(archetype="volcano"))


def _spec_without(key):
    data = tiny_spec().to_dict()
    del data[key]
    return data


def _spec_with(section, key, value):
    data = tiny_spec().to_dict()
    data[section][key] = value
    return data


GOOD_GRID = {
    "name_prefix": "g",
    "designs": ["roborun"],
    "densities": [0.3],
    "base_environment": {"obstacle_spread": 30.0},
    "mission": {"max_decisions": 5},
}

BAD_SPECS = {
    "missing_name": (_spec_without("name"), "'name'"),
    "unknown_environment_key": (
        _spec_with("environment", "obstacle_densty", 0.3), "'environment'.*obstacle_densty"
    ),
    "unknown_mission_key": (
        _spec_with("mission", "max_decision", 5), "'mission'.*max_decision"
    ),
    "mission_not_an_object": (
        {**tiny_spec().to_dict(), "mission": [5]}, "'mission'"
    ),
    "spec_not_an_object": ("tiny", "scenario spec"),
}

BAD_GRIDS = {
    "unknown_grid_key": ({**GOOD_GRID, "desings": ["roborun"]}, "'grid'.*desings"),
    "missing_name_prefix": (
        {k: v for k, v in GOOD_GRID.items() if k != "name_prefix"}, "'name_prefix'"
    ),
    "grid_is_a_list": ([GOOD_GRID], "'grid'"),
    "scalar_axis": ({**GOOD_GRID, "n_drones": 2}, "'n_drones'"),
    "scalar_world_axis": ({**GOOD_GRID, "worlds": "forest"}, "'worlds'"),
    "unknown_base_environment_key": (
        {**GOOD_GRID, "base_environment": {"spread": 30.0}}, "'base_environment'.*spread"
    ),
    "unknown_grid_mission_key": (
        {**GOOD_GRID, "mission": {"max_decision": 5}}, "'mission'.*max_decision"
    ),
}


class TestMalformedInput:
    """Bad spec and grid data fail while parsing, with the field named."""

    @pytest.mark.parametrize("case", sorted(BAD_SPECS))
    def test_from_dict_names_the_field(self, case):
        data, field = BAD_SPECS[case]
        with pytest.raises(ValueError, match=field):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize("case", sorted(BAD_SPECS))
    def test_spec_list_file_names_the_field(self, case, tmp_path):
        data, field = BAD_SPECS[case]
        path = tmp_path / "specs.json"
        path.write_text(json.dumps({"specs": [tiny_spec("ok").to_dict(), data]}))
        with pytest.raises(ValueError, match=field):
            load_grid_file(path)

    @pytest.mark.parametrize("case", sorted(BAD_GRIDS))
    def test_grid_file_names_the_field(self, case, tmp_path):
        grid, field = BAD_GRIDS[case]
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"grid": grid}))
        with pytest.raises(ValueError, match=field):
            load_grid_file(path)

    def test_well_formed_grid_still_loads(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"grid": {**GOOD_GRID, "n_drones": [1, 2]}}))
        specs = load_grid_file(path)
        assert [s.n_drones for s in specs] == [1, 2]
        assert all(s.environment.obstacle_spread == 30.0 for s in specs)


class TestCampaignRunner:
    def test_duplicate_names_rejected(self):
        specs = [tiny_spec(name="dup"), tiny_spec(name="dup", design="spatial_oblivious")]
        with pytest.raises(ValueError):
            CampaignRunner(max_workers=1).run(specs)

    def test_serial_and_parallel_agree(self):
        specs = [
            tiny_spec(name="a").seeded(1),
            tiny_spec(name="b", design="spatial_oblivious").seeded(2),
        ]
        serial = CampaignRunner(max_workers=1).run(specs)
        parallel = CampaignRunner(max_workers=2).run(specs)
        assert [o.metrics for o in serial.outcomes] == [
            o.metrics for o in parallel.outcomes
        ]
        assert [o.spec.name for o in parallel.outcomes] == ["a", "b"]

    def test_aggregates(self):
        specs = [
            tiny_spec(name="a").seeded(1),
            tiny_spec(name="b", design="spatial_oblivious").seeded(2),
        ]
        campaign = CampaignRunner(max_workers=1).run(specs)
        assert len(campaign) == 2
        assert set(campaign.by_design()) == {"roborun", "spatial_oblivious"}
        assert 0.0 <= campaign.success_rate() <= 1.0
        assert campaign.mean_metric("mission_time_s") > 0
        summary = campaign.summary()
        assert summary["roborun"]["missions"] == 1.0
        payload = campaign.to_dict()
        assert len(payload["outcomes"]) == 2

    def test_keep_results_returns_traces(self):
        campaign = CampaignRunner(max_workers=1).run(
            [tiny_spec(name="traced")], keep_results=True
        )
        result = campaign.outcomes[0].result
        assert result is not None
        assert len(result.traces) == result.metrics.decision_count
        # The live node graph never crosses the campaign boundary.
        assert result.pipeline is None


@pytest.mark.slow
class TestCampaignSweepAcceptance:
    """The acceptance sweep: ≥8 scenarios incl. a fault injection, parallel."""

    def build_specs(self):
        specs = scenario_grid(
            "acc",
            densities=(0.3, 0.5),
            goal_distances=(60.0, 90.0),
            base_environment=TINY_ENV,
            mission=dataclasses.replace(TINY_CFG, max_decisions=40),
            base_seed=50,
        )
        specs.append(
            ScenarioSpec(
                name="acc_roborun_dropout",
                design="roborun",
                environment=TINY_ENV,
                mission=dataclasses.replace(TINY_CFG, max_decisions=40),
                faults=FaultSet(sensor_dropout=SensorDropout(every_n=3)),
            ).seeded(60)
        )
        return specs

    def test_parallel_sweep_is_deterministic(self):
        specs = self.build_specs()
        assert len(specs) >= 8
        assert any(spec.faults.active() for spec in specs)
        parallel = CampaignRunner(max_workers=4).run(specs)
        serial = CampaignRunner(max_workers=1).run(specs)
        assert [o.metrics for o in parallel.outcomes] == [
            o.metrics for o in serial.outcomes
        ]
        assert len(parallel) == len(specs)
        summary = parallel.summary()
        assert summary["roborun"]["missions"] == float(
            sum(1 for s in specs if s.design == "roborun")
        )
        assert all(o.metrics["decision_count"] > 0 for o in parallel.outcomes)
