"""Tests for the declarative scenario layer and the campaign runner."""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
REPO_ROOT = Path(__file__).resolve().parents[2]


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
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
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
            assert ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

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


CROSSER = {"kind": "crosser", "velocity": [0.0, 1.0, 0.0], "speed_mps": 3.0}
CROSSER_WORLD = {"archetype": "disaster_rubble", "movers": [CROSSER]}


def _spec_with_mover(mover):
    data = tiny_spec().to_dict()
    data["world"] = {**CROSSER_WORLD, "movers": [mover]}
    return data


def _spec_with_faults(faults):
    return {**tiny_spec().to_dict(), "faults": faults}


def _scheduled(fault, params, **window):
    return _spec_with_faults({"schedule": [{"fault": fault, "params": params, **window}]})


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
    "unknown_top_level_key": (
        {**tiny_spec().to_dict(), "n_drone": 4}, "'scenario spec'.*n_drone"
    ),
    "unknown_world_key": (
        {**tiny_spec().to_dict(), "world": {"archetyp": "forest"}}, "'world'.*archetyp"
    ),
    "world_not_an_object": ({**tiny_spec().to_dict(), "world": "forest"}, "'world'"),
    "unknown_mover_key": (
        _spec_with_mover({**CROSSER, "sped_mps": 3.0}), r"'world\.movers\[0\]'.*sped_mps"
    ),
    "mover_not_an_object": (_spec_with_mover(3), r"'world\.movers\[0\]'"),
    "schedule_not_a_list": (
        {**tiny_spec().to_dict(), "faults": {"schedule": 5}}, "'schedule'"
    ),
    "schedule_params_not_an_object": (
        {
            **tiny_spec().to_dict(),
            "faults": {"schedule": [{"fault": "power_brownout", "params": [1]}]},
        },
        "'params'",
    ),
    "sensor_dropout_without_every_n": (
        {**tiny_spec().to_dict(), "faults": {"sensor_dropout": {"start_decision": 1}}},
        "'sensor_dropout'.*every_n",
    ),
    "environment_float_is_a_string": (
        _spec_with("environment", "obstacle_density", "x"), "obstacle_density"
    ),
    "environment_int_is_a_float": (_spec_with("environment", "seed", 1.5), "seed"),
    "mission_int_is_a_string": (_spec_with("mission", "max_decisions", "10"), "max_decisions"),
    "mission_int_is_a_float": (_spec_with("mission", "max_decisions", 2.5), "max_decisions"),
    "mission_int_is_a_bool": (_spec_with("mission", "max_decisions", True), "max_decisions"),
    "mission_camera_width_is_a_string": (
        _spec_with("mission", "camera_width", "x"), "camera_width"
    ),
    "mission_float_is_a_list": (
        _spec_with("mission", "max_mission_time_s", [1.0]), "max_mission_time_s"
    ),
    "world_seed_is_a_list": (
        {**tiny_spec().to_dict(), "world": {"archetype": "forest", "seed": [1]}}, "seed"
    ),
    "n_drones_is_a_string": ({**tiny_spec().to_dict(), "n_drones": "2"}, "n_drones"),
    "mover_velocity_has_four_entries": (
        _spec_with_mover({**CROSSER, "velocity": [0.0, 1.0, 0.0, 0.0]}), "velocity"
    ),
    "mover_velocity_has_two_entries": (
        _spec_with_mover({**CROSSER, "velocity": [0.0, 1.0]}), "velocity"
    ),
    "mover_origin_has_two_entries": (_spec_with_mover({**CROSSER, "origin": [1.0, 2.0]}), "origin"),
    "mover_waypoint_has_two_entries": (
        _spec_with_mover(
            {"kind": "waypoint_loop", "waypoints": [[0.0, 0.0, 2.0], [5.0, 0.0]]}
        ),
        r"waypoints\[1\]",
    ),
    "mover_waypoints_not_a_list": (
        _spec_with_mover({"kind": "waypoint_loop", "waypoints": 5}), "waypoints"
    ),
    "mover_epoch_s_is_a_string": (_spec_with_mover({**CROSSER, "epoch_s": "0.5"}), "epoch_s"),
    "mover_span_m_is_a_bool": (_spec_with_mover({**CROSSER, "span_m": True}), "span_m"),
    "mover_size_entry_is_a_string": (_spec_with_mover({**CROSSER, "size": ["a", 1, 1]}), "size"),
    "mover_size_entry_is_a_bool": (_spec_with_mover({**CROSSER, "size": [True, 1, 1]}), "size"),
    "mover_velocity_is_null": (_spec_with_mover({**CROSSER, "velocity": None}), "velocity"),
    "brownout_scale_is_a_string": (_scheduled("power_brownout", {"scale": "0.5"}), "scale"),
    "brownout_scale_is_a_list": (_scheduled("power_brownout", {"scale": [1]}), "scale"),
    "sensor_dropout_every_n_is_a_float": (
        _spec_with_faults({"sensor_dropout": {"every_n": 2.5}}), "every_n"
    ),
    "sensor_dropout_every_n_is_a_string": (
        _spec_with_faults({"sensor_dropout": {"every_n": "3"}}), "every_n"
    ),
    "comms_dropout_every_n_is_a_float": (
        _scheduled("comms_dropout", {"every_n": 3.7}), "every_n"
    ),
    "stuck_mover_is_null": (_scheduled("stuck_mover", {"mover": None}), "mover"),
    "schedule_activate_at_is_a_string": (
        _scheduled("power_brownout", {}, activate_at="1"), "activate_at"
    ),
    "flight_band_entry_is_a_string": (
        _spec_with("mission", "flight_band_m", ["a", 3]), "flight_band_m"
    ),
    "flight_band_entry_is_a_bool": (
        _spec_with("mission", "flight_band_m", [True, 3]), "flight_band_m"
    ),
    "faults_is_a_list": (_spec_with_faults([]), "'faults'"),
    "schedule_is_zero": (_spec_with_faults({"schedule": 0}), "'schedule'"),
    "sensor_dropout_is_a_list": (_spec_with_faults({"sensor_dropout": []}), "'sensor_dropout'"),
    "world_params_is_a_list": (
        {**tiny_spec().to_dict(), "world": {"params": [1, 2]}}, r"world\.params"
    ),
    "world_movers_is_a_number": (
        {**tiny_spec().to_dict(), "world": {"movers": 5}}, r"world\.movers"
    ),
    "world_archetype_is_a_list": (
        {**tiny_spec().to_dict(), "world": {"archetype": [None]}}, r"world\.archetype"
    ),
    "flight_band_is_a_number": (_spec_with("mission", "flight_band_m", 5), "flight_band_m"),
    "name_is_a_number": ({**tiny_spec().to_dict(), "name": 5}, "name"),
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
    "unknown_grid_world_key": (
        {**GOOD_GRID, "worlds": [{"archetyp": "forest"}]}, "'worlds'.*archetyp"
    ),
    "unknown_grid_mover_key": (
        {**GOOD_GRID, "worlds": [{**CROSSER_WORLD, "movers": [{**CROSSER, "sped_mps": 3.0}]}]},
        r"'worlds\.movers\[0\]'.*sped_mps",
    ),
    "faults_is_a_number": ({**GOOD_GRID, "faults": 5}, "'faults'"),
    "named_fault_config_is_a_number": (
        {**GOOD_GRID, "faults": {"nofault": None, "bad": 5}}, r"'faults\.bad'"
    ),
    "named_fault_config_is_a_list": (
        {**GOOD_GRID, "faults": {"nofault": None, "bad": [1]}}, r"'faults\.bad'"
    ),
    "named_fault_config_is_a_string": (
        {**GOOD_GRID, "faults": {"nofault": None, "bad": "x"}}, r"'faults\.bad'"
    ),
    "world_entry_is_a_number": ({**GOOD_GRID, "worlds": [5]}, r"worlds\[0\]"),
    "world_entry_is_a_bool": ({**GOOD_GRID, "worlds": ["forest", True]}, r"worlds\[1\]"),
    "fleet_size_is_null": ({**GOOD_GRID, "n_drones": [None]}, r"n_drones\[0\]"),
    "fleet_size_is_infinite": ({**GOOD_GRID, "n_drones": [float("inf")]}, r"n_drones\[0\]"),
    "fleet_size_is_a_string": ({**GOOD_GRID, "n_drones": ["a"]}, r"n_drones\[0\]"),
    "fleet_size_is_fractional": ({**GOOD_GRID, "n_drones": [1, 2.7]}, r"n_drones\[1\]"),
    "fleet_size_is_a_bool": ({**GOOD_GRID, "n_drones": [True]}, r"n_drones\[0\]"),
    "fleet_size_is_zero": ({**GOOD_GRID, "n_drones": [0]}, r"n_drones\[0\]"),
    "base_seed_is_null": ({**GOOD_GRID, "base_seed": None}, "base_seed"),
    "base_seed_is_a_string": ({**GOOD_GRID, "base_seed": "x"}, "base_seed"),
    "base_seed_is_fractional": ({**GOOD_GRID, "base_seed": 1.5}, "base_seed"),
    "name_prefix_is_null": ({**GOOD_GRID, "name_prefix": None}, "name_prefix"),
    "name_prefix_is_empty": ({**GOOD_GRID, "name_prefix": ""}, "name_prefix"),
}


#: Any JSON value Python's ``json`` reads: null, booleans, numbers (``Infinity``
#: and ``NaN`` included), strings, and lists and objects of them.
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


def _fuzz_base():
    """A valid spec dict with a mover and fault entries, so every section has fields."""
    data = _spec_with_mover(CROSSER)
    data["faults"] = {
        "sensor_dropout": {"every_n": 3, "start_decision": 0},
        "schedule": [{"fault": "power_brownout", "params": {"scale": 0.5}, "activate_at": 1}],
    }
    return json.loads(json.dumps(data))  # a deep copy: the fuzz writes into it


def _json_paths(value, prefix=()):
    """The key path of every value nested in a JSON object or list, at any depth."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, inner in items:
        yield prefix + (key,)
        if isinstance(inner, (dict, list)):
            yield from _json_paths(inner, prefix + (key,))


def _fuzz_sections(data):
    """The dictionaries a spec dict nests, by name."""
    return {
        "top": data,
        "environment": data["environment"],
        "mission": data["mission"],
        "world": data["world"],
        "mover": data["world"]["movers"][0],
        "faults": data["faults"],
    }


class TestMalformedInput:
    """Bad spec and grid data fail while parsing, with the field named."""

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_from_dict_raises_only_value_error_on_any_field(self, data):
        spec = _fuzz_base()
        assert ScenarioSpec.from_dict(_fuzz_base()).world.movers
        sections = _fuzz_sections(spec)
        target = sections[data.draw(st.sampled_from(sorted(sections)))]
        key = data.draw(st.sampled_from(sorted(target)))
        target[key] = data.draw(JSON_VALUES)
        try:
            ScenarioSpec.from_dict(spec)
        except ValueError:
            pass

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

    @pytest.mark.parametrize("case", sorted(BAD_SPECS))
    def test_bare_spec_list_file_names_the_field(self, case, tmp_path):
        data, field = BAD_SPECS[case]
        path = tmp_path / "specs.json"
        path.write_text(json.dumps([tiny_spec("ok").to_dict(), data]))
        with pytest.raises(ValueError, match=field):
            load_grid_file(path)

    @pytest.mark.parametrize("specs", [5, "ab", {"name": "a"}])
    def test_grid_file_specs_not_a_list_names_the_field(self, specs, tmp_path):
        path = tmp_path / "specs.json"
        path.write_text(json.dumps({"specs": specs}))
        with pytest.raises(ValueError, match="'specs'"):
            load_grid_file(path)

    def test_well_formed_world_and_movers_still_load(self):
        data = _spec_with_mover(CROSSER)
        spec = ScenarioSpec.from_dict(data)
        assert spec.world.movers[0].speed_mps == 3.0
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("case", sorted(BAD_GRIDS))
    def test_grid_file_names_the_field(self, case, tmp_path):
        grid, field = BAD_GRIDS[case]
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"grid": grid}))
        with pytest.raises(ValueError, match=field):
            load_grid_file(path)

    @given(data=st.data())
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_grid_file_raises_only_value_error_on_any_field(self, data, tmp_path):
        document = json.loads((REPO_ROOT / "examples" / "grid_small.json").read_text())
        paths = sorted(_json_paths(document["grid"]), key=repr)
        path = data.draw(st.sampled_from(paths))
        target = document["grid"]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = data.draw(JSON_VALUES)
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(document))
        try:
            specs = load_grid_file(grid_file)
        except ValueError:
            return
        assert all(isinstance(spec, ScenarioSpec) for spec in specs)

    @pytest.mark.parametrize("folder", ["examples", "perfbench"])
    def test_shipped_grid_files_still_load(self, folder):
        specs = load_grid_file(REPO_ROOT / folder / "grid_small.json")
        assert len(specs) == 16
        assert all(spec.mission.max_decisions == 40 for spec in specs)

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
        assert [o.spec.design for o in campaign.outcomes] == [
            "roborun", "spatial_oblivious",
        ]
        assert all(o.ok and o.metrics["mission_time_s"] > 0 for o in campaign.outcomes)
        assert all(o.metrics["success"] in (0.0, 1.0) for o in campaign.outcomes)

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
        assert [o.spec.design for o in parallel.outcomes] == [s.design for s in specs]
        assert all(o.metrics["decision_count"] > 0 for o in parallel.outcomes)
