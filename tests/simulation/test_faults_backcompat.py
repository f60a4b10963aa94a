"""Backward compatibility: the fault registry must not move existing bytes.

Two layers of guarantee:

* **Format** — fault-set JSON written before the registry/orchestrator
  existed still parses, and the no-fault default still serialises to the
  pre-schedule byte layout (no ``"schedule"`` key).
* **Behaviour** — a no-fault campaign on the benchmark seed reproduces the
  exact trace files, dispatch log and metrics of the pre-registry code,
  pinned here as SHA-256 digests.  A fault-free mission must take the same
  code path — bit for bit — whether or not the orchestrator exists.  A
  fleet with a mover and both designs under every registered fault are
  pinned the same way, so the trace bytes of those paths cannot drift
  either.
"""

import dataclasses
import hashlib
import json

import pytest

from repro import (
    CameraDegradation,
    CampaignRunner,
    CommsDropout,
    CommsLatencySpike,
    EnvironmentConfig,
    FaultSchedule,
    FaultSet,
    MissionConfig,
    MissionRecord,
    MissionSimulator,
    MoverSpec,
    PowerBrownout,
    RoboRunRuntime,
    ScenarioSpec,
    SensorDropout,
    StuckMover,
    ThermalThrottle,
    WorldSpec,
    build_environment,
    fault_names,
    scenario_grid,
)

GOLDEN_ENV = EnvironmentConfig(
    obstacle_density=0.3, obstacle_spread=30.0, goal_distance=60.0, seed=7
)
GOLDEN_CFG = MissionConfig(max_decisions=25, max_mission_time_s=150.0)

#: SHA-256 digests of the benchmark-seed artefacts, captured before the
#: fault registry landed.  If one of these moves, a "no-fault" mission is
#: no longer on the pre-registry code path.
GOLDEN_TRACE_SHA = {
    "golden_roborun_den0.3_spr30_goal60.jsonl":
        "ee80c58b8ae8aa99e8c9f9cb38827d8967475d2126572897337023f27382d104",
    "golden_spatial_oblivious_den0.3_spr30_goal60.jsonl":
        "76c22d20ba92642d4bf0a967c7f791190d3e612da7067178c38bd88e649bb71c",
}
GOLDEN_DISPATCH_SHA = (
    "59e96c81ad1ebc1a20cd197aab433e9ccf5104c610624a469023b2b9a9450b35"
)
GOLDEN_METRICS_SHA = (
    "61ced841b68361a61262d1db9682f00c3c5a86633b3388355b2af6942f5e9ab5"
)

#: A crosser drifting through the flight line of the golden corridor.
GOLDEN_CART = MoverSpec(
    kind="crosser", origin=(15.0, -6.0, 5.0), velocity=(0.0, 1.5, 0.0),
    span_m=12.0, name="cart",
)

#: Every registered fault in its own staggered window (two of them jittered),
#: so each fault's effect hook lands on some decision of a golden mission.
GOLDEN_ALL_FAULTS = FaultSet(
    schedule=(
        FaultSchedule(SensorDropout(every_n=3), activate_at=2, clear_at=8),
        FaultSchedule(
            CameraDegradation(width=16, height=12), activate_at=4, clear_at=10
        ),
        FaultSchedule(
            CommsDropout(hop="comm_octomap", every_n=2, retransmit_s=0.08),
            activate_at=6, clear_at=12, jitter=1,
        ),
        FaultSchedule(CommsLatencySpike(factor=3.0), activate_at=8, clear_at=14),
        FaultSchedule(PowerBrownout(scale=0.5), activate_at=10, clear_at=16),
        FaultSchedule(
            ThermalThrottle(ramp_per_decision=0.2, max_factor=1.8),
            activate_at=12, clear_at=20, jitter=2,
        ),
        FaultSchedule(StuckMover(mover="*"), activate_at=14, clear_at=22),
    )
)

#: Three drones through a warehouse with a crosser, and both designs under
#: every registered fault on the corridor with its cart.
GOLDEN_SCENARIOS = [
    ScenarioSpec(
        name="golden_fleet3_warehouse",
        environment=GOLDEN_ENV,
        mission=GOLDEN_CFG,
        world=WorldSpec(
            archetype="warehouse",
            movers=(
                MoverSpec(
                    kind="crosser", origin=(30.0, -20.0, 2.0),
                    velocity=(0.0, 2.0, 0.0), span_m=40.0,
                ),
            ),
        ),
        n_drones=3,
    ),
] + [
    ScenarioSpec(
        name=f"golden_{design}_all_faults",
        design=design,
        environment=GOLDEN_ENV,
        mission=GOLDEN_CFG,
        faults=GOLDEN_ALL_FAULTS,
        world=WorldSpec(movers=(GOLDEN_CART,)),
    )
    for design in ("roborun", "spatial_oblivious")
]

#: SHA-256 digests of the fleet and fault scenarios' trace files.
GOLDEN_SCENARIO_TRACE_SHA = {
    "golden_fleet3_warehouse.jsonl":
        "ea0e80ff8515b4d16da18b616d1fb102e1ed12b49d82239744cc5eb98fb28508",
    "golden_roborun_all_faults.jsonl":
        "b3d8c60c8f1227674164a19afd5152766359acd27e54b23be869bf6033210029",
    "golden_spatial_oblivious_all_faults.jsonl":
        "4dbda5938c3c434fea649b361b20f2ed7f4f70285ed83fa2267f52f69d54c9f9",
}


class TestFormatCompatibility:
    def test_pre_registry_fault_set_json_parses(self):
        """The exact JSON shape older specs wrote still round-trips."""
        legacy = {
            "sensor_dropout": {"every_n": 4, "start_decision": 2},
            "camera_degradation": None,
        }
        faults = FaultSet.from_dict(json.loads(json.dumps(legacy)))
        assert faults.sensor_dropout.every_n == 4
        assert faults.camera_degradation is None
        assert faults.schedule == ()
        assert faults.to_dict() == legacy

    def test_no_fault_default_serialises_to_pre_schedule_bytes(self):
        payload = json.dumps(FaultSet().to_dict(), sort_keys=True)
        assert payload == (
            '{"camera_degradation": null, "sensor_dropout": null}'
        )

    def test_pre_registry_scenario_spec_parses(self):
        """A spec dictionary without schedule/world/n_drones keys loads."""
        spec_dict = {
            "name": "legacy",
            "design": "roborun",
            "environment": dataclasses.asdict(GOLDEN_ENV),
            "mission": dataclasses.asdict(GOLDEN_CFG),
            "faults": {
                "sensor_dropout": {"every_n": 3, "start_decision": 0},
                "camera_degradation": None,
            },
        }
        spec = ScenarioSpec.from_dict(json.loads(json.dumps(spec_dict)))
        assert spec.faults.sensor_dropout.every_n == 3
        record = MissionRecord(
            spec_name=spec.name, design=spec.design, seed=spec.seed, spec=spec.to_dict()
        )
        assert record.fault_label == "sensor_dropout"

    def test_legacy_trace_record_without_faults_key_loads(self):
        from repro.analysis.trace import DecisionRecord
        record = DecisionRecord(
            spec_name="legacy", design="roborun", index=0, timestamp=0.0,
            position=(0.0, 0.0, 5.0), zone="A", speed=0.0, velocity_cap=1.0,
            time_budget=1.0, predicted_latency=0.5, solver_feasible=True,
            policy={}, stage_latencies={}, end_to_end_latency=0.5,
            visibility=40.0, closest_obstacle=10.0, gap_min=1.0, gap_avg=2.0,
            sensor_volume=100.0, map_volume=50.0, map_voxels=10, flown=1.0,
            interval=1.0, energy=5.0, replanned=False, dropped=False,
            hit=False,
        )
        line = json.loads(json.dumps(record.to_dict()))
        # A fault-free record serialises without the "faults" key — the
        # exact byte layout pre-orchestrator traces have on disk.
        assert "faults" not in line
        assert DecisionRecord.from_dict(line).faults == ()


@pytest.mark.slow
class TestBehaviouralCompatibility:
    """No-fault runs on the benchmark seed reproduce the pinned digests."""

    def test_no_fault_campaign_traces_bit_identical(self, tmp_path):
        specs = scenario_grid(
            "golden",
            densities=(0.3,),
            base_environment=GOLDEN_ENV,
            mission=GOLDEN_CFG,
            base_seed=7,
        )
        CampaignRunner(max_workers=1).run(specs, trace_dir=tmp_path)
        produced = {p.name for p in tmp_path.glob("*.jsonl")}
        assert produced == set(GOLDEN_TRACE_SHA)
        for name, expected in GOLDEN_TRACE_SHA.items():
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == expected, (
                f"no-fault trace {name} drifted from the pre-registry bytes"
            )

    def test_fleet_and_fault_campaign_traces_bit_identical(self, tmp_path):
        all_faults = GOLDEN_SCENARIOS[-1]
        record = MissionRecord(
            spec_name=all_faults.name, design=all_faults.design,
            seed=all_faults.seed, spec=all_faults.to_dict(),
        )
        assert record.fault_label == "+".join(fault_names())
        CampaignRunner(max_workers=1).run(GOLDEN_SCENARIOS, trace_dir=tmp_path)
        produced = {p.name for p in tmp_path.glob("*.jsonl")}
        assert produced == set(GOLDEN_SCENARIO_TRACE_SHA)
        for name, expected in GOLDEN_SCENARIO_TRACE_SHA.items():
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == expected, f"trace {name} drifted from its golden"

    def test_no_fault_dispatch_log_and_metrics_bit_identical(self):
        environment = build_environment(GOLDEN_ENV)
        result = MissionSimulator(
            environment, RoboRunRuntime(), GOLDEN_CFG
        ).run()
        dispatch = json.dumps(result.pipeline.dispatch_log())
        metrics = json.dumps(result.metrics.as_dict(), sort_keys=True)
        assert hashlib.sha256(dispatch.encode()).hexdigest() == (
            GOLDEN_DISPATCH_SHA
        ), "the no-fault message cascade changed shape or order"
        assert hashlib.sha256(metrics.encode()).hexdigest() == (
            GOLDEN_METRICS_SHA
        ), "no-fault mission metrics drifted"
