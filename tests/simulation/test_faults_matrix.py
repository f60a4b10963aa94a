"""The fault-matrix harness: every registered fault, every contract.

One parametrised suite proves, per registered fault class:

* serialisation — a scheduled fault round-trips through JSON to an equal
  value;
* validation — invalid parameters and unknown keys are rejected with a
  clear :class:`ValueError`;
* effect — a short mission flown under the fault observably diverges from
  the no-fault golden run of the same scenario;
* determinism — a named fault sweep produces byte-identical trace files
  whether the campaign runs serially or across a process pool.

The matrix is keyed by the registry itself (:func:`repro.fault_names`), so
registering a new fault without adding a matrix case fails the suite — the
registry cannot silently outgrow its tests.
"""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    CameraDegradation,
    CampaignRunner,
    CommsDropout,
    CommsLatencySpike,
    EnvironmentConfig,
    FaultOrchestrator,
    FaultSchedule,
    FaultSet,
    MissionConfig,
    MissionRecord,
    MoverSpec,
    PowerBrownout,
    ScenarioSpec,
    SensorDropout,
    StuckMover,
    ThermalThrottle,
    WorldSpec,
    fault_names,
    scenario_grid,
)
from repro.analysis.recorder import TraceRecorder
from repro.middleware.latency import COMM_STAGES, is_comm_stage
from repro.simulation import faults as faults_module
from repro.simulation.faults import (
    Fault,
    get_fault,
    is_registered_fault,
    register_fault,
)

TINY_ENV = EnvironmentConfig(
    obstacle_density=0.3, obstacle_spread=30.0, goal_distance=60.0, seed=7
)
TINY_CFG = MissionConfig(max_decisions=15, max_mission_time_s=100.0)

#: A mover crossing the corridor flight line: starts south of the start→goal
#: axis and drifts north through it, so freezing it mid-route is observable
#: in the world's ground-truth dynamic layer.
CROSSER_WORLD = WorldSpec(
    movers=(
        MoverSpec(
            kind="crosser",
            origin=(15.0, -6.0, 5.0),
            velocity=(0.0, 1.5, 0.0),
            span_m=12.0,
            name="cart",
        ),
    )
)


@dataclasses.dataclass(frozen=True)
class FaultCase:
    """One registered fault's matrix row."""

    #: A representative valid instance (used for round-trips and missions).
    valid: object
    #: Parameter dictionaries ``from_dict`` must reject with ValueError.
    invalid: tuple
    #: World used for the divergence mission (faults needing movers override).
    world: WorldSpec = WorldSpec()


FAULT_CASES = {
    "sensor_dropout": FaultCase(
        valid=SensorDropout(every_n=2),
        invalid=({"every_n": 1}, {"every_n": 3, "start_decision": -1}),
    ),
    "camera_degradation": FaultCase(
        valid=CameraDegradation(width=16, height=12),
        invalid=({"width": 0, "height": 12}, {"width": 16, "height": 12,
                                              "after_decision": -2}),
    ),
    "comms_dropout": FaultCase(
        valid=CommsDropout(hop="comm_octomap", every_n=1, retransmit_s=0.08),
        invalid=({"hop": "comm_teleport"}, {"every_n": 0}, {"retransmit_s": 0.0}),
    ),
    "comms_latency_spike": FaultCase(
        valid=CommsLatencySpike(factor=4.0, hop="all"),
        invalid=({"factor": 1.0}, {"factor": 4.0, "hop": "sideband"}),
    ),
    "power_brownout": FaultCase(
        valid=PowerBrownout(scale=0.4),
        invalid=({"scale": 0.0}, {"scale": 1.0}, {"scale": 1.5}),
    ),
    "thermal_throttle": FaultCase(
        valid=ThermalThrottle(ramp_per_decision=0.2, max_factor=1.8),
        invalid=({"ramp_per_decision": 0.0}, {"ramp_per_decision": 0.1,
                                              "max_factor": 0.5}),
    ),
    "stuck_mover": FaultCase(
        valid=StuckMover(mover="cart"),
        invalid=({"mover": ""},),
        world=CROSSER_WORLD,
    ),
}

ALL_FAULTS = sorted(FAULT_CASES)

#: Any JSON value: what a hand-written grid file can put in a fault field.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)
PARAM_NAMES = sorted({key for case in FAULT_CASES.values() for key in case.valid.to_dict()})


def scheduled_set(fault, activate_at=2, clear_at=None, jitter=0):
    """A fault set holding one timed window around the given fault."""
    return FaultSet(
        schedule=(
            FaultSchedule(
                fault=fault, activate_at=activate_at, clear_at=clear_at,
                jitter=jitter,
            ),
        )
    )


def fly(faults=None, world=None, design="roborun"):
    """One short, fully seeded mission; returns the live MissionResult."""
    spec = ScenarioSpec(
        name="matrix",
        design=design,
        environment=TINY_ENV,
        mission=TINY_CFG,
        faults=faults if faults is not None else FaultSet(),
        world=world if world is not None else WorldSpec(),
    )
    return spec.build_simulator().run()


def trace_signature(result):
    """The per-decision observables a fault must be able to perturb."""
    return [
        (
            trace.index,
            tuple(trace.position),
            trace.time_budget,
            trace.velocity_cap,
            dict(trace.policy),
            dict(trace.stage_latencies),
            trace.end_to_end_latency,
        )
        for trace in result.traces
    ]


def mover_signature(result):
    """Final ground-truth positions of the world's dynamic obstacles."""
    dynamics = getattr(result.environment, "dynamics", None)
    if dynamics is None:
        return []
    return [
        (obstacle.name, obstacle.center.x, obstacle.center.y, obstacle.center.z)
        for obstacle in dynamics.world.dynamic_obstacles
    ]


@pytest.fixture(scope="module")
def goldens():
    """No-fault golden signatures, one per world used by the matrix."""
    cache = {}
    for world in {WorldSpec(), CROSSER_WORLD}:
        result = fly(world=world)
        cache[world] = (trace_signature(result), mover_signature(result))
    return cache


class TestMatrixCompleteness:
    def test_every_registered_fault_has_a_case(self):
        assert set(FAULT_CASES) == set(fault_names()), (
            "every registered fault needs a FAULT_CASES row (and vice versa)"
        )

    def test_registry_lookups(self):
        for name in fault_names():
            assert is_registered_fault(name)
            cls = get_fault(name)
            assert cls.fault_name == name
            assert isinstance(FAULT_CASES[name].valid, cls)
        assert not is_registered_fault("volcano")
        with pytest.raises(KeyError, match="registered"):
            get_fault("volcano")

    def test_duplicate_and_empty_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_fault("sensor_dropout")
            class Shadow:  # pragma: no cover - never registered
                pass
        with pytest.raises(ValueError, match="non-empty"):
            register_fault("")


class TestRoundTrip:
    @pytest.mark.parametrize("name", ALL_FAULTS)
    def test_fault_round_trips_through_json(self, name):
        fault = FAULT_CASES[name].valid
        payload = json.loads(json.dumps(fault.to_dict()))
        assert type(fault).from_dict(payload) == fault

    @pytest.mark.parametrize("name", ALL_FAULTS)
    def test_scheduled_fault_set_round_trips(self, name):
        original = scheduled_set(FAULT_CASES[name].valid, activate_at=3,
                                 clear_at=9, jitter=1)
        payload = json.loads(json.dumps(original.to_dict()))
        assert FaultSet.from_dict(payload) == original

    @pytest.mark.parametrize("name", ALL_FAULTS)
    def test_scenario_spec_round_trips_with_schedule(self, name):
        spec = ScenarioSpec(
            name="rt",
            environment=TINY_ENV,
            mission=TINY_CFG,
            faults=scheduled_set(FAULT_CASES[name].valid, clear_at=8),
            world=FAULT_CASES[name].world,
        )
        assert ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


class TestValidation:
    @pytest.mark.parametrize(
        "name,params",
        [(name, params) for name in ALL_FAULTS
         for params in FAULT_CASES[name].invalid],
        ids=[f"{name}-{i}" for name in ALL_FAULTS
             for i in range(len(FAULT_CASES[name].invalid))],
    )
    def test_invalid_params_rejected(self, name, params):
        with pytest.raises(ValueError) as err:
            get_fault(name).from_dict(dict(params))
        assert str(err.value), "rejection must carry a message"

    @pytest.mark.parametrize("name", ALL_FAULTS)
    def test_unknown_param_key_rejected_by_name(self, name):
        params = dict(FAULT_CASES[name].valid.to_dict())
        params["warp_drive"] = 1
        with pytest.raises(ValueError, match="warp_drive"):
            get_fault(name).from_dict(params)

    @given(
        fault=st.sampled_from(ALL_FAULTS),
        params=JSON_VALUES
        | st.dictionaries(st.sampled_from(PARAM_NAMES), JSON_VALUES, max_size=3),
        window=st.dictionaries(
            st.sampled_from(("activate_at", "clear_at", "jitter")), JSON_VALUES
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_schedule_entry_parses_or_raises_value_error(self, fault, params, window):
        entry = {"fault": fault, "params": params, **window}
        try:
            FaultSet.from_dict({"schedule": [entry]})
        except ValueError:
            pass

    def test_unknown_fault_set_key_names_registered_faults(self):
        with pytest.raises(ValueError) as err:
            FaultSet.from_dict({"power_brownout": {"scale": 0.4}})
        message = str(err.value)
        assert "power_brownout" in message
        for name in fault_names():
            assert name in message

    def test_unknown_schedule_fault_rejected(self):
        with pytest.raises(ValueError, match="volcano"):
            FaultSet.from_dict(
                {"schedule": [{"fault": "volcano", "params": {}}]}
            )

    def test_schedule_window_validation(self):
        fault = PowerBrownout(scale=0.4)
        with pytest.raises(ValueError, match="activate_at"):
            FaultSchedule(fault=fault, activate_at=-1)
        with pytest.raises(ValueError, match="clear_at"):
            FaultSchedule(fault=fault, activate_at=5, clear_at=5)
        with pytest.raises(ValueError, match="jitter"):
            FaultSchedule(fault=fault, jitter=-1)
        with pytest.raises(ValueError, match="registered"):
            FaultSchedule(fault=object())


class TestScheduleResolution:
    def test_no_jitter_resolves_exactly(self):
        entry = FaultSchedule(fault=PowerBrownout(), activate_at=4, clear_at=9)
        assert entry.resolve(seed=123, ordinal=0) == (4, 9)

    def test_jitter_is_deterministic_and_bounded(self):
        entry = FaultSchedule(
            fault=PowerBrownout(), activate_at=5, clear_at=10, jitter=2
        )
        first = entry.resolve(seed=42, ordinal=0)
        assert first == entry.resolve(seed=42, ordinal=0)
        start, end = first
        assert 3 <= start <= 7
        assert 8 <= end <= 12
        assert end > start
        # A different seed may (and here does) move the window.
        windows = {entry.resolve(seed=s, ordinal=0) for s in range(20)}
        assert len(windows) > 1

    def test_orchestrator_window_semantics(self):
        faults = scheduled_set(PowerBrownout(scale=0.4), activate_at=3,
                               clear_at=6)
        orch = FaultOrchestrator(faults, seed=0)
        assert [orch.budget_scale(i) for i in range(8)] == [
            1.0, 1.0, 1.0, 0.4, 0.4, 0.4, 1.0, 1.0
        ]
        assert orch.active_fault_names(3) == ("power_brownout",)
        assert orch.active_fault_names(6) == ()

    def test_orchestrator_is_nominal_without_faults(self):
        # A fault-free mission is the orchestrator with no windows: every
        # query gives the nominal answer, and stage latencies come back with
        # the same keys, order and float bits in a fresh dict.
        orch = FaultOrchestrator(FaultSet(), seed=0)
        for index in (0, 1, 10_000):
            assert orch.sensor_dropped(index) is False
            assert orch.camera_resolution(index) is None
            assert orch.budget_scale(index) == 1.0
            assert orch.frozen_epoch("cart_0", index) is None
            assert orch.active_fault_names(index) == ()
        stages = {"perception": 0.1, "comm_octomap": 0.01, "planning": 1 / 3}
        adjusted = orch.apply_stage_latencies(0, stages)
        assert adjusted is not stages
        assert list(adjusted.items()) == list(stages.items())

    def test_orchestrator_folds_comm_and_compute_stages(self):
        faults = FaultSet(
            schedule=(
                FaultSchedule(fault=CommsLatencySpike(factor=2.0), activate_at=0),
                FaultSchedule(
                    fault=ThermalThrottle(ramp_per_decision=0.5, max_factor=4.0),
                    activate_at=0,
                ),
            )
        )
        orch = FaultOrchestrator(faults, seed=0)
        stages = {"perception": 0.1, "comm_octomap": 0.01}
        adjusted = orch.apply_stage_latencies(2, stages)
        # active_for=2 → thermal factor 1 + 0.5*2 = 2.0; spike doubles comms.
        assert adjusted["perception"] == pytest.approx(0.2)
        assert adjusted["comm_octomap"] == pytest.approx(0.02)

    def test_legacy_fields_become_always_on_windows(self):
        faults = FaultSet(sensor_dropout=SensorDropout(every_n=2))
        orch = FaultOrchestrator(faults, seed=0)
        # One window, open from decision 0 and never closed.
        assert orch.active(0) == [(faults.sensor_dropout, 0)]
        assert [n for _, n in orch.active(10_000)] == [10_000]
        assert orch.sensor_dropped(1) and not orch.sensor_dropped(0)

    def test_stuck_mover_pins_earliest_covering_window(self):
        faults = FaultSet(
            schedule=(
                FaultSchedule(fault=StuckMover(mover="cart"), activate_at=4),
                FaultSchedule(fault=StuckMover(mover="*"), activate_at=2),
            )
        )
        orch = FaultOrchestrator(faults, seed=0)
        assert orch.frozen_epoch("cart_0", 1) is None
        assert orch.frozen_epoch("cart_0", 3) == 2
        assert orch.frozen_epoch("cart_0", 7) == 2
        assert orch.frozen_epoch("other", 7) == 2  # "*" matches everything

    def test_stuck_mover_matches_its_own_instances_only(self):
        fault = StuckMover(mover="cart")
        # The spec name, and the instances build_movers names <spec>_<index>.
        assert fault.freezes_mover("cart")
        assert fault.freezes_mover("cart_0") and fault.freezes_mover("cart_12")
        # Other movers whose names merely start with it do not freeze.
        assert not fault.freezes_mover("cartwheel_0")
        assert not fault.freezes_mover("carts_2")
        assert not fault.freezes_mover("cart_")
        assert StuckMover(mover="cart_1").freezes_mover("cart_1")
        assert not StuckMover(mover="cart_1").freezes_mover("cart_10")


class TestFaultEffects:
    """Each fault, flown inside a timed window, perturbs a short mission."""

    @pytest.mark.parametrize("name", ALL_FAULTS)
    def test_mission_diverges_from_no_fault_golden(self, name, goldens):
        case = FAULT_CASES[name]
        golden_traces, golden_movers = goldens[case.world]
        result = fly(faults=scheduled_set(case.valid, activate_at=2),
                     world=case.world)
        observed = (trace_signature(result), mover_signature(result))
        assert observed != (golden_traces, golden_movers), (
            f"fault {name!r} left the mission bit-identical to no-fault"
        )

    @pytest.mark.parametrize("name", ALL_FAULTS)
    def test_pre_activation_decisions_match_golden(self, name, goldens):
        """Before the window opens the mission is bit-identical to no-fault."""
        case = FAULT_CASES[name]
        golden_traces, _ = goldens[case.world]
        result = fly(faults=scheduled_set(case.valid, activate_at=2),
                     world=case.world)
        assert trace_signature(result)[:2] == golden_traces[:2]

    def test_comm_spike_scales_the_comm_ledger(self, goldens):
        """The spike lands exactly on the comm_* entries, nowhere else."""
        golden_traces, _ = goldens[WorldSpec()]
        result = fly(
            faults=scheduled_set(CommsLatencySpike(factor=4.0), activate_at=2)
        )
        trace = result.traces[2]
        golden_stage = golden_traces[2][5]
        for stage, seconds in trace.stage_latencies.items():
            if is_comm_stage(stage):
                assert seconds == pytest.approx(golden_stage[stage] * 4.0)
            else:
                assert seconds == golden_stage[stage]
        assert set(COMM_STAGES) <= set(trace.stage_latencies)

    def test_negative_hook_latency_is_rejected(self, monkeypatch):
        """A fault hook that returns a negative latency fails by name."""

        class NegativeComm(Fault):
            fault_name = "negative_comm"

            def comm_seconds(self, stage, seconds, index, active_for):
                return -1.0

            def to_dict(self):
                return {}

        monkeypatch.setitem(faults_module._FAULTS, "negative_comm", NegativeComm)
        spec = ScenarioSpec(
            name="negative",
            environment=TINY_ENV,
            mission=dataclasses.replace(TINY_CFG, max_decisions=4),
            faults=scheduled_set(NegativeComm(), activate_at=1),
        )
        with pytest.raises(ValueError, match="negative"):
            spec.run()

    def test_brownout_scales_the_recorded_budget(self, goldens):
        golden_traces, _ = goldens[WorldSpec()]
        result = fly(
            faults=scheduled_set(PowerBrownout(scale=0.4), activate_at=2)
        )
        golden_budget = golden_traces[2][2]
        assert result.traces[2].time_budget == pytest.approx(golden_budget * 0.4)
        # Before activation the budget is untouched.
        assert result.traces[1].time_budget == golden_traces[1][2]

    def test_brownout_hits_baseline_feasibility_not_just_roborun(self):
        """The static baseline sees the same shrunken budget (and suffers)."""
        from repro.core.baseline import SpatialObliviousRuntime
        runtime = SpatialObliviousRuntime()
        with pytest.raises(ValueError):
            runtime.decide(None, budget_scale=0.0)

    def test_stuck_mover_freezes_ground_truth(self, goldens):
        _, golden_movers = goldens[CROSSER_WORLD]
        result = fly(
            faults=scheduled_set(StuckMover(mover="cart"), activate_at=2),
            world=CROSSER_WORLD,
        )
        frozen = mover_signature(result)
        assert frozen and golden_movers
        assert frozen != golden_movers
        # The frozen cart holds its activation-epoch position: south of the
        # flight line, while the unfrozen golden cart has drifted north.
        assert frozen[0][2] < golden_movers[0][2]

    def test_active_faults_are_stamped_into_trace_records(self):
        """TraceRecorder tags each decision with its active fault windows."""
        spec = ScenarioSpec(
            name="tagged",
            environment=TINY_ENV,
            mission=TINY_CFG,
            faults=scheduled_set(
                CommsLatencySpike(factor=4.0), activate_at=2, clear_at=4
            ),
        )
        recorder = TraceRecorder()
        spec.run(recorder=recorder)
        by_index = {record.index: record for record in recorder.records}
        assert by_index[0].faults == ()
        assert by_index[2].faults == ("comms_latency_spike",)
        assert by_index[3].faults == ("comms_latency_spike",)
        assert by_index[4].faults == ()
        # No-fault records serialise without a "faults" key at all (the
        # pre-orchestrator byte layout); active ones carry the tag list.
        assert "faults" not in by_index[0].to_dict()
        assert by_index[2].to_dict()["faults"] == ["comms_latency_spike"]


class TestGridFaultAxis:
    def test_single_config_applies_everywhere_without_tags(self):
        specs = scenario_grid(
            "g", designs=("roborun",), densities=(0.3, 0.5),
            base_environment=TINY_ENV, mission=TINY_CFG,
            faults={"sensor_dropout": {"every_n": 3}},
        )
        assert len(specs) == 2
        assert all(s.faults.sensor_dropout.every_n == 3 for s in specs)
        assert all("sensor_dropout" not in s.name for s in specs)

    def test_named_mapping_becomes_a_swept_axis(self):
        specs = scenario_grid(
            "g", designs=("roborun",), densities=(0.3,),
            base_environment=TINY_ENV, mission=TINY_CFG,
            faults={
                "nofault": None,
                "brownout": {"schedule": [
                    {"fault": "power_brownout", "params": {"scale": 0.4},
                     "activate_at": 2}
                ]},
            },
        )
        assert len(specs) == 2
        names = [s.name for s in specs]
        assert any("_nofault_" in n for n in names)
        assert any("_brownout_" in n for n in names)
        assert len({s.seed for s in specs}) == len(specs)
        labels = {
            MissionRecord(
                spec_name=s.name, design=s.design, seed=s.seed, spec=s.to_dict()
            ).fault_label
            for s in specs
        }
        assert labels == {"none", "power_brownout"}

    def test_typoed_fault_name_fails_loudly(self):
        with pytest.raises(ValueError, match="registered"):
            scenario_grid(
                "g", designs=("roborun",), base_environment=TINY_ENV,
                mission=TINY_CFG,
                faults={"broken": {"power_brownout": {"scale": 0.4}}},
            )

    def test_empty_config_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            scenario_grid(
                "g", designs=("roborun",), base_environment=TINY_ENV,
                mission=TINY_CFG, faults={"": None},
            )


@pytest.mark.slow
class TestCampaignDeterminismUnderFaults:
    """Serial and multiprocessing sweeps write byte-identical traces."""

    def build_specs(self):
        return scenario_grid(
            "matrix",
            densities=(0.3,),
            base_environment=TINY_ENV,
            mission=dataclasses.replace(TINY_CFG, max_decisions=10),
            base_seed=30,
            faults={
                "nofault": None,
                "spike": {"schedule": [
                    {"fault": "comms_latency_spike",
                     "params": {"factor": 4.0}, "activate_at": 2,
                     "clear_at": 7, "jitter": 2}
                ]},
                "brownout": {"schedule": [
                    {"fault": "power_brownout", "params": {"scale": 0.5},
                     "activate_at": 1}
                ]},
            },
        )

    def test_serial_and_parallel_traces_byte_identical(self, tmp_path):
        specs = self.build_specs()
        assert len(specs) == 6  # 2 designs x 3 fault configs
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        CampaignRunner(max_workers=1).run(specs, trace_dir=serial_dir)
        CampaignRunner(max_workers=2).run(specs, trace_dir=parallel_dir)
        serial_files = sorted(p.name for p in serial_dir.glob("*.jsonl"))
        parallel_files = sorted(p.name for p in parallel_dir.glob("*.jsonl"))
        assert serial_files == parallel_files and len(serial_files) == 6
        for name in serial_files:
            assert (serial_dir / name).read_bytes() == (
                parallel_dir / name
            ).read_bytes(), f"trace {name} differs between serial and pool runs"
