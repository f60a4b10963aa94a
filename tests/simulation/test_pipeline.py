"""Tests for the node-based decision pipeline.

Covers the graph's structure (topics, cascade completeness), the stage
latencies each decision record carries, dispatch-order determinism (same
seed → identical executor log) and the fault injections applied at the
sense boundary.
"""

import pytest

from repro import (
    CameraDegradation,
    EnvironmentConfig,
    EnvironmentGenerator,
    FaultSet,
    MissionConfig,
    MissionSimulator,
    RoboRunRuntime,
    SensorDropout,
)
from repro.middleware.latency import ALL_STAGES, COMM_STAGES
from repro.simulation.pipeline import (
    TOPIC_DECISION,
    TOPIC_FLIGHT,
    TOPIC_PERCEPTION,
    TOPIC_PLANNING,
    TOPIC_PROFILE,
    TOPIC_SCAN,
    TOPIC_TRAJECTORY,
)

TINY_ENV = EnvironmentConfig(
    obstacle_density=0.3, obstacle_spread=30.0, goal_distance=60.0, seed=3
)
TINY_CFG = MissionConfig(max_decisions=25, max_mission_time_s=200.0)


def fly_tiny(faults=None):
    env = EnvironmentGenerator().generate(TINY_ENV)
    sim = MissionSimulator(env, RoboRunRuntime(), TINY_CFG, faults=faults)
    return sim.run()


@pytest.fixture(scope="module")
def tiny_result():
    return fly_tiny()


class TestGraphStructure:
    def test_every_topic_carries_traffic(self, tiny_result):
        bus = tiny_result.pipeline.bus
        expected = {
            TOPIC_SCAN,
            TOPIC_PROFILE,
            TOPIC_DECISION,
            TOPIC_PERCEPTION,
            TOPIC_PLANNING,
            TOPIC_TRAJECTORY,
            TOPIC_FLIGHT,
        }
        assert expected <= set(bus.names())
        decisions = tiny_result.metrics.decision_count
        for topic in expected - {TOPIC_TRAJECTORY}:
            # One message per decision on every edge (trajectory republishes
            # on stall drops, so it can exceed the decision count).
            assert bus.topic(topic).publish_count == decisions
        assert bus.topic(TOPIC_TRAJECTORY).publish_count >= decisions

    def test_cascade_completes_every_decision(self, tiny_result):
        pipeline = tiny_result.pipeline
        assert pipeline.executor.pending == 0
        indices = [trace.index for trace in tiny_result.traces]
        assert indices == list(range(len(indices)))

    def test_every_kernel_stage_is_charged(self, tiny_result):
        # The perception and planning kernels and the governor all did
        # charged work over the mission.
        totals = tiny_result.ledger.stage_totals()
        assert totals["point_cloud"] + totals["octomap"] > 0
        assert (
            totals["perception_to_planning"]
            + totals["piecewise_planning"]
            + totals["path_smoothing"]
        ) > 0
        assert totals["runtime"] > 0


class TestStageLatencies:
    def test_every_record_carries_every_stage(self, tiny_result):
        for trace in tiny_result.traces:
            assert list(trace.stage_latencies) == list(ALL_STAGES)
            assert trace.end_to_end_latency == sum(trace.stage_latencies.values())

    def test_comm_scales_with_payload(self, tiny_result):
        # The hop cost is sized by the payloads that crossed the bus: at
        # least the per-message floor, and varying across the mission.
        costs = {
            trace.stage_latencies[stage]
            for trace in tiny_result.traces
            for stage in COMM_STAGES
        }
        assert len(costs) > 1
        assert all(c > 0 for c in costs)


class TestDispatchDeterminism:
    def test_same_seed_same_dispatch_order(self):
        first = fly_tiny()
        second = fly_tiny()
        log_a = first.pipeline.dispatch_log()
        log_b = second.pipeline.dispatch_log()
        assert log_a == log_b
        assert len(log_a) > 0
        assert first.metrics.as_dict() == second.metrics.as_dict()

    def test_cascade_dispatch_shape(self, tiny_result):
        # Every decision's cascade starts with the scan fan-out and ends with
        # the flight result fan-out, in FIFO order.
        log = tiny_result.pipeline.dispatch_log()
        assert log[0] == (TOPIC_SCAN, "sense")
        scan_deliveries = [entry for entry in log if entry[0] == TOPIC_SCAN]
        # Two subscribers (profile, perception) per decision.
        assert len(scan_deliveries) == 2 * tiny_result.metrics.decision_count


@pytest.mark.slow
class TestBenchmarkSeedGolden:
    """Acceptance: bit-identical metrics on the fixed benchmark seed.

    The expected values were captured from the pre-refactor monolithic loop
    on the benchmark environment (``benchmarks/conftest.BENCH_ENV``); the
    node graph must reproduce every metric exactly.
    """

    BENCH_ENV = EnvironmentConfig(
        obstacle_density=0.3, obstacle_spread=40.0, goal_distance=120.0, seed=11
    )
    BENCH_CFG = MissionConfig(max_decisions=500, max_mission_time_s=1500.0)
    GOLDEN_ROBORUN = {
        "success": 1.0,
        "collided": 0.0,
        "mission_time_s": 214.69268399999996,
        "distance_travelled_m": 136.85867226413055,
        "mean_velocity_mps": 0.6374631390053821,
        "energy_kj": 102.49095704528258,
        "mean_cpu_utilization": 1.0,
        "decision_count": 204.0,
        "median_latency_s": 0.97176,
        "max_latency_s": 2.1518280000000005,
        "deadline_miss_rate": 0.9117647058823529,
        "replan_count": 20.0,
    }

    def test_roborun_bench_seed_bit_identical(self):
        env = EnvironmentGenerator().generate(self.BENCH_ENV)
        result = MissionSimulator(env, RoboRunRuntime(), self.BENCH_CFG).run()
        assert result.metrics.as_dict() == self.GOLDEN_ROBORUN
        assert sum(len(t.stage_latencies) for t in result.traces) == 2040


class TestFaultInjection:
    def test_sensor_dropout_blanks_scheduled_decisions(self):
        faults = FaultSet(sensor_dropout=SensorDropout(every_n=3))
        result = fly_tiny(faults=faults)
        dropped = [t.index for t in result.traces if t.dropped]
        assert dropped, "dropout schedule never fired"
        assert all(index % 3 == 2 for index in dropped)
        fixed_cost = result.pipeline.flight.cost_model.point_cloud_fixed_s
        per_decision = {
            t.index: t.stage_latencies["point_cloud"] for t in result.traces
        }
        for index, cost in per_decision.items():
            if index in dropped:
                # A lost frame converts zero pixels: only the fixed cost.
                assert cost == pytest.approx(fixed_cost)
            else:
                assert cost > fixed_cost

    def test_camera_degradation_reduces_point_cloud_work(self):
        faults = FaultSet(
            camera_degradation=CameraDegradation(width=4, height=3, after_decision=5)
        )
        result = fly_tiny(faults=faults)
        per_decision = {
            t.index: t.stage_latencies["point_cloud"] for t in result.traces
        }
        healthy = per_decision[0]
        degraded = per_decision[6]
        assert degraded < healthy
        # Degradation is permanent once it strikes.
        assert all(
            per_decision[i] == pytest.approx(degraded)
            for i in range(5, len(per_decision))
        )

    def test_faultless_mission_unaffected_by_fault_plumbing(self, tiny_result):
        explicit = fly_tiny(faults=FaultSet())
        assert explicit.metrics.as_dict() == tiny_result.metrics.as_dict()

    def test_dropout_validation(self):
        with pytest.raises(ValueError):
            SensorDropout(every_n=1)
        with pytest.raises(ValueError):
            CameraDegradation(width=0, height=3)
