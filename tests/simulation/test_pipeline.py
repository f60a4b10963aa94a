"""Tests for the decision pipeline.

Covers the dispatch log's structure (topics, one complete cascade per
decision), the stage latencies each decision record carries, dispatch-order
determinism (same seed → identical log) and the fault injections applied
at the sense boundary.
"""

from collections import Counter

import pytest

from repro import (
    CameraDegradation,
    EnvironmentConfig,
    EnvironmentGenerator,
    FaultSet,
    FleetSimulator,
    MissionConfig,
    MissionSimulator,
    RoboRunRuntime,
    SensorDropout,
    SpatialObliviousRuntime,
)
from repro.middleware.latency import ALL_STAGES, COMM_STAGES

TINY_ENV = EnvironmentConfig(
    obstacle_density=0.3, obstacle_spread=30.0, goal_distance=60.0, seed=3
)
TINY_CFG = MissionConfig(max_decisions=25, max_mission_time_s=200.0)

#: One decision's dispatch-log entries, (topic, publishing node), in the
#: order the cascade delivers them: every subscriber of a topic gets its own
#: entry.
CASCADE = (
    ("/sense/scan", "sense"),
    ("/sense/scan", "sense"),
    ("/profile/space", "profile"),
    ("/profile/space", "profile"),
    ("/governor/decision", "governor"),
    ("/governor/decision", "governor"),
    ("/governor/decision", "governor"),
    ("/perception/output", "perception"),
    ("/perception/output", "perception"),
    ("/planning/trajectory", "planning"),
    ("/planning/trajectory", "planning"),
    ("/planning/output", "planning"),
    ("/flight/result", "flight"),
    ("/flight/result", "flight"),
)
#: The entries a stall drop appends after the flight result.
DROP = (
    ("/planning/trajectory", "planning"),
    ("/planning/trajectory", "planning"),
)


def fly_tiny(faults=None):
    env = EnvironmentGenerator().generate(TINY_ENV)
    sim = MissionSimulator(env, RoboRunRuntime(), TINY_CFG, faults=faults)
    return sim.run()


@pytest.fixture(scope="module")
def tiny_result():
    return fly_tiny()


class DecisionWatch:
    """Step observer noting each decision's drone and trajectory drop."""

    def __init__(self):
        self.decisions = []

    def attach(self, pipeline):
        pipeline.observers.append(self)

    def on_decision_start(self, pipeline, index):
        pass

    def on_decision_end(self, pipeline, index, result):
        self.decisions.append((pipeline.drone_id, result.drop_trajectory))


class TestGraphStructure:
    def test_every_topic_carries_traffic(self, tiny_result):
        deliveries = Counter(topic for topic, _ in tiny_result.pipeline.dispatch_log())
        decisions = tiny_result.metrics.decision_count
        # Each decision delivers every topic once per subscriber (trajectory
        # republishes on stall drops, so it can exceed that).
        subscribers = {
            "/sense/scan": 2,
            "/profile/space": 2,
            "/governor/decision": 3,
            "/perception/output": 2,
            "/planning/output": 1,
            "/flight/result": 2,
        }
        for topic, count in subscribers.items():
            assert deliveries[topic] == count * decisions
        assert deliveries["/planning/trajectory"] >= 2 * decisions
        assert set(deliveries) == set(subscribers) | {"/planning/trajectory"}

    def test_cascade_completes_every_decision(self, tiny_result):
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
        # The hop cost is sized by the payloads each stage hands on: at
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

    def test_cascade_dispatch_shape(self):
        # Every decision logs the same 14 entries, plus the drop pair exactly
        # when its flight result dropped the trajectory.  A fleet's drones
        # take turns, each decision's slice inside its drone's namespace.
        runs = {}
        for name, runtime in (
            ("roborun", RoboRunRuntime),
            ("baseline", SpatialObliviousRuntime),
        ):
            env = EnvironmentGenerator().generate(TINY_ENV)
            watch = DecisionWatch()
            result = MissionSimulator(env, runtime(), TINY_CFG).run(taps=(watch,))
            runs[name] = (result, watch, 1)
        env = EnvironmentGenerator().generate(TINY_ENV)
        watch = DecisionWatch()
        fleet = FleetSimulator(env, RoboRunRuntime, TINY_CFG, n_drones=2)
        runs["fleet"] = (fleet.run(taps=(watch,)), watch, 2)

        for name, (result, watch, n_drones) in runs.items():
            expected = []
            for drone_id, dropped in watch.decisions:
                topic = "" if n_drones == 1 else f"/drone/{drone_id}"
                node = "" if n_drones == 1 else f"drone/{drone_id}/"
                entries = CASCADE + (DROP if dropped else ())
                expected.extend((topic + t, node + n) for t, n in entries)
            assert result.pipeline.dispatch_log() == expected, name
        # Only the baseline drops a trajectory on this world: once.
        drops = {
            name: sum(dropped for _, dropped in watch.decisions)
            for name, (_, watch, _) in runs.items()
        }
        assert drops == {"roborun": 0, "baseline": 1, "fleet": 0}
        assert [len(watch.decisions) for _, watch, _ in runs.values()] == [25, 25, 50]


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
