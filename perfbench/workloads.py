"""The benchmark's three workloads: fixed simulated inputs, timed passes.

Each workload is a fixed list of :class:`~repro.ScenarioSpec` values.  The
simulated inputs are pinned to the world seeds below because the simulator
is chaotic across worlds: on the corridor, other world or planner seeds give
mission times from 20 to 960 simulated seconds, aborted missions and a
collision, so per-seed worlds would spread every metric far beyond a
usable bound.  ``HOLDOUT`` is the second seed of each workload, kept for
checking a claim on data that was not used to tune it.

A *pass* flies a workload's specs once.  Every pass of one workload flies
identical inputs, so repeated passes must agree exactly on every simulated
quantity; the benchmark's ``--seed`` only orders the specs within a pass.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from repro import (
    CampaignRunner,
    EnvironmentConfig,
    MissionConfig,
    MoverSpec,
    ScenarioSpec,
    WorldSpec,
)
from repro.analysis.io import is_complete_trace, list_trace_files
from repro.analysis.trace import record_from_line
from repro.report import load_grid_file

HERE = Path(__file__).resolve().parent

#: The (default, held-out) input of each workload: a world seed for the
#: missions, a seed shift for every spec of the grid.
DEFAULT, HOLDOUT = 0, 1
CORRIDOR_WORLD_SEEDS = (11, 5)
RUBBLE_WORLD_SEEDS = (11, 7)
GRID_SEED_SHIFTS = (0, 16)

#: The environment of benchmarks/conftest.py:BENCH_ENV, minus its seed.
CORRIDOR_KNOBS = dict(obstacle_density=0.3, obstacle_spread=40.0, goal_distance=120.0)
RUBBLE_EPOCHS = 80
#: Campaign worker processes: at most two, never more than the machine has.
CAMPAIGN_WORKERS = min(2, os.cpu_count() or 1)
#: Timed simulator builds per spec before each pass and after the last.
SETUP_ROUNDS = 5
#: Decisions per spec flown untimed before the timed mission passes.
WARM_UP_DECISIONS = 10
#: Short campaigns timed for set-up before each campaign pass and after the last.
CAMPAIGN_SETUP_ROUNDS = 1


def corridor_specs(variant: int = DEFAULT) -> List[ScenarioSpec]:
    """One RoboRun and one spatial-oblivious mission on the paper corridor."""
    environment = EnvironmentConfig(seed=CORRIDOR_WORLD_SEEDS[variant], **CORRIDOR_KNOBS)
    mission = MissionConfig(max_decisions=500, max_mission_time_s=1500.0)
    return [
        ScenarioSpec(name=f"corridor_{design}", design=design,
                     environment=environment, mission=mission)
        for design in ("roborun", "spatial_oblivious")
    ]


def rubble_specs(variant: int = DEFAULT) -> List[ScenarioSpec]:
    """A 4-drone RoboRun fleet on disaster rubble with two corridor crossers."""
    crossers = (
        MoverSpec(kind="crosser", origin=(40.0, -30.0, 5.0),
                  velocity=(0.0, 2.0, 0.0), span_m=60.0, name="crosser"),
        MoverSpec(kind="crosser", origin=(80.0, 30.0, 5.0),
                  velocity=(0.0, -2.0, 0.0), span_m=60.0, name="crosser"),
    )
    spec = ScenarioSpec(
        name="rubble_fleet4",
        design="roborun",
        environment=EnvironmentConfig(**CORRIDOR_KNOBS),
        mission=MissionConfig(max_decisions=RUBBLE_EPOCHS, max_mission_time_s=1500.0),
        world=WorldSpec(archetype="disaster_rubble", movers=crossers),
        n_drones=4,
    )
    return [spec.seeded(RUBBLE_WORLD_SEEDS[variant])]


def grid_specs(variant: int = DEFAULT) -> List[ScenarioSpec]:
    """The 16-spec grid of this directory's copy of examples/grid_small.json."""
    specs = load_grid_file(HERE / "grid_small.json")
    shift = GRID_SEED_SHIFTS[variant]
    return [spec.seeded(spec.seed + shift) for spec in specs] if shift else specs


SPEC_BUILDERS = {
    "corridor_ab": corridor_specs,
    "rubble_fleet4": rubble_specs,
    "campaign_grid": grid_specs,
}


# ----------------------------------------------------------------------
# Shared read-outs
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (1..99) of the values, as statistics.quantiles cuts."""
    return statistics.quantiles(values, n=100)[q - 1]


def process_peak_rss_mb() -> float:
    """This process's peak resident set size, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def drone_missions(spec: ScenarioSpec, result: Any) -> List[Dict[str, Any]]:
    """One metric row per drone of a flown spec (fleet or single drone)."""
    drones = getattr(result, "drones", None) or [result]
    return [
        {"spec": spec.name, "design": spec.design, "drone": index, **drone.metrics.as_dict()}
        for index, drone in enumerate(drones)
    ]


def epoch_count(drones: Sequence[Dict[str, Any]]) -> int:
    """Decision epochs flown: per spec, its longest-lived drone's decisions."""
    longest: Dict[str, float] = {}
    for row in drones:
        longest[row["spec"]] = max(longest.get(row["spec"], 0.0), row["decision_count"])
    return int(sum(longest.values()))


def sim_summary(drones: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Deterministic simulated outcomes, summed in a fixed (spec, drone) order."""
    rows = sorted(drones, key=lambda row: (row["spec"], row["drone"]))
    missions = len(rows)
    summary = {
        "sim_mission_time_s": sum(r["mission_time_s"] for r in rows) / missions,
        "sim_energy_kj": sum(r["energy_kj"] for r in rows) / missions,
        "collided": float(sum(r["collided"] for r in rows)),
        "drone_missions": float(missions),
    }
    ratios = design_ratios(rows)
    if ratios:
        summary.update(ratios)
    return summary


def design_ratios(rows: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Baseline ÷ RoboRun mission time and energy, paired by spec.

    Specs pair when their names differ only in the design; each pair's
    ratio is taken over the per-spec drone means and the pairs are combined
    by geometric mean.  Empty when the workload flies only one design.
    """
    per_spec: Dict[str, List[Dict[str, Any]]] = {}
    for row in rows:
        per_spec.setdefault(row["spec"], []).append(row)
    time_ratios, energy_ratios = [], []
    for name, roborun in sorted(per_spec.items()):
        if roborun[0]["design"] != "roborun":
            continue
        partner = name.replace("roborun", "spatial_oblivious")
        if partner == name or partner not in per_spec:
            continue
        baseline = per_spec[partner]
        time_ratios.append(_mean(baseline, "mission_time_s") / _mean(roborun, "mission_time_s"))
        energy_ratios.append(_mean(baseline, "energy_kj") / _mean(roborun, "energy_kj"))
    if not time_ratios:
        return {}
    return {
        "sim_time_ratio_x": statistics.geometric_mean(time_ratios),
        "sim_energy_ratio_x": statistics.geometric_mean(energy_ratios),
        "ratio_pairs": float(len(time_ratios)),
    }


def _mean(rows: Sequence[Dict[str, Any]], key: str) -> float:
    return sum(row[key] for row in rows) / len(rows)


def modelled_stage_seconds(ledgers: Sequence[Any]) -> Dict[str, float]:
    """LatencyLedger stage totals (modelled seconds), summed over drones."""
    totals: Dict[str, float] = {}
    for ledger in ledgers:
        for stage, seconds in sorted(ledger.stage_totals().items()):
            totals[stage] = totals.get(stage, 0.0) + seconds
    return totals


# ----------------------------------------------------------------------
# Mission workloads (corridor_ab, rubble_fleet4)
# ----------------------------------------------------------------------
class StepTimer:
    """Pipeline tap timing every drone-decision cascade (``DecisionPipeline.step``).

    Attached through the public tap protocol; it only reads the clock, so
    the mission's outputs are unchanged.
    """

    def __init__(self) -> None:
        self.ms: List[float] = []
        self._start = 0

    def attach(self, pipeline: Any, energy_model: Any = None) -> None:
        del energy_model
        pipeline.observers.append(self)

    def on_decision_start(self, pipeline: Any, index: int) -> None:
        self._start = time.perf_counter_ns()

    def on_decision_end(self, pipeline: Any, index: int, result: Any) -> None:
        self.ms.append((time.perf_counter_ns() - self._start) / 1e6)


@dataclass
class MissionPass:
    """What one flight of a mission workload's specs produced."""

    wall_s: float = 0.0  # builds and flights
    run_s: float = 0.0  # flights only (simulator.run)
    decision_ms: List[float] = field(default_factory=list)
    drones: List[Dict[str, Any]] = field(default_factory=list)
    #: Per spec: every drone's metrics, the dispatch count and the ledger
    #: stage totals — the outputs two passes must reproduce exactly.
    witnesses: Dict[str, Any] = field(default_factory=dict)
    ledgers: List[Any] = field(default_factory=list)


def fly_missions(specs: Sequence[ScenarioSpec]) -> MissionPass:
    """Build and fly every spec in order, timing the flights and each decision."""
    flown = MissionPass()
    started = time.perf_counter()
    for spec in specs:
        simulator = spec.build_simulator()
        timer = StepTimer()
        t0 = time.perf_counter()
        result = simulator.run(taps=(timer,))
        flown.run_s += time.perf_counter() - t0
        flown.decision_ms.extend(timer.ms)
        rows = drone_missions(spec, result)
        flown.drones.extend(rows)
        ledgers = [drone.ledger for drone in getattr(result, "drones", None) or [result]]
        flown.ledgers.extend(ledgers)
        flown.witnesses[spec.name] = {
            "drones": rows,
            "dispatches": len(result.pipeline.dispatch_log()),
            "ledger_s": [sorted(ledger.stage_totals().items()) for ledger in ledgers],
        }
    flown.wall_s = time.perf_counter() - started
    return flown


def another_pass(started: float, done: int, seconds: float) -> bool:
    """Whether to fly another pass: always a first one, then another while
    it is expected to end nearer ``seconds`` than stopping now would."""
    if done == 0:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + 0.5 * elapsed / done < seconds


def setup_samples(specs: Sequence[ScenarioSpec]) -> List[float]:
    """Timed builds of every spec, each on a freshly collected heap.

    Collecting first keeps garbage left by earlier work from being charged
    to a build, which otherwise makes the samples bimodal.
    """
    samples = []
    for _ in range(SETUP_ROUNDS):
        for spec in specs:
            gc.collect()
            t0 = time.perf_counter()
            spec.build_simulator()
            samples.append(time.perf_counter() - t0)
    return samples


def truncated(specs: Sequence[ScenarioSpec], decisions: int) -> List[ScenarioSpec]:
    """The specs, each cut to its first ``decisions`` decision epochs."""
    return [replace(spec, mission=replace(spec.mission, max_decisions=decisions))
            for spec in specs]


def warm_up(specs: Sequence[ScenarioSpec]) -> None:
    """Fly the first decisions of every spec untimed, so the timed passes
    start with the interpreter and allocator warm."""
    fly_missions(truncated(specs, WARM_UP_DECISIONS))


def measure_missions(
    specs: Sequence[ScenarioSpec], seconds: float, rng: random.Random
) -> Tuple[List[float], List[MissionPass]]:
    """Warm up, then fly passes for ``seconds``, timing builds around them.

    The timed builds run before every pass and after the last one, so
    ``setup_s`` samples the machine over the whole run, as the flights do,
    rather than only its first second.
    """
    warm_up(specs)
    setup: List[float] = []
    passes: List[MissionPass] = []
    started = time.perf_counter()
    while another_pass(started, len(passes), seconds):
        setup += setup_samples(specs)
        order = list(specs)
        rng.shuffle(order)
        gc.collect()
        passes.append(fly_missions(order))
    setup += setup_samples(specs)
    return setup, passes


# ----------------------------------------------------------------------
# The campaign workload (campaign_grid)
# ----------------------------------------------------------------------
@dataclass
class CampaignPass:
    """What one ``CampaignRunner.run`` of the grid produced."""

    wall_s: float
    heartbeats: List[Tuple[float, Dict[str, Any]]]  # (seconds since run(), record)
    outcomes: List[Any]
    traces: Dict[str, bytes]  # trace file name -> bytes
    incomplete: List[str]  # trace files that do not end in a clean mission record
    results: List[Any] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        """From the run() call to the first spec's start in a worker.

        The parent drains heartbeats only between waits of up to 0.5 s on
        its result queue, so the arrival of the ``start`` record measures
        that poll, not the set-up.  Every worker record carries the seconds
        since its spec started, so arrival minus that bounds the start from
        above; a spec's ``done`` record arrives with its result, within
        milliseconds, so the minimum recovers the first start.
        """
        parent = os.getpid()
        return min(t - record["wall_elapsed_s"] for t, record in self.heartbeats
                   if record["pid"] != parent)

    @property
    def decisions(self) -> int:
        return int(sum(o.metrics["decision_count"] for o in self.outcomes if o.ok))

    def drones(self) -> List[Dict[str, Any]]:
        """Per drone-mission metric rows, read from each trace's mission record."""
        rows = []
        for name in sorted(self.traces):
            last_line = self.traces[name].decode("utf-8").rstrip("\n").rsplit("\n", 1)[-1]
            mission = record_from_line(last_line)
            for index, drone in enumerate(mission.drones or [mission.metrics]):
                rows.append({"spec": mission.spec_name, "design": mission.design,
                             "drone": index, **drone})
        return rows


def fly_campaign(
    specs: Sequence[ScenarioSpec], out_dir: Path, mode: str
) -> CampaignPass:
    """Run the grid once through CampaignRunner, as the report CLI does."""
    heartbeats: List[Tuple[float, Dict[str, Any]]] = []
    trace_dir = out_dir / "traces"
    t0 = time.perf_counter()

    def progress(record: Dict[str, Any]) -> None:
        heartbeats.append((time.perf_counter() - t0, record))

    if mode == "async":
        runner = CampaignRunner(max_workers=CAMPAIGN_WORKERS, mode="async")
        campaign = runner.run(specs, trace_dir=trace_dir,
                              telemetry_dir=out_dir / "telemetry", progress=progress)
    else:
        runner = CampaignRunner(mode="serial")
        campaign = runner.run(specs, keep_results=True, trace_dir=trace_dir)
    wall = time.perf_counter() - t0
    paths = list_trace_files(trace_dir)
    return CampaignPass(
        wall_s=wall,
        heartbeats=heartbeats,
        outcomes=list(campaign.outcomes),
        traces={path.name: path.read_bytes() for path in paths},
        incomplete=[path.name for path in paths if not is_complete_trace(path)],
        results=[o.result for o in campaign.outcomes if o.result is not None],
    )


def heartbeat_decision_ms(flown: CampaignPass) -> List[float]:
    """Mean decision time of every interval between a spec's heartbeats.

    Workers emit a ``running`` record at most every 0.25 s of decisions;
    each pair of consecutive ``running``/``done`` records of one spec gives
    one sample (wall delta ÷ decision delta).  The interval before the first
    ``running`` record holds world generation and is left out.
    """
    last: Dict[str, Tuple[float, int]] = {}
    samples = []
    for _, record in flown.heartbeats:
        if record["status"] not in ("running", "done"):
            continue
        spec, now = record["spec"], (record["wall_elapsed_s"], record["decisions"])
        previous = last.get(spec)
        if previous is not None and now[1] > previous[1]:
            samples.append(1000.0 * (now[0] - previous[0]) / (now[1] - previous[1]))
        last[spec] = now
    return samples


def campaign_setup_samples(short: Sequence[ScenarioSpec], out_dir: Path) -> List[float]:
    """Set-up of short async campaigns of the grid, one decision per spec."""
    return [fly_campaign(short, out_dir, "async").setup_s
            for _ in range(CAMPAIGN_SETUP_ROUNDS)]


def measure_campaign(
    specs: Sequence[ScenarioSpec], seconds: float, rng: random.Random, out_dir: Path
) -> Tuple[List[float], List[CampaignPass]]:
    """Async passes of the grid, in seeded dispatch orders, for ``seconds``.

    One pass gives one set-up sample, and the first campaign of a process
    also pays one-time imports.  So, as for the missions, short campaigns
    of the same grid are timed before every pass and after the last, after
    an untimed one, and the passes' own set-up joins their samples.
    """
    short = truncated(specs, 1)
    fly_campaign(short, out_dir / "short", "async")
    setup: List[float] = []
    passes: List[CampaignPass] = []
    started = time.perf_counter()
    while another_pass(started, len(passes), seconds):
        setup += campaign_setup_samples(short, out_dir / "short")
        order = list(specs)
        rng.shuffle(order)
        passes.append(fly_campaign(order, out_dir, "async"))
        setup.append(passes[-1].setup_s)
    setup += campaign_setup_samples(short, out_dir / "short")
    return setup, passes


def campaign_layers(flown: CampaignPass) -> Dict[str, float]:
    """Idle share, slowest spec, straggler tail and retries of one async pass.

    Worker busy time is the sum of its specs' ``done`` wall times, keyed by
    the worker pid the heartbeats carry.  The tail is how long the least
    busy worker waits for the busiest one at the end of the campaign.
    """
    done = [r for _, r in flown.heartbeats if r["status"] == "done"]
    busy_by_pid: Dict[int, float] = {}
    for record in done:
        busy_by_pid[record["pid"]] = busy_by_pid.get(record["pid"], 0.0) + record["wall_elapsed_s"]
    busy = sum(busy_by_pid.values())
    loads = list(busy_by_pid.values()) + [0.0] * (CAMPAIGN_WORKERS - len(busy_by_pid))
    return {
        "campaign.worker_idle_share": 1.0 - busy / (CAMPAIGN_WORKERS * flown.wall_s),
        "campaign.spec_s.max": max(r["wall_elapsed_s"] for r in done),
        "campaign.tail.s": max(loads) - min(loads),
        "campaign.retries": float(sum(1 for _, r in flown.heartbeats if r["status"] == "retry")),
    }
