"""Run one benchmark workload, check its outputs and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload corridor_ab --seed 1 --seconds 30 --trace 0

``--trace 0`` flies passes of the workload with no instrumentation for about
``--seconds`` and reports the end-to-end metrics.  ``--trace 1``
flies one untraced pass and one pass with the layer wrappers of
``layers.py`` installed, and reports the per-layer metrics plus the tracing
overhead.  The metric names and units come from ``BENCHMARK.json``.

Every run checks the program's outputs.  A failed check is named on stderr,
the result line reads ``"correct": false`` and the exit code is 1.  The last
line of standard output is the JSON result; a copy goes to the untracked
``.perfbench_out/`` directory.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: the repro sources are missing under {SRC}")
sys.path.insert(0, str(SRC))

import layers  # noqa: E402  (imports repro from SRC)
import workloads as w  # noqa: E402

#: The paper's headline A/B claims (RoboRun vs. the static worst-case design).
PAPER_RATIOS = {"sim_time_ratio_x": 4.5, "sim_energy_ratio_x": 4.0}

#: Ledger stage -> the traced layers that do that stage's work on the host.
STAGE_LAYERS = {
    "point_cloud": ("perception.point_cloud",),
    "octomap": ("perception.octomap_insert", "perception.octomap_forget"),
    "perception_to_planning": ("perception.planning_view",),
    "piecewise_planning": ("planning.rrt",),
    "path_smoothing": ("planning.smooth",),
    "runtime": ("core.profile", "core.decide"),
}

Metrics = Dict[str, float]


class Checks:
    """Collects named correctness checks; any failure fails the run."""

    def __init__(self) -> None:
        self.failed: List[str] = []

    def expect(self, condition: bool, name: str, detail: str = "") -> None:
        if not condition:
            self.failed.append(f"{name}: {detail}" if detail else name)


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(w.SPEC_BUILDERS))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the specs within each pass")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="trace 0: fly whole passes for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout", action="store_true",
                        help="fly the held-out world seeds instead of the default ones")
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Mission workloads
# ----------------------------------------------------------------------
def mission_end_to_end(specs: List[Any], args: argparse.Namespace,
                       checks: Checks, report: List[str]) -> Tuple[Metrics, Dict[str, float]]:
    setup, passes = w.measure_missions(specs, args.seconds, random.Random(args.seed))
    first = passes[0]
    for later in passes[1:]:
        checks.expect(later.witnesses == first.witnesses, "repeat-determinism",
                      "a repeated pass of identical specs produced different outputs")
    decision_ms = [ms for flown in passes for ms in flown.decision_ms]
    run_s = sum(flown.run_s for flown in passes)
    sim = w.sim_summary(first.drones)
    report.append(f"passes {len(passes)}; {len(decision_ms)} drone-decisions over "
                  f"{run_s:.2f} s of flight; {len(setup)} timed simulator builds")
    metrics = {
        "decisions_per_s": len(decision_ms) / run_s,
        "decision_ms_p50": statistics.median(decision_ms),
        "decision_ms_p95": w.percentile(decision_ms, 95),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": w.process_peak_rss_mb(),
    }
    return metrics, sim | {"attempted": sum(len(p.drones) for p in passes),
                           "failed": sum(r["collided"] for p in passes for r in p.drones)}


def mission_layers(specs: List[Any], args: argparse.Namespace,
                   checks: Checks, report: List[str]) -> Tuple[Metrics, Dict[str, float]]:
    order = list(specs)
    random.Random(args.seed).shuffle(order)
    w.warm_up(order)
    untraced = w.fly_missions(order)
    with layers.LayerTracer() as tracer:
        traced = w.fly_missions(order)
    checks.expect(traced.witnesses == untraced.witnesses, "traced-equals-untraced",
                  "sim metrics or work witnesses differ with the layer wrappers on")
    metrics = layers.layer_metrics(tracer, w.epoch_count(traced.drones))
    metrics.update({name: 0.0 for name in layers.CAMPAIGN_LAYERS})
    metrics["trace_overhead"] = traced.wall_s - untraced.wall_s
    report.extend(stage_table(tracer, traced.ledgers))
    sim = w.sim_summary(traced.drones)
    both = untraced.drones + traced.drones
    return metrics, sim | {"attempted": len(both), "failed": sum(r["collided"] for r in both)}


# ----------------------------------------------------------------------
# The campaign workload
# ----------------------------------------------------------------------
def campaign_end_to_end(specs: List[Any], args: argparse.Namespace,
                        checks: Checks, report: List[str]) -> Tuple[Metrics, Dict[str, float]]:
    out = OUT / "campaign_grid"
    setup, passes = w.measure_campaign(specs, args.seconds, random.Random(args.seed), out)
    first = passes[0]
    for flown in passes:
        check_campaign_pass(flown, checks)
    for later in passes[1:]:
        checks.expect(later.traces == first.traces, "repeat-determinism",
                      "a repeated campaign produced different trace bytes")
    decision_ms = [ms for flown in passes for ms in w.heartbeat_decision_ms(flown)]
    decisions = sum(flown.decisions for flown in passes)
    flight_s = sum(flown.wall_s - flown.setup_s for flown in passes)
    report.append(f"passes {len(passes)}; {decisions} drone-decisions over {flight_s:.2f} s "
                  f"after set-up; {len(decision_ms)} heartbeat intervals timed; "
                  f"{len(setup)} campaign set-ups timed")
    metrics = {
        "decisions_per_s": decisions / flight_s,
        "decision_ms_p50": statistics.median(decision_ms),
        "decision_ms_p95": w.percentile(decision_ms, 95),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r["rss_mb"] for flown in passes for _, r in flown.heartbeats),
    }
    rows = first.drones()
    return metrics, w.sim_summary(rows) | campaign_failures(passes)


def campaign_layers(specs: List[Any], args: argparse.Namespace,
                    checks: Checks, report: List[str]) -> Tuple[Metrics, Dict[str, float]]:
    out = OUT / "campaign_grid"
    order = list(specs)
    random.Random(args.seed).shuffle(order)
    asynchronous = w.fly_campaign(order, out / "async", "async")
    # Workers cannot be wrapped from here, so the traced pass is serial, and
    # so is its untraced reference, after a short warm-up as for the missions.
    w.fly_campaign(w.truncated(specs, w.WARM_UP_DECISIONS), out / "warm", "serial")
    untraced = w.fly_campaign(specs, out / "serial", "serial")
    with layers.LayerTracer() as tracer:
        serial = w.fly_campaign(specs, out / "serial", "serial")
    for flown in (asynchronous, untraced, serial):
        check_campaign_pass(flown, checks)
    checks.expect(serial.traces == untraced.traces, "traced-equals-untraced",
                  "a per-spec trace differs with the layer wrappers on")
    checks.expect(asynchronous.traces == serial.traces, "async-equals-serial-traces",
                  "an async per-spec trace differs from the traced serial run's")
    rows = serial.drones()
    metrics = layers.layer_metrics(tracer, w.epoch_count(rows))
    metrics.update(w.campaign_layers(asynchronous))
    metrics.update(layers.campaign_phase_metrics(tracer))
    metrics["campaign.trace.bytes"] = float(sum(len(b) for b in serial.traces.values()))
    metrics["trace_overhead"] = serial.wall_s - untraced.wall_s
    ledgers = [d.ledger for r in serial.results for d in getattr(r, "drones", None) or [r]]
    report.extend(stage_table(tracer, ledgers))
    return metrics, w.sim_summary(rows) | campaign_failures([asynchronous, untraced, serial])


def check_campaign_pass(flown: Any, checks: Checks) -> None:
    errors = [o.spec.name for o in flown.outcomes if not o.ok]
    checks.expect(not errors, "spec-errors", f"specs errored: {errors}")
    checks.expect(len(flown.traces) == len(flown.outcomes) and not flown.incomplete,
                  "complete-traces", f"missing or torn trace files: {flown.incomplete}")


def campaign_failures(passes: Sequence[Any]) -> Dict[str, float]:
    attempted = failed = 0
    for flown in passes:
        attempted += sum(o.spec.n_drones for o in flown.outcomes)
        failed += sum(1 for o in flown.outcomes if not o.ok)
        failed += sum(r["collided"] for r in flown.drones())
    return {"attempted": attempted, "failed": failed}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def stage_table(tracer: layers.LayerTracer, ledgers: Sequence[Any]) -> List[str]:
    """Modelled stage latency (LatencyLedger) next to the host ms it cost."""
    decisions = tracer.calls("simulation.step")
    modelled = w.modelled_stage_seconds(ledgers)
    lines = ["stage                   modelled ms/decision   host ms/decision"]
    for stage in sorted(modelled, key=lambda s: (s.startswith("comm_"), s)):
        host = sum(tracer.self_ms(name) for name in STAGE_LAYERS.get(stage, ()))
        host_text = f"{host / decisions:17.3f}" if stage in STAGE_LAYERS else f"{'-':>17}"
        lines.append(f"{stage:<24}{1000.0 * modelled[stage] / decisions:20.3f}{host_text}")
    return lines


def outcome_lines(sim: Dict[str, float]) -> List[str]:
    lines = [
        f"failed_fraction         {sim['failed'] / sim['attempted']:.4f} ratio "
        f"({int(sim['failed'])} errored specs + collided drones of "
        f"{int(sim['attempted'])} drone-missions attempted)"
    ]
    for name, paper in PAPER_RATIOS.items():
        if name in sim:
            lines.append(
                f"{name:<24}{sim[name]:.4f} x baseline / RoboRun over "
                f"{int(sim['ratio_pairs'])} spec pair(s); paper: {paper}X. The cost "
                f"model is unvalidated beyond this comparison."
            )
    return lines


def main(argv: Sequence[str]) -> int:
    args = parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = w.SPEC_BUILDERS[args.workload](w.HOLDOUT if args.holdout else w.DEFAULT)
    checks = Checks()
    report: List[str] = []
    campaign = args.workload == "campaign_grid"
    if args.trace:
        runner = campaign_layers if campaign else mission_layers
        metrics, sim = runner(specs, args, checks, report)
        wanted = declared["per_layer"]
    else:
        runner = campaign_end_to_end if campaign else mission_end_to_end
        metrics, sim = runner(specs, args, checks, report)
        metrics["sim_mission_time_s"] = sim["sim_mission_time_s"]
        metrics["sim_energy_kj"] = sim["sim_energy_kj"]
        wanted = declared["end_to_end"]
    if not args.holdout:
        checks.expect(sim["collided"] == 0, "no-collisions",
                      f"{int(sim['collided'])} drone(s) collided at the default seeds")

    result_metrics = {
        entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
        for entry in wanted
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"{'  (held-out worlds)' if args.holdout else ''}")
    for line in report:
        print("  " + line)
    for name, value in result_metrics.items():
        print(f"  {name:<36}{value['value']:14.6g} {value['unit']}")
    for line in outcome_lines(sim):
        print("  " + line)
    for failure in checks.failed:
        print(f"CHECK FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not checks.failed,
        "attempted": int(sim["attempted"]),
        "failed": int(sim["failed"]),
        "metrics": result_metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
