"""Same-runner A/B of the repository benchmark: this tree against a parent revision.

Usage, from the repository root::

    python3 benchmarks/ab.py --parent HEAD^1 --pairs 3

The parent is checked out in a temporary git worktree, removed at the end.
For every workload in ``BENCHMARK.json``, pair ``i`` (1..N) runs
``perfbench/run.py --workload W --seed i --seconds <run_seconds> --trace 0``
in both trees back to back, the parent first on odd ``i``.  Per workload and
end-to-end metric it prints both medians with Q1–Q3, this tree's wins out of
N and a verdict: ``regression`` when the median is worse than the parent's by
more than the metric's ``bound`` (a fraction of the parent's median);
``unresolved`` when the parent's IQR ÷ median exceeds the bound and not every
run here beats every parent run; ``ok`` otherwise.  The claim rule holds on at
least 10 pairs when this tree wins 9 in 10 of them and the median gap exceeds
the parent's IQR.  The exit code is 1 on a regression, an incorrect run here,
or a larger share of failed drone-missions than the parent's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
CLAIM_PAIRS = 10
CLAIM_WIN_SHARE = 0.9

Run = Dict[str, Any]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) of the values; a single value is all three."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def judge(parent: Sequence[float], change: Sequence[float], better: str,
          bound: float) -> Dict[str, Any]:
    """Verdict on one metric; ``parent[i]`` and ``change[i]`` ran as pair i."""
    sign = 1.0 if better == "higher" else -1.0
    (p1, pm, p3), change_q = quartiles(parent), quartiles(change)
    cm = change_q[1]
    scale = abs(pm) or 1.0  # a zero parent median compares absolute gaps
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    if sign * (cm - pm) / scale < -bound:
        verdict = "regression"
    elif (p3 - p1) / scale > bound and not beats_all:
        verdict = "unresolved"
    else:
        verdict = "ok"
    claim = (len(parent) >= CLAIM_PAIRS and wins >= CLAIM_WIN_SHARE * len(parent)
             and sign * (cm - pm) > p3 - p1)
    return {"parent": (p1, pm, p3), "change": change_q, "wins": wins,
            "verdict": verdict, "claim": claim}


def failed_share(runs: Sequence[Run]) -> float:
    """Errored specs plus collided drones, over drone-missions attempted."""
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def compare(end_to_end: Sequence[Dict[str, Any]], parent_runs: Sequence[Run],
            change_runs: Sequence[Run]) -> Tuple[List[Tuple[str, Dict[str, Any]]], List[str]]:
    """One workload's rows per metric and the reasons it fails, from its result lines."""
    failures = []
    incorrect = sum(not r["correct"] for r in change_runs)
    if incorrect:
        failures.append(f"{incorrect} incorrect run(s)")
    parent_share, change_share = failed_share(parent_runs), failed_share(change_runs)
    if change_share > parent_share:
        failures.append(f"failed share {change_share:.4f} > parent's {parent_share:.4f}")
    rows = []
    for entry in end_to_end:
        name = entry["name"]
        row = judge([r["metrics"][name]["value"] for r in parent_runs],
                    [r["metrics"][name]["value"] for r in change_runs],
                    entry["better"], entry["bound"])
        if row["verdict"] == "regression":
            failures.append(f"{name} regressed past its bound {entry['bound']}")
        rows.append((name, row))
    return rows, failures


def run_perfbench(label: str, tree: Path, command: Sequence[str], workload: str,
                  seed: int, seconds: float) -> Run:
    """The JSON result line of one ``--trace 0`` run in ``tree``."""
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(args, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{label}: {workload} seed {seed} printed no result line\n"
                         f"{proc.stderr[-2000:]}")
    print(f"  {label:<6} {workload} seed {seed}: {time.perf_counter() - start:.1f} s",
          file=sys.stderr, flush=True)
    return result


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=CLAIM_PAIRS,
                        help=f"runs per tree and workload; a claim needs {CLAIM_PAIRS}")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        parent_tree = Path(tmp) / "parent"
        subprocess.run(["git", "worktree", "add", "--quiet", "--detach", str(parent_tree),
                        args.parent], cwd=ROOT, check=True)
        trees = {"parent": parent_tree, "change": ROOT}
        try:
            for workload in (w["name"] for w in declared["workloads"]):
                runs: Dict[str, List[Run]] = {"parent": [], "change": []}
                for seed in range(1, args.pairs + 1):
                    for label in ("parent", "change") if seed % 2 else ("change", "parent"):
                        runs[label].append(run_perfbench(
                            label, trees[label], declared["command"], workload, seed,
                            declared["run_seconds"]))
                rows, problems = compare(declared["end_to_end"], runs["parent"], runs["change"])
                print(f"{workload}: {args.parent} (parent) vs this tree, {args.pairs} pairs")
                print(f"  {'metric':<20}{'parent median [Q1–Q3]':>36}"
                      f"{'change median [Q1–Q3]':>36}  wins  verdict     claim")
                for name, row in rows:
                    parent, change = (f"{q[1]:.6g} [{q[0]:.6g}–{q[2]:.6g}]"
                                      for q in (row["parent"], row["change"]))
                    print(f"  {name:<20}{parent:>36}{change:>36}"
                          f"  {row['wins']:>2}/{args.pairs:<2} {row['verdict']:<11} "
                          f"{'holds' if row['claim'] else 'no'}")
                failures += [f"{workload}: {problem}" for problem in problems]
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(parent_tree)],
                           cwd=ROOT, capture_output=True)
    for failure in failures:
        print(f"AB FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
