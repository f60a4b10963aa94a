"""``python -m repro.report`` — run a scenario grid and write a markdown report.

The report CLI is the command-line face of :mod:`repro.analysis`: it flies a
campaign described by a JSON grid file (or loads previously saved traces),
streams every mission's structured trace to JSONL, folds the traces into the
paper's figure tables (Figures 2, 5, 7 and 8) and writes a self-contained
markdown report under ``reports/``.

Usage::

    # Fly a grid and report on it (traces land next to the report)
    python -m repro.report --grid examples/grid_small.json

    # Re-report saved traces without flying anything
    python -m repro.report --traces reports/traces/grid_small

    # More workers, CSV sidecars, custom destination
    python -m repro.report --grid examples/grid_small.json \
        --workers 4 --csv-dir reports/csv --out reports/small.md

    # One worker: every spec inline in this process (serial)
    python -m repro.report --grid examples/grid_small.json --workers 1

    # Per-spec timeout and retry budget, resumable after an interruption
    python -m repro.report --grid big_grid.json \
        --spec-timeout 300 --max-attempts 3 --resume

Grid files take one of three JSON shapes:

* ``{"grid": {...}}`` — keyword arguments for
  :func:`repro.simulation.scenario.scenario_grid` (``base_environment`` /
  ``mission`` given as plain dictionaries; ``faults`` as either one
  fault-set dictionary or a ``{config_name: fault set}`` mapping that
  becomes a swept fault axis);
* ``{"specs": [...]}`` — a list of full scenario-spec dictionaries;
* ``[...]`` — the same list, bare.

A malformed file (a missing ``name`` or ``name_prefix``, an unknown key, a
scalar where an axis list belongs) fails with a ``ValueError`` naming the
field before any mission flies.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.report import CampaignReport
from repro.obs.log import configure_logging, get_logger
from repro.simulation.campaign import CampaignRunner
from repro.simulation.scenario import (
    ScenarioSpec,
    checked_config_fields,
    scenario_grid,
)

log = get_logger("report")


def load_grid_file(path: Path) -> List[ScenarioSpec]:
    """Parse a grid JSON file into the campaign's scenario specs.

    Raises:
        ValueError: when the file matches none of the supported shapes.
    """
    data = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(data, list):
        return [ScenarioSpec.from_dict(item) for item in data]
    if not isinstance(data, dict):
        raise ValueError(f"grid file {path} must hold a JSON object or list")
    if "specs" in data:
        if not isinstance(data["specs"], list):
            raise ValueError(
                f"grid file {path}: 'specs' must be a list of scenario specs, "
                f"got {data['specs']!r}"
            )
        return [ScenarioSpec.from_dict(item) for item in data["specs"]]
    if "grid" in data:
        return _grid_from_kwargs(data["grid"])
    raise ValueError(
        f"grid file {path} needs a 'grid' or 'specs' key (or a bare spec list)"
    )


def _grid_from_kwargs(grid: Any) -> List[ScenarioSpec]:
    """Build a :func:`scenario_grid` call from the grid file's plain data.

    Raises:
        ValueError: naming the field, when ``grid`` is not a dictionary,
            lacks ``name_prefix``, carries a key :func:`scenario_grid` does not
            take, gives an axis as a scalar, or holds an unknown
            ``base_environment``/``mission`` key.
    """
    from repro.environment.generator import EnvironmentConfig
    from repro.simulation.mission import MissionConfig

    if not isinstance(grid, dict):
        raise ValueError(
            f"'grid' must be a JSON object of scenario_grid arguments, got {grid!r}"
        )
    known = set(inspect.signature(scenario_grid).parameters)
    unknown = sorted(set(grid) - known)
    if unknown:
        raise ValueError(
            f"unknown 'grid' field(s) {unknown}; expected some of {sorted(known)}"
        )
    if "name_prefix" not in grid:
        raise ValueError("'grid' is missing its 'name_prefix' field")
    kwargs = dict(grid)
    if "base_environment" in kwargs:
        kwargs["base_environment"] = EnvironmentConfig(
            **checked_config_fields(
                EnvironmentConfig, kwargs["base_environment"], "base_environment"
            )
        )
    if "mission" in kwargs:
        kwargs["mission"] = MissionConfig(
            **checked_config_fields(MissionConfig, kwargs["mission"], "mission")
        )
    # "faults" passes through untouched: scenario_grid itself coerces both
    # shapes — one fault-set dict applied everywhere, or a {name: fault set}
    # mapping that becomes a swept axis — and rejects typo'd fault names.
    for axis in ("designs", "densities", "spreads", "goal_distances", "worlds", "n_drones"):
        if axis in kwargs:
            if not isinstance(kwargs[axis], (list, tuple)):
                raise ValueError(
                    f"grid field {axis!r} must be a list, got {kwargs[axis]!r}"
                )
            kwargs[axis] = tuple(kwargs[axis])
    return scenario_grid(**kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.report",
        description=(
            "Fly a scenario grid (or load saved traces) and write a markdown "
            "campaign report with the paper's figure tables."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--grid",
        type=Path,
        help="JSON grid file describing the campaign's scenario specs",
    )
    source.add_argument(
        "--traces",
        type=Path,
        help="directory of saved *.jsonl traces to report on (no missions flown)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="markdown report destination (default: reports/<grid name>.md)",
    )
    parser.add_argument(
        "--trace-dir",
        type=Path,
        default=None,
        help="where grid runs stream JSONL traces (default: reports/traces/<grid name>)",
    )
    parser.add_argument(
        "--csv-dir",
        type=Path,
        default=None,
        help="also write one CSV per figure table into this directory",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "campaign worker processes, persistent and work-stealing "
            "(default: one per core; 1 = serial, inline)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "skip specs whose trace files already exist in the trace "
            "directory and parse cleanly to a completed mission (grid runs "
            "only); everything else is re-flown"
        ),
    )
    parser.add_argument(
        "--spec-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "parallel campaigns: per-spec wall-clock budget; an over-budget "
            "worker is killed and the spec retried (default: no timeout)"
        ),
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help=(
            "parallel campaigns: dispatch attempts per spec before it is "
            "excluded as poisoned and reported as an error (default: 3)"
        ),
    )
    parser.add_argument(
        "--title",
        default=None,
        help="report title (default derived from the grid / trace directory name)",
    )
    parser.add_argument(
        "--telemetry-dir",
        type=Path,
        default=None,
        help=(
            "where grid runs write heartbeat telemetry "
            "(default: <trace dir>/telemetry)"
        ),
    )
    parser.add_argument(
        "--no-telemetry",
        action="store_true",
        help="disable campaign telemetry (no heartbeats, no runtime table)",
    )
    return parser


class _ProgressLine:
    """Renders campaign heartbeats as one live progress line on stderr.

    The line is rewritten in place (carriage return) when stderr is a
    terminal and suppressed entirely otherwise, so piped and CI output stays
    clean — progress is a human affordance, not part of the report.
    """

    def __init__(self, total_specs: int) -> None:
        self.total = total_specs
        self.done = 0
        self.failed = 0
        self._tty = bool(getattr(sys.stderr, "isatty", lambda: False)())
        self._dirty = False

    def __call__(self, record: Dict[str, Any]) -> None:
        status = record.get("status")
        if status == "done":
            self.done += 1
        elif status == "error":
            self.done += 1
            self.failed += 1
        if not self._tty:
            return
        spec = record.get("spec", "?")
        epoch = record.get("epoch", -1)
        line = (
            f"\r[{self.done}/{self.total}] {spec} "
            f"epoch={epoch} rss={record.get('rss_mb', 0.0):.0f}MB"
        )
        if self.failed:
            line += f" failed={self.failed}"
        sys.stderr.write(line[:120].ljust(80))
        sys.stderr.flush()
        self._dirty = True

    def close(self) -> None:
        if self._dirty:
            sys.stderr.write("\n")
            sys.stderr.flush()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.resume and args.grid is None:
        parser.error("--resume only applies to --grid runs")

    if args.grid is not None:
        stem = args.grid.stem
        out = args.out or Path("reports") / f"{stem}.md"
        trace_dir = args.trace_dir or Path("reports") / "traces" / stem
        try:
            specs = load_grid_file(args.grid)
        except (OSError, ValueError) as exc:
            parser.error(f"{args.grid}: {exc}")
        log.info("Flying %d scenario(s) from %s ...", len(specs), args.grid)
        telemetry_dir: Optional[Path] = None
        progress: Optional[_ProgressLine] = None
        if not args.no_telemetry:
            telemetry_dir = args.telemetry_dir or trace_dir / "telemetry"
            progress = _ProgressLine(len(specs))
        runner = CampaignRunner(
            max_workers=args.workers,
            spec_timeout_s=args.spec_timeout,
            max_attempts=args.max_attempts,
        )
        try:
            campaign = runner.run(
                specs,
                trace_dir=trace_dir,
                telemetry_dir=telemetry_dir,
                progress=progress,
                resume=args.resume,
            )
        finally:
            if progress is not None:
                progress.close()
        failures = campaign.failures()
        flown = len(campaign) - len(failures)
        log.info(
            "  %d flew, %d failed; traces in %s/", flown, len(failures), trace_dir
        )
        # The report is rebuilt from the trace files alone: what the report
        # shows is exactly what a later --traces run would show.
        report = CampaignReport.from_trace_dir(trace_dir)
    else:
        stem = args.traces.name
        out = args.out or Path("reports") / f"{stem}.md"
        try:
            report = CampaignReport.from_trace_dir(args.traces)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        log.info(
            "Loaded %d mission(s) / %d decision record(s) from %s/",
            len(report.missions),
            len(report.decisions),
            args.traces,
        )

    title = args.title or f"RoboRun campaign report — {stem}"
    destination = report.write_markdown(out, title=title)
    log.info("Report written to %s", destination)
    if args.csv_dir is not None:
        written = report.write_csvs(args.csv_dir)
        log.info("%d CSV table(s) written to %s/", len(written), args.csv_dir)
    failed = report.failures()
    if failed and len(failed) == len(report.missions):
        # Every spec errored: the report holds nothing but the failure
        # section, so the run itself failed — exit nonzero and say so.
        log.error(
            "ERROR: all %d spec(s) failed to run; "
            "see the report's partial-failures section",
            len(failed),
        )
        return 1
    if failed:
        log.warning("WARNING: %d spec(s) failed; see the report", len(failed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
