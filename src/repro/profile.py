"""``python -m repro.profile`` — run one spec fully instrumented.

The profile CLI is the command-line face of :mod:`repro.obs`: it takes the
same grid JSON files as ``python -m repro.report``, picks one spec, flies it
with an :class:`~repro.obs.tap.ObsTap` attached and emits the runtime's
observability artefacts:

* ``<spec>_trace.json`` — Chrome trace-event spans (open in Perfetto or
  ``chrome://tracing``): mission → decision → node, one lane per drone;
* ``<spec>_metrics.json`` — the metrics registry snapshot (JSON);
* ``<spec>_metrics.prom`` — the same registry in Prometheus text format;
* a top-N hotspot table on stdout (wall-clock totals per span name).

Usage::

    # Profile the first spec of a grid
    python -m repro.profile examples/grid_small.json

    # Pick a spec by name, choose the output directory and table size
    python -m repro.profile examples/grid_small.json \
        --spec small_roborun_paper_corridor_nofault_den0.3_spr30_goal60 \
        --out-dir reports/profile --top 15
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Any, List, Optional, Sequence

from repro.analysis.figures import FigureTable
from repro.obs.log import configure_logging, get_logger
from repro.obs.tap import ObsTap
from repro.report import load_grid_file

log = get_logger("profile")


def hotspot_table(tap: ObsTap, top: int = 10) -> FigureTable:
    """The top-``top`` span names by total wall-clock time.

    Decision spans envelop the capture and node spans, so both levels
    appear — the table answers "where does the wall clock go" at whatever
    granularity dominates.  A last ``(unattributed)`` row holds the decision
    time that no capture or node span covers.
    """
    durations = tap.tracer.span_durations()
    ranked = sorted(
        durations.items(), key=lambda item: item[1]["total_us"], reverse=True
    )[:top]
    rows: List[List[Any]] = []
    for name, entry in ranked:
        count = int(entry["count"])
        total_ms = entry["total_us"] / 1000.0
        rows.append(
            [
                name,
                count,
                round(total_ms, 3),
                round(total_ms / count, 4) if count else 0.0,
                round(entry["max_us"] / 1000.0, 4),
            ]
        )
    decisions = durations.get("decision")
    if decisions:
        unattributed_ms = tap.tracer.self_time_us("decision") / 1000.0
        count = int(decisions["count"])
        rows.append(
            [
                "(unattributed)",
                count,
                round(unattributed_ms, 3),
                round(unattributed_ms / count, 4),
                "",
            ]
        )
    return FigureTable(
        key="hotspots",
        title=f"Top {top} spans by wall-clock time",
        columns=["span", "count", "total_ms", "mean_ms", "max_ms"],
        rows=rows,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.profile",
        description=(
            "Fly one scenario spec with the observability tap attached and "
            "emit a Chrome trace, a metrics snapshot, a Prometheus rendering "
            "and a hotspot table."
        ),
    )
    parser.add_argument(
        "grid",
        type=Path,
        help="JSON grid file (same shapes as python -m repro.report --grid)",
    )
    parser.add_argument(
        "--spec",
        default=None,
        help="name of the spec to profile (default: the grid's first spec)",
    )
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=None,
        help="artefact directory (default: reports/profile/<grid name>)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        help="rows in the hotspot table (default: 10)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the grid's spec names and exit without flying anything",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    configure_logging()
    args = build_parser().parse_args(argv)

    specs = load_grid_file(args.grid)
    if not specs:
        log.error("grid %s holds no specs", args.grid)
        return 1
    if args.list:
        for spec in specs:
            log.info("%s", spec.name)
        return 0

    if args.spec is None:
        spec = specs[0]
    else:
        by_name = {s.name: s for s in specs}
        spec = by_name.get(args.spec)
        if spec is None:
            log.error(
                "no spec named %r in %s; choices:\n  %s",
                args.spec,
                args.grid,
                "\n  ".join(sorted(by_name)),
            )
            return 1

    out_dir = args.out_dir or Path("reports") / "profile" / args.grid.stem
    log.info("Profiling %s (design=%s) ...", spec.name, spec.design)

    tap = ObsTap(process_name=spec.name)
    result = spec.run(taps=(tap,))
    tap.finish()

    paths = tap.export(out_dir, stem=spec.name)
    log.info("Chrome trace:      %s", paths["trace"])
    log.info("Metrics snapshot:  %s", paths["metrics"])
    log.info("Prometheus text:   %s", paths["prometheus"])

    metrics = result.metrics.as_dict()
    log.info(
        "Mission: success=%s time=%.1fs decisions=%d",
        bool(metrics.get("success")),
        metrics.get("mission_time_s", 0.0),
        int(metrics.get("decision_count", 0)),
    )
    log.info("")
    log.info("%s", hotspot_table(tap, top=args.top).to_markdown())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
