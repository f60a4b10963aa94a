"""Campaign reports: fold trace records into a self-contained document.

:class:`CampaignReport` is the aggregation endpoint of the analysis
subsystem: it takes the records of one campaign — from memory or from saved
JSONL trace files — and derives the paper's figure tables (Figures 2, 5, 7
and 8) plus a per-mission summary and a partial-failure section.  The markdown
emitter produces a report that stands alone: everything in it came from the
trace records, so re-rendering a report never requires re-flying a mission.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, List, Sequence, Union

from repro.analysis.figures import (
    FigureTable,
    archetype_comparison,
    fault_robustness,
    fig2_latency_deadline,
    fig5_governor_response,
    fig7_overall,
    fig8_sensitivity,
    fleet_scaling,
    ok_missions,
)
from repro.analysis.io import list_trace_files, read_traces
from repro.analysis.trace import FIG8_KNOBS, DecisionRecord, MissionRecord

PathLike = Union[str, Path]


class CampaignReport:
    """All of one campaign's records, with the paper's figures derived on demand.

    Attributes:
        decisions: every decision record of the campaign, in spec order.
        missions: one mission record per spec (including error records for
            specs that failed).
        heartbeats: optional campaign-telemetry heartbeat records
            (:class:`~repro.obs.heartbeat.HeartbeatRecord`); when present
            the report grows a runtime/instrumentation table.
    """

    def __init__(
        self,
        decisions: Sequence[DecisionRecord] = (),
        missions: Sequence[MissionRecord] = (),
        heartbeats: Sequence[Any] = (),
    ) -> None:
        self.decisions: List[DecisionRecord] = list(decisions)
        self.missions: List[MissionRecord] = list(missions)
        self.heartbeats: List[Any] = list(heartbeats)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_paths(
        cls, paths: Sequence[PathLike], heartbeats: Sequence[Any] = ()
    ) -> "CampaignReport":
        """Build a report from saved JSONL trace files, in the given order."""
        decisions, missions = read_traces(paths)
        return cls(decisions, missions, heartbeats=heartbeats)

    @classmethod
    def from_trace_dir(cls, directory: PathLike) -> "CampaignReport":
        """Build a report from every ``*.jsonl`` file under a directory.

        When the campaign was run with telemetry into the conventional
        location (``<trace_dir>/telemetry/heartbeats.jsonl``), the
        heartbeats are picked up automatically and the report includes the
        runtime table.
        """
        paths = list_trace_files(directory)
        if not paths:
            raise FileNotFoundError(f"no trace files (*.jsonl) under {directory}")
        from repro.obs.heartbeat import HEARTBEAT_FILE, read_heartbeats

        heartbeats = read_heartbeats(
            Path(directory) / "telemetry" / HEARTBEAT_FILE
        )
        return cls.from_paths(paths, heartbeats=heartbeats)

    # ------------------------------------------------------------------
    # Derived tables
    # ------------------------------------------------------------------
    def _completed_decisions(self) -> List[DecisionRecord]:
        """Decision records excluding those of specs that failed to run.

        A crashed spec may have streamed partial decision records before its
        error record; the figure tables aggregate completed missions only,
        matching what the partial-failures section promises.
        """
        failed = {m.spec_name for m in self.missions if not m.ok}
        if not failed:
            return self.decisions
        return [d for d in self.decisions if d.spec_name not in failed]

    def fig2(self) -> FigureTable:
        """Figure 2 table (latency vs. deadline) from the decision records."""
        return fig2_latency_deadline(self._completed_decisions())

    def fig5(self) -> FigureTable:
        """Figure 5 table (governor response) from the decision records."""
        return fig5_governor_response(self._completed_decisions())

    def fig7(self) -> FigureTable:
        """Figure 7 table (mission-level comparison) from the mission records."""
        return fig7_overall(self.missions)

    def fig8(self, knobs: Sequence[str] = FIG8_KNOBS) -> List[FigureTable]:
        """One Figure 8 table per environment knob (always emitted, even when
        a knob was not swept — the ratio column then reads ``n/a``)."""
        return [fig8_sensitivity(self.missions, knob) for knob in knobs]

    def archetypes(self) -> FigureTable:
        """Per-archetype governor-vs-baseline table from the mission records."""
        return archetype_comparison(self.missions)

    def fleet(self) -> FigureTable:
        """Fleet-scaling table (governor vs. baseline per fleet size)."""
        return fleet_scaling(self.missions)

    def fault_robustness(self) -> FigureTable:
        """Fault-robustness table (governor vs. baseline per injected fault)."""
        return fault_robustness(self.missions)

    def tables(self) -> List[FigureTable]:
        """Every figure table of the report: paper order, then the
        per-archetype comparison, the fleet-scaling table and the
        fault-robustness table."""
        return [self.fig2(), self.fig5(), self.fig7()] + self.fig8() + [
            self.archetypes(),
            self.fleet(),
            self.fault_robustness(),
        ]

    def failures(self) -> List[MissionRecord]:
        """Mission records of specs that errored instead of flying."""
        return [m for m in self.missions if not m.ok]

    def mission_table(self) -> FigureTable:
        """Per-mission summary: one row per spec, errors flagged."""
        rows: List[List[Any]] = []
        for mission in self.missions:
            if mission.ok:
                rows.append(
                    [
                        mission.spec_name,
                        mission.design,
                        mission.seed,
                        "yes" if mission.success else "no",
                        round(mission.metrics.get("mission_time_s", 0.0), 1),
                        round(mission.metrics.get("mean_velocity_mps", 0.0), 2),
                        int(mission.metrics.get("decision_count", 0)),
                        "",
                    ]
                )
            else:
                error = mission.error or {}
                rows.append(
                    [
                        mission.spec_name,
                        mission.design,
                        mission.seed,
                        "ERROR",
                        "-",
                        "-",
                        "-",
                        f"{error.get('type', '?')}: {error.get('message', '')}",
                    ]
                )
        return FigureTable(
            key="missions",
            title="Missions",
            columns=[
                "spec",
                "design",
                "seed",
                "success",
                "time_s",
                "velocity_mps",
                "decisions",
                "error",
            ],
            rows=rows,
        )

    def runtime_table(self) -> FigureTable:
        """Runtime/instrumentation table from the campaign heartbeats.

        One row per spec: final status, wall-clock time, decision cascades
        completed, decisions per wall-clock second and the worker's peak
        RSS — the observability layer's view of the campaign, empty when it
        ran without telemetry.
        """
        from repro.obs.heartbeat import runtime_summary

        summary = runtime_summary(self.heartbeats)
        rows: List[List[Any]] = []
        for spec_name in sorted(summary):
            entry = summary[spec_name]
            rows.append(
                [
                    spec_name,
                    entry["status"],
                    round(entry["wall_time_s"], 3),
                    entry["decisions"],
                    round(entry["decisions_per_sec"], 1),
                    round(entry["peak_rss_mb"], 1),
                ]
            )
        return FigureTable(
            key="runtime",
            title="Runtime (campaign telemetry)",
            columns=[
                "spec",
                "status",
                "wall_time_s",
                "decisions",
                "decisions_per_sec",
                "peak_rss_mb",
            ],
            rows=rows,
        )

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def to_markdown(self, title: str = "Campaign report") -> str:
        """The full self-contained markdown report."""
        flown = ok_missions(self.missions)
        failures = self.failures()
        lines: List[str] = [f"# {title}", ""]
        lines.append(
            f"{len(self.missions)} spec(s): {len(flown)} flew "
            f"({sum(1 for m in flown if m.success)} reached the goal), "
            f"{len(failures)} failed to run. "
            f"{len(self.decisions)} decision record(s) aggregated."
        )
        lines.append("")
        lines.append("## Missions")
        lines.append("")
        lines.append(self.mission_table().to_markdown())
        lines.append("")
        runtime = self.runtime_table()
        if runtime.rows:
            lines.append(f"## {runtime.title}")
            lines.append("")
            lines.append(runtime.to_markdown())
            lines.append("")
        if failures:
            lines.append("## Partial failures")
            lines.append("")
            lines.append(
                "These specs raised instead of flying; the rest of the report "
                "aggregates the missions that completed."
            )
            lines.append("")
            for mission in failures:
                error = mission.error or {}
                lines.append(f"### `{mission.spec_name}`")
                lines.append("")
                lines.append(f"- error: `{error.get('type', '?')}: {error.get('message', '')}`")
                spec_json = error.get("spec_json")
                if spec_json:
                    lines.append("- spec:")
                    lines.append("")
                    lines.append("```json")
                    lines.append(spec_json)
                    lines.append("```")
                lines.append("")
        for table in self.tables():
            lines.append(f"## {table.title}")
            lines.append("")
            if table.rows:
                lines.append(table.to_markdown())
            else:
                lines.append(
                    "_No records to aggregate (decision traces are required "
                    "for Figures 2 and 5)._"
                )
            lines.append("")
        return "\n".join(lines)

    def write_markdown(
        self, path: PathLike, title: str = "Campaign report"
    ) -> Path:
        """Write :meth:`to_markdown` to ``path``, creating parent directories."""
        destination = Path(path)
        destination.parent.mkdir(parents=True, exist_ok=True)
        destination.write_text(self.to_markdown(title), encoding="utf-8")
        return destination

    def write_csvs(self, directory: PathLike) -> List[Path]:
        """Write one ``<key>.csv`` per figure table; returns the paths."""
        base = Path(directory)
        base.mkdir(parents=True, exist_ok=True)
        written: List[Path] = []
        tables = [self.mission_table()] + self.tables()
        runtime = self.runtime_table()
        if runtime.rows:
            tables.insert(1, runtime)
        for table in tables:
            path = base / f"{table.key}.csv"
            path.write_text(table.to_csv(), encoding="utf-8")
            written.append(path)
        return written
