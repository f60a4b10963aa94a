"""Figure aggregators: fold trace records into the paper's tables.

Each ``fig*`` function reproduces one of the paper's headline figures as a
plain :class:`FigureTable` — no plotting dependency, just columns and rows
with CSV and markdown emitters — so the same aggregation backs the
benchmark suite, the campaign report CLI and any notebook that reads a
trace file.

Two families live here:

* **Trace aggregators** (:func:`fig2_latency_deadline`,
  :func:`fig5_governor_response`, :func:`fig7_overall`,
  :func:`fig8_sensitivity`) fold streams of
  :class:`~repro.analysis.trace.DecisionRecord` /
  :class:`~repro.analysis.trace.MissionRecord` — everything they need is in
  the records, so saved traces reproduce the figures without re-flying
  anything.  The governor-vs-baseline breakdowns by world archetype, fleet
  size and fault (:func:`archetype_comparison`, :func:`fleet_scaling`,
  :func:`fault_robustness`) fold mission records too, all through one
  grouped fold.
* **Model tables** (:func:`fig2a_model_table`, :func:`fig2b_model_table`,
  :func:`fig5_model_table`) are the analytical sweeps of the latency model
  and the time budgeter that Figures 2 and 5 plot directly; the
  ``benchmarks/test_fig*`` harness asserts their shape.
"""

from __future__ import annotations

import csv
import io as _io
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.trace import DecisionRecord, MissionRecord

# The two designs of the paper's A/B comparison, in table order.
BASELINE_DESIGN = "spatial_oblivious"
ROBORUN_DESIGN = "roborun"

# Default analytical sweep points (the paper's Figure 2 axes).
FIG2_PRECISIONS_M: Sequence[float] = (0.3, 0.6, 1.2, 2.4, 4.8, 9.6)
FIG2_VOLUMES_M3: Sequence[float] = (10_000.0, 20_000.0, 40_000.0, 60_000.0)
FIG2_SPEEDS_MPS: Sequence[float] = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
FIG2_VISIBILITIES_M: Sequence[float] = (5.0, 10.0, 20.0, 40.0)


@dataclass
class FigureTable:
    """One figure rendered as a plain table.

    Attributes:
        key: short identifier ("fig2", "fig5", "fig7", "fig8_density", …)
            used for CSV file names and report anchors.
        title: human-readable caption.
        columns: column headers, left to right.
        rows: data rows; cells are strings or numbers.
        meta: aggregator extras (e.g. the fig8 flight-time ratios) that do
            not belong in the rendered table.
    """

    key: str
    title: str
    columns: List[str]
    rows: List[List[Any]]
    meta: Dict[str, Any] = field(default_factory=dict)

    def as_rows(self) -> List[List[Any]]:
        """Header row plus data rows (the benchmark ``print_table`` shape)."""
        return [list(self.columns)] + [list(row) for row in self.rows]

    def to_markdown(self) -> str:
        """GitHub-flavoured markdown table (without the title)."""
        lines = [
            "| " + " | ".join(str(c) for c in self.columns) + " |",
            "|" + "|".join(" --- " for _ in self.columns) + "|",
        ]
        for row in self.rows:
            lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
        return "\n".join(lines)

    def to_csv(self) -> str:
        """RFC-4180 CSV text, header first."""
        buffer = _io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return buffer.getvalue()


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def design_order(designs: Sequence[str]) -> List[str]:
    """Stable table order: baseline first, RoboRun second, others sorted."""
    present = list(dict.fromkeys(designs))
    ordered = [d for d in (BASELINE_DESIGN, ROBORUN_DESIGN) if d in present]
    ordered.extend(sorted(d for d in present if d not in ordered))
    return ordered


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _bucket(value: float, width: float) -> float:
    # A finite value past max_float * width divides to ±inf, a bin of its own.
    index = value // width
    return int(index) if math.isfinite(index) else index


def _bucket_label(index: float, width: float) -> str:
    return f"[{index * width:g}, {(index + 1) * width:g})"


def ok_missions(missions: Sequence[MissionRecord]) -> List[MissionRecord]:
    """The missions that actually ran (error records filtered out)."""
    return [m for m in missions if m.ok]


# ----------------------------------------------------------------------
# Figure 2 — latency vs. deadline
# ----------------------------------------------------------------------
def fig2_latency_deadline(
    decisions: Sequence[DecisionRecord], speed_bin_mps: float = 0.5
) -> FigureTable:
    """Figure 2 from traces: decision latency and deadline binned by speed.

    The analytical Figure 2 plots the latency model and the Eq. 1 deadline
    against their inputs; the trace form shows the same two quantities as
    the missions actually experienced them — per design, binned by flight
    speed (the deadline's dominant input), with the fraction of decisions
    that met their deadline.
    """
    groups: Dict[Tuple[str, int], List[DecisionRecord]] = {}
    for record in decisions:
        groups.setdefault((record.design, _bucket(record.speed, speed_bin_mps)), []).append(
            record
        )
    rows: List[List[Any]] = []
    for design in design_order([d for d, _ in groups]):
        buckets = sorted(b for d, b in groups if d == design)
        for bucket in buckets:
            members = groups[(design, bucket)]
            rows.append(
                [
                    design,
                    _bucket_label(bucket, speed_bin_mps),
                    len(members),
                    round(_mean([m.time_budget for m in members]), 3),
                    round(_mean([m.end_to_end_latency for m in members]), 3),
                    round(
                        sum(1 for m in members if m.deadline_met) / len(members), 3
                    ),
                ]
            )
    return FigureTable(
        key="fig2",
        title="Figure 2: decision latency vs. deadline, binned by flight speed",
        columns=[
            "design",
            "speed_bin_mps",
            "decisions",
            "mean_deadline_s",
            "mean_latency_s",
            "deadline_met_rate",
        ],
        rows=rows,
    )


# ----------------------------------------------------------------------
# Figure 5 — governor response to congestion
# ----------------------------------------------------------------------
def fig5_governor_response(
    decisions: Sequence[DecisionRecord], visibility_bin_m: float = 5.0
) -> FigureTable:
    """Figure 5 from traces: latency and deadline per design vs. congestion.

    Visibility is the congestion proxy (tight clutter → short look-ahead):
    the static design's latency and deadline stay flat across the bins while
    the spatial-aware design's track the available space — the paper's
    static-vs-dynamic comparison, recovered entirely from trace records.
    """
    designs = design_order([r.design for r in decisions])
    groups: Dict[Tuple[str, int], List[DecisionRecord]] = {}
    for record in decisions:
        groups.setdefault(
            (record.design, _bucket(record.visibility, visibility_bin_m)), []
        ).append(record)
    buckets = sorted({b for _, b in groups})
    columns = ["visibility_bin_m", "decisions"]
    for design in designs:
        columns.extend([f"{design}_latency_s", f"{design}_deadline_s"])
    rows: List[List[Any]] = []
    for bucket in buckets:
        row: List[Any] = [
            _bucket_label(bucket, visibility_bin_m),
            sum(len(groups.get((d, bucket), [])) for d in designs),
        ]
        for design in designs:
            members = groups.get((design, bucket), [])
            if members:
                row.append(round(_mean([m.end_to_end_latency for m in members]), 3))
                row.append(round(_mean([m.time_budget for m in members]), 3))
            else:
                row.extend(["-", "-"])
        rows.append(row)
    return FigureTable(
        key="fig5",
        title="Figure 5: governor response — latency and deadline vs. visibility",
        columns=columns,
        rows=rows,
    )


# ----------------------------------------------------------------------
# Figure 7 — overall mission-level comparison
# ----------------------------------------------------------------------
#: (row label, metrics key, decimals) for the four Figure 7 quantities.
_FIG7_METRICS: Sequence[Tuple[str, str, int]] = (
    ("flight velocity (m/s)", "mean_velocity_mps", 3),
    ("mission time (s)", "mission_time_s", 1),
    ("mission energy (kJ)", "energy_kj", 1),
    ("CPU utilization", "mean_cpu_utilization", 3),
)


def fig7_overall(missions: Sequence[MissionRecord]) -> FigureTable:
    """Figure 7 from traces: per-design mission metrics with improvements.

    Means are taken over every completed mission of each design; the
    improvement column reproduces the paper's headline ratios (velocity
    ratio, time/energy speedups, relative CPU-utilisation reduction) and is
    present only when both designs of the A/B pair flew.
    """
    usable = ok_missions(missions)
    designs = design_order([m.design for m in usable])
    by_design = {
        design: [m for m in usable if m.design == design] for design in designs
    }
    means: Dict[str, Dict[str, float]] = {
        design: {
            key: _mean([m.metrics[key] for m in group])
            for _, key, _ in _FIG7_METRICS
        }
        for design, group in by_design.items()
    }
    have_pair = BASELINE_DESIGN in means and ROBORUN_DESIGN in means
    columns = ["metric"] + designs + (["improvement"] if have_pair else [])
    rows: List[List[Any]] = []
    rows.append(
        ["missions"]
        + [len(by_design[d]) for d in designs]
        + ([""] if have_pair else [])
    )
    for label, key, decimals in _FIG7_METRICS:
        row: List[Any] = [label]
        for design in designs:
            row.append(round(means[design][key], decimals))
        if have_pair:
            base = means[BASELINE_DESIGN][key]
            robo = means[ROBORUN_DESIGN][key]
            if key == "mean_velocity_mps":
                improvement = round(robo / max(base, 1e-9), 2)
            elif key == "mean_cpu_utilization":
                improvement = round((base - robo) / max(base, 1e-9), 3)
            else:  # time and energy: how many times cheaper RoboRun is
                improvement = round(base / robo, 2) if robo > 0 else float("inf")
            row.append(improvement)
        rows.append(row)
    return FigureTable(
        key="fig7",
        title="Figure 7: mission-level metrics per design",
        columns=columns,
        rows=rows,
        meta={"means": means},
    )


# ----------------------------------------------------------------------
# Figure 8 — sensitivity to the environment knobs
# ----------------------------------------------------------------------
def fig8_sensitivity(
    missions: Sequence[MissionRecord], knob: str
) -> FigureTable:
    """Figure 8 from traces: flight-time sensitivity to one environment knob.

    Groups completed missions by design and knob value (read from each
    record's environment), reports the mean mission time at every value and
    the flight-time ratio between the largest and smallest value — the
    quantity Figures 8b–8d plot.  ``meta["ratios"]`` maps each design to its
    ratio (``None`` when fewer than two knob values flew).
    """
    usable = [m for m in ok_missions(missions) if m.knob(knob) is not None]
    designs = design_order([m.design for m in usable])
    values = sorted({m.knob(knob) for m in usable})
    columns = ["design"] + [f"{knob}={v:g}" for v in values] + ["flight_time_ratio"]
    rows: List[List[Any]] = []
    ratios: Dict[str, Optional[float]] = {}
    for design in designs:
        row: List[Any] = [design]
        times: List[Optional[float]] = []
        for value in values:
            members = [
                m for m in usable if m.design == design and m.knob(knob) == value
            ]
            if members:
                mean_time = _mean([m.metrics["mission_time_s"] for m in members])
                times.append(mean_time)
                row.append(round(mean_time, 1))
            else:
                times.append(None)
                row.append("-")
        flown = [t for t in times if t is not None]
        if len(flown) >= 2 and flown[0] > 0:
            ratio: Optional[float] = flown[-1] / flown[0]
            row.append(round(ratio, 2))
        else:
            ratio = None
            row.append("n/a")
        ratios[design] = ratio
        rows.append(row)
    return FigureTable(
        key=f"fig8_{knob}",
        title=f"Figure 8: flight-time sensitivity to {knob.replace('_', ' ')}",
        columns=columns,
        rows=rows,
        meta={"ratios": ratios, "knob": knob, "values": values},
    )


# ----------------------------------------------------------------------
# Grouped comparisons — governor vs. baseline per archetype, fleet size, fault
# ----------------------------------------------------------------------
#: A per-design column of a grouped comparison: (name suffix, per-mission
#: value, decimals); the cell is the value's mean over the group's missions.
_GroupColumn = Tuple[str, Callable[[MissionRecord], float], int]

_SUCCESS_RATE: _GroupColumn = ("success_rate", lambda m: 1.0 if m.success else 0.0, 3)
_COMPLETION_RATE: _GroupColumn = ("completion_rate", lambda m: m.completion_rate, 3)
_TIME: _GroupColumn = ("time_s", lambda m: m.metrics["mission_time_s"], 1)
_VELOCITY: _GroupColumn = ("velocity_mps", lambda m: m.metrics["mean_velocity_mps"], 3)
_ENERGY: _GroupColumn = ("energy_kj", lambda m: m.metrics["energy_kj"], 1)
_DEADLINE_MISS_RATE: _GroupColumn = (
    "deadline_miss_rate", lambda m: m.metrics.get("deadline_miss_rate", 0.0), 3
)


def _grouped_comparison(
    missions: Sequence[MissionRecord],
    key: str,
    title: str,
    group_column: str,
    group_of: Callable[[MissionRecord], Any],
    order: Callable[[Iterable[Any]], List[Any]],
    columns: Sequence[_GroupColumn],
    meta_key: str,
) -> FigureTable:
    """Governor vs. baseline, one row per group of completed missions.

    Groups the completed missions by ``group_of`` (rows in ``order``) and
    gives every design a mission count plus one mean per ``columns`` entry;
    a design that did not fly a group reads ``0`` missions and ``"-"``.  The
    last column, ``time_speedup``, is the baseline's mean mission time over
    RoboRun's — how many times faster the governor finished — and reads
    ``"n/a"`` unless both designs flew the group and RoboRun's mean is
    positive.  ``meta["speedups"]`` maps each group to that ratio (``None``
    for ``"n/a"``) and ``meta[meta_key]`` lists the groups in row order.
    """
    members_of: Dict[Tuple[Any, str], List[MissionRecord]] = {}
    for mission in ok_missions(missions):
        members_of.setdefault((group_of(mission), mission.design), []).append(mission)
    groups = order({group for group, _ in members_of})
    designs = design_order([design for _, design in members_of])
    suffixes = ["missions"] + [suffix for suffix, _, _ in columns]
    header = [group_column]
    for design in designs:
        header.extend(f"{design}_{suffix}" for suffix in suffixes)
    header.append("time_speedup")
    rows: List[List[Any]] = []
    speedups: Dict[Any, Optional[float]] = {}
    for group in groups:
        row: List[Any] = [group]
        times: Dict[str, float] = {}
        for design in designs:
            members = members_of.get((group, design))
            if not members:
                row.extend([0] + ["-"] * len(columns))
                continue
            times[design] = _mean([m.metrics["mission_time_s"] for m in members])
            row.append(len(members))
            row.extend(
                round(_mean([value(m) for m in members]), decimals)
                for _, value, decimals in columns
            )
        base = times.get(BASELINE_DESIGN)
        robo = times.get(ROBORUN_DESIGN)
        paired = base is not None and robo is not None and robo > 0
        speedup = base / robo if paired else None
        row.append("n/a" if speedup is None else round(speedup, 2))
        speedups[group] = speedup
        rows.append(row)
    return FigureTable(
        key=key,
        title=title,
        columns=header,
        rows=rows,
        meta={"speedups": speedups, meta_key: groups},
    )


def archetype_comparison(missions: Sequence[MissionRecord]) -> FigureTable:
    """Governor vs. baseline, one row per world archetype.

    Groups completed missions by the archetype recorded in their spec
    (pre-worlds records count as ``paper_corridor``) and reports, per
    design, the mission count, success rate, mean mission time and mean
    velocity, then the per-shape ``time_speedup`` (see
    :func:`_grouped_comparison`).  ``meta["archetypes"]`` lists the
    archetypes in row order.
    """
    return _grouped_comparison(
        missions,
        key="archetypes",
        title="Per-archetype comparison: governor vs. baseline across world archetypes",
        group_column="archetype",
        group_of=lambda m: m.archetype,
        order=sorted,
        columns=(_SUCCESS_RATE, _TIME, _VELOCITY),
        meta_key="archetypes",
    )


def fleet_scaling(missions: Sequence[MissionRecord]) -> FigureTable:
    """Governor vs. baseline as the fleet grows, one row per fleet size.

    Groups completed missions by the fleet size recorded on them (pre-fleet
    records count as single-drone) and reports, per design, the mission
    count, the mean per-drone completion rate, the mean makespan and the
    mean fleet energy, then ``time_speedup``.  Mission time for a fleet
    record is the makespan — the moment the *last* drone finished — and
    energy is the fleet total, so the columns stay comparable across sizes.
    ``meta["sizes"]`` lists the sizes in row order.
    """
    return _grouped_comparison(
        missions,
        key="fleet",
        title="Fleet scaling: governor vs. baseline as the fleet grows",
        group_column="n_drones",
        group_of=lambda m: m.n_drones,
        order=sorted,
        columns=(_COMPLETION_RATE, _TIME, _ENERGY),
        meta_key="sizes",
    )


def fault_robustness(missions: Sequence[MissionRecord]) -> FigureTable:
    """Governor vs. baseline under injected faults, one row per fault config.

    Groups completed missions by their :attr:`~repro.analysis.trace.
    MissionRecord.fault_label` — the sorted ``"+"``-joined registry names of
    the faults their spec injected, with the fault-free group labelled
    ``"none"`` and listed first as the reference row — and reports, per
    design, the mission count, the mean completion rate, the mean mission
    time, the mean energy and the mean deadline-miss rate, then
    ``time_speedup``: graceful degradation is the governor's speedup
    *holding up* as the rows leave ``"none"``.  ``meta["labels"]`` lists the
    labels in row order.
    """
    return _grouped_comparison(
        missions,
        key="faults",
        title="Fault robustness: governor vs. baseline under injected faults",
        group_column="fault",
        group_of=lambda m: m.fault_label,
        order=lambda labels: sorted(labels, key=lambda label: (label != "none", label)),
        columns=(_COMPLETION_RATE, _TIME, _ENERGY, _DEADLINE_MISS_RATE),
        meta_key="labels",
    )


# ----------------------------------------------------------------------
# Analytical model tables (Figures 2 and 5 as the paper draws them)
# ----------------------------------------------------------------------
def fig2a_model_table(
    precisions: Sequence[float] = FIG2_PRECISIONS_M,
    volumes: Sequence[float] = FIG2_VOLUMES_M3,
) -> FigureTable:
    """Figure 2a: the Eq. 4 perception latency vs. volume, per precision.

    Latency in seconds; volumes in cubic metres; precision (voxel edge) in
    metres.  Latency grows with volume and with precision refinement.
    """
    from repro.compute.latency_model import DEFAULT_STAGE_MODELS, STAGE_PERCEPTION

    model = DEFAULT_STAGE_MODELS[STAGE_PERCEPTION]
    rows = [
        [p] + [round(model.latency(p, v), 4) for v in volumes] for p in precisions
    ]
    return FigureTable(
        key="fig2a_model",
        title="Figure 2a: processing latency (s) vs volume, one curve per precision",
        columns=["precision_m"] + [f"v={int(v)}" for v in volumes],
        rows=rows,
    )


def fig2b_model_table(
    speeds: Sequence[float] = FIG2_SPEEDS_MPS,
    visibilities: Sequence[float] = FIG2_VISIBILITIES_M,
) -> FigureTable:
    """Figure 2b: the Eq. 1 decision deadline vs. speed, per visibility.

    Deadline in seconds; speed in m/s; visibility (usable look-ahead) in
    metres.  The deadline shrinks with speed and grows with visibility.
    """
    from repro.core.budget import TimeBudgeter

    budgeter = TimeBudgeter()
    rows = [
        [v] + [round(budgeter.local_budget(v, d), 2) for d in visibilities]
        for v in speeds
    ]
    return FigureTable(
        key="fig2b_model",
        title="Figure 2b: processing deadline (s) vs speed, one curve per visibility",
        columns=["speed_mps"] + [f"d={int(d)}m" for d in visibilities],
        rows=rows,
    )


def congestion_gradient(steps: int = 8) -> List[Any]:
    """Profiles sweeping from very congested (tight gaps) to open sky.

    A synthetic :class:`~repro.core.profilers.SpaceProfile` sequence used by
    the Figure 5 model sweep; gaps, visibility and clearances are in metres,
    velocities in m/s, volumes in cubic metres.
    """
    from repro.core.profilers import SpaceProfile
    from repro.geometry.vec3 import Vec3

    profiles = []
    for i in range(steps):
        t = i / (steps - 1)
        gap = 0.6 + t * 24.0
        visibility = 4.0 + t * 36.0
        profiles.append(
            SpaceProfile(
                timestamp=float(i),
                gap_min=min(0.6 + t * 10.0, gap),
                gap_avg=gap,
                closest_obstacle=2.0 + t * 38.0,
                closest_unknown=visibility,
                visibility=visibility,
                sensor_volume=100_000.0 + t * 200_000.0,
                map_volume=50_000.0,
                velocity=1.0 + t * 1.5,
                position=Vec3(10.0 * i, 0, 5),
                trajectory=None,
            )
        )
    return profiles


def fig5_model_table(steps: int = 8) -> FigureTable:
    """Figure 5: static vs. dynamic latency/deadline over a congestion sweep.

    Drives the live governor and the static baseline across
    :func:`congestion_gradient` and reports both designs' predicted latency
    (5a) and time budget (5b) in seconds at every step.
    """
    from repro.core.baseline import SpatialObliviousRuntime
    from repro.core.governor import Governor

    governor = Governor()
    baseline = SpatialObliviousRuntime()
    rows: List[List[Any]] = []
    for i, profile in enumerate(congestion_gradient(steps)):
        dynamic = governor.decide(profile)
        static = baseline.decide(profile)
        rows.append(
            [
                i,
                round(static.predicted_latency, 3),
                round(dynamic.predicted_latency, 3),
                round(static.time_budget, 3),
                round(dynamic.time_budget, 3),
            ]
        )
    return FigureTable(
        key="fig5_model",
        title="Figure 5: static (worst-case) vs dynamic latency and deadline",
        columns=[
            "step",
            "static_latency_s",
            "dynamic_latency_s",
            "static_deadline_s",
            "dynamic_deadline_s",
        ],
        rows=rows,
    )
