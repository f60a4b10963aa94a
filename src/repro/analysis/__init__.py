"""Mission trace and campaign reporting subsystem.

The analysis package turns missions into data and data into the paper's
figures, in three layers:

1. **Records** (:mod:`repro.analysis.trace`): one
   :class:`DecisionRecord` per pipeline decision — budget, solver knobs,
   map size, per-stage/hop latencies, energy — plus one
   :class:`MissionRecord` per mission, all plain JSON-serialisable values.
2. **Capture and storage** (:mod:`repro.analysis.recorder`,
   :mod:`repro.analysis.io`): a :class:`TraceRecorder` observes the
   decision pipeline's steps, stamps each record
   the pipeline built with its spec's name, and streams records through
   :class:`TraceWriter` /
   :class:`TraceReader` JSONL files that are byte-identical across serial
   and multiprocessing campaign runs.
3. **Aggregation** (:mod:`repro.analysis.figures`,
   :mod:`repro.analysis.report`): ``fig2/5/7/8`` aggregators fold record
   streams into :class:`FigureTable` values with CSV/markdown emitters, and
   :class:`CampaignReport` assembles them into a self-contained report —
   the backend of ``python -m repro.report``.
"""

from repro.analysis.figures import (
    FigureTable,
    archetype_comparison,
    fig2_latency_deadline,
    fig2a_model_table,
    fig2b_model_table,
    fig5_governor_response,
    fig5_model_table,
    fig7_overall,
    fig8_sensitivity,
)
from repro.analysis.io import (
    TraceReader,
    TraceWriter,
    clear_traces,
    list_trace_files,
    read_traces,
    trace_path,
)
from repro.analysis.recorder import TraceRecorder
from repro.analysis.report import CampaignReport
from repro.analysis.trace import (
    FIG8_KNOBS,
    DecisionRecord,
    MissionRecord,
    record_from_line,
    record_to_line,
    split_records,
)

__all__ = [
    "FIG8_KNOBS",
    "CampaignReport",
    "DecisionRecord",
    "FigureTable",
    "MissionRecord",
    "TraceReader",
    "TraceRecorder",
    "TraceWriter",
    "archetype_comparison",
    "fig2_latency_deadline",
    "fig2a_model_table",
    "fig2b_model_table",
    "fig5_governor_response",
    "fig5_model_table",
    "fig7_overall",
    "fig8_sensitivity",
    "clear_traces",
    "list_trace_files",
    "read_traces",
    "record_from_line",
    "record_to_line",
    "split_records",
    "trace_path",
]
