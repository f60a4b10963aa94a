"""Observability: spans, metrics and heartbeats for the runtime itself.

The rest of the repository observes the *simulation* (the ``TraceRecorder``
JSONL of the analysis layer); this package observes the *runtime* — where
wall-clock time goes inside the decision loop, how hard the solver, planner
and octree are working, and whether campaign workers are alive.  Three
pillars:

* :mod:`repro.obs.tracer` — nested mission → decision → stage spans with
  Chrome trace-event export (Perfetto-loadable);
* :mod:`repro.obs.metrics` — counters/gauges/histograms with a JSON
  snapshot and Prometheus text exposition;
* :mod:`repro.obs.heartbeat` — per-spec progress records from campaign
  workers over a multiprocessing queue.

Everything is opt-in and strictly off the data path: with no tap attached
the runtime pays a few truthiness checks, and with a tap attached the
dispatch log, traces and metrics stay byte-identical (the tap only reads
what the pipeline's hooks hand it).  :mod:`repro.obs.log` is the package's
logging discipline — library code never prints.
"""

from repro.obs.heartbeat import (
    HEARTBEAT_FILE,
    HeartbeatEmitter,
    HeartbeatRecord,
    peak_rss_mb,
    read_heartbeats,
    runtime_summary,
    write_heartbeats,
)
from repro.obs.log import (
    LOG_LEVEL_ENV,
    ROOT_LOGGER_NAME,
    configure_logging,
    get_logger,
    level_from_env,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PROMETHEUS_PREFIX,
)
from repro.obs.tap import ObsTap
from repro.obs.tracer import Span, Tracer, validate_chrome_trace

__all__ = [
    "HEARTBEAT_FILE",
    "HeartbeatEmitter",
    "HeartbeatRecord",
    "peak_rss_mb",
    "read_heartbeats",
    "runtime_summary",
    "write_heartbeats",
    "LOG_LEVEL_ENV",
    "ROOT_LOGGER_NAME",
    "configure_logging",
    "get_logger",
    "level_from_env",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PROMETHEUS_PREFIX",
    "ObsTap",
    "Span",
    "Tracer",
    "validate_chrome_trace",
]
