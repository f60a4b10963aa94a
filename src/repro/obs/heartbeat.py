"""Campaign heartbeats: per-spec progress records from worker processes.

A :class:`CampaignRunner` worker knows things the parent pool cannot see —
which decision epoch the mission is on, how much wall clock it has burned,
how big its process has grown.  The heartbeat path ships that knowledge out:
each worker emits :class:`HeartbeatRecord` rows (start → running… → done or
error) over a ``multiprocessing`` queue; the parent drains the queue into
``<telemetry_dir>/heartbeats.jsonl`` and a live progress line.  The async
campaign engine adds two parent-synthesised statuses — ``timeout`` when it
kills an over-budget worker and ``retry`` when it requeues a spec whose
worker died — see :data:`HEARTBEAT_STATUSES`.

The emitter doubles as a pipeline tap (``on_decision_end`` throttled to one
record per ``min_interval_s`` of wall clock), so per-epoch progress costs a
clock comparison per decision and a queue put every few hundred
milliseconds — and, like everything in :mod:`repro.obs`, it is opt-in:
campaigns run without a telemetry queue emit nothing and touch none of
this code.

RSS comes from :mod:`resource` (stdlib) rather than psutil, so the repo
stays dependency-free; ``ru_maxrss`` is the *peak*, which is exactly the
quantity the runtime table wants.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

PathLike = Union[str, Path]

#: File name of the heartbeat JSONL inside a telemetry directory.
HEARTBEAT_FILE = "heartbeats.jsonl"

#: Every status a heartbeat record can carry.  ``start`` / ``running`` /
#: ``done`` / ``error`` come from the worker itself; ``timeout`` and
#: ``retry`` are synthesised by the async campaign parent when it kills an
#: over-budget worker or requeues a spec whose worker died.
HEARTBEAT_STATUSES = ("start", "running", "done", "error", "timeout", "retry")

#: The fields every heartbeat line carries, with the JSON type each holds
#: (an integer is a valid float; ``error`` is optional).
_REQUIRED_FIELDS = (
    ("spec", str),
    ("status", str),
    ("seq", int),
    ("epoch", int),
    ("decisions", int),
    ("wall_elapsed_s", float),
    ("rss_mb", float),
    ("pid", int),
)

try:  # pragma: no cover - resource is stdlib on POSIX, absent on Windows
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, MiB (0.0 when unavailable).

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; normalise both.
    """
    if resource is None:
        return 0.0
    raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if raw > 1 << 30:  # clearly bytes (a >1 TiB KiB reading is implausible)
        return raw / (1 << 20)
    return raw / 1024.0


@dataclass(frozen=True, slots=True)
class HeartbeatRecord:
    """One progress record from a campaign worker.

    Attributes:
        spec: the scenario spec name the worker is running.
        status: one of :data:`HEARTBEAT_STATUSES` — ``start`` | ``running``
            | ``done`` | ``error`` from workers, ``timeout`` | ``retry``
            from the async campaign parent.
        seq: per-spec record sequence number (0 for ``start``).
        epoch: last completed decision epoch (-1 before the first).
        decisions: decision cascades completed so far (fleet missions count
            every drone's cascades).
        wall_elapsed_s: wall-clock seconds since the spec started.
        rss_mb: the worker's peak RSS at emission time, MiB.
        pid: the worker process id.
        error: the error string for ``status="error"`` records, else "".
    """

    spec: str
    status: str
    seq: int
    epoch: int
    decisions: int
    wall_elapsed_s: float
    rss_mb: float
    pid: int
    error: str = ""

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        if not self.error:
            del data["error"]
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "HeartbeatRecord":
        """Parse one heartbeat line's JSON value.

        Raises:
            ValueError: when ``data`` is not a JSON object, or a required
                field is missing, holds another type or an integer past 64
                bits (the field is named in the message).
        """
        if not isinstance(data, dict):
            raise ValueError(f"heartbeat is not a JSON object: {data!r:.80}")
        values: Dict[str, Any] = {}
        for name, kind in _REQUIRED_FIELDS:
            if name not in data:
                raise ValueError(f"heartbeat lacks the {name!r} field")
            value = data[name]
            allowed = (int, float) if kind is float else kind
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ValueError(
                    f"heartbeat field {name!r} must be of type {kind.__name__}, "
                    f"got {value!r:.80}"
                )
            # The runtime table divides these numbers, so each must fit a float.
            if isinstance(value, int) and not -(2**63) <= value < 2**63:
                raise ValueError(f"heartbeat field {name!r} is past the 64-bit range")
            values[name] = kind(value)
        return cls(error=str(data.get("error", "")), **values)


class HeartbeatEmitter:
    """Worker-side heartbeat source; also a pipeline tap.

    Args:
        spec_name: name of the spec being run.
        sink: anything with a ``put(record_dict)`` method — a
            ``multiprocessing.Queue`` in pooled runs, a plain list adapter in
            serial runs and tests.
        min_interval_s: wall-clock throttle between ``running`` records.
    """

    def __init__(
        self,
        spec_name: str,
        sink: Any,
        min_interval_s: float = 0.25,
    ) -> None:
        self.spec_name = spec_name
        self.sink = sink
        self.min_interval_s = min_interval_s
        self._started = time.perf_counter()
        self._last_emit = float("-inf")
        self._seq = 0
        self._decisions = 0
        self._last_epoch = -1

    # -- tap protocol --------------------------------------------------
    def attach(self, pipeline: Any) -> None:
        if self not in pipeline.observers:
            pipeline.observers.append(self)

    def on_decision_start(self, pipeline: Any, index: int) -> None:
        del pipeline, index

    def on_decision_end(self, pipeline: Any, index: int, result: Any) -> None:
        del pipeline, result
        self._decisions += 1
        self._last_epoch = max(self._last_epoch, index)
        now = time.perf_counter()
        if now - self._last_emit >= self.min_interval_s:
            self.emit("running")

    # -- record emission -----------------------------------------------
    def emit(self, status: str, error: str = "") -> HeartbeatRecord:
        record = HeartbeatRecord(
            spec=self.spec_name,
            status=status,
            seq=self._seq,
            epoch=self._last_epoch,
            decisions=self._decisions,
            wall_elapsed_s=time.perf_counter() - self._started,
            rss_mb=peak_rss_mb(),
            pid=os.getpid(),
            error=error,
        )
        self._seq += 1
        self._last_emit = time.perf_counter()
        try:
            self.sink.put(record.to_dict())
        except (ValueError, OSError):  # pragma: no cover - queue torn down
            pass
        return record


def write_heartbeats(records: Iterable[Dict[str, Any]], path: PathLike) -> Path:
    """Append heartbeat dicts to a JSONL file (created with parents)."""
    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    with destination.open("a", encoding="utf-8") as stream:
        for record in records:
            stream.write(json.dumps(record, sort_keys=True) + "\n")
    return destination


def clear_heartbeats(path: PathLike) -> bool:
    """Delete a heartbeat JSONL file if it exists; True when one was removed.

    :meth:`~repro.simulation.campaign.CampaignRunner.run` sweeps the
    heartbeat file through this before flying: :func:`write_heartbeats`
    appends, so without the sweep a campaign re-run into the same
    ``telemetry_dir`` would accumulate the previous run's records and
    :func:`runtime_summary` would report stale totals.
    """
    target = Path(path)
    if target.is_file():
        target.unlink()
        return True
    return False


def read_heartbeats(path: PathLike) -> List[HeartbeatRecord]:
    """Parse a heartbeat JSONL file; missing file → empty list.

    Raises:
        ValueError: whose message starts with ``path:line``, when a line is
            not a JSON object or lacks a field or holds one of another type.
    """
    source = Path(path)
    if not source.exists():
        return []
    records: List[HeartbeatRecord] = []
    for number, line in enumerate(source.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(HeartbeatRecord.from_dict(json.loads(line)))
        except RecursionError:
            raise ValueError(f"{source}:{number}: heartbeat nests too deeply") from None
        except ValueError as exc:
            raise ValueError(f"{source}:{number}: {exc}") from None
    return records


def runtime_summary(
    records: Iterable[HeartbeatRecord],
) -> Dict[str, Dict[str, Any]]:
    """Fold heartbeats into one runtime row per spec.

    Returns ``spec -> {status, wall_time_s, decisions, decisions_per_sec,
    peak_rss_mb}`` using each spec's last record *in iteration order*
    (heartbeat files are written in arrival order and records are
    cumulative, so the last one carries the totals).  Arrival order — not
    ``seq`` — is the tiebreak because a spec retried by the async engine
    starts a fresh emitter whose sequence numbers restart at 0: the retry
    attempt's ``done`` must win over the dead attempt's higher-``seq``
    ``running`` record.
    """
    last: Dict[str, HeartbeatRecord] = {}
    for record in records:
        last[record.spec] = record
    summary: Dict[str, Dict[str, Any]] = {}
    for spec, record in last.items():
        wall = record.wall_elapsed_s
        summary[spec] = {
            "status": record.status,
            "wall_time_s": wall,
            "decisions": record.decisions,
            "decisions_per_sec": record.decisions / wall if wall > 0 else 0.0,
            "peak_rss_mb": record.rss_mb,
            "error": record.error,
        }
    return summary
