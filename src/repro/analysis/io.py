"""Streaming JSONL trace files.

A trace file is a sequence of JSON objects, one per line: every
:class:`~repro.analysis.trace.DecisionRecord` of a mission in decision
order, followed by the mission's :class:`~repro.analysis.trace.
MissionRecord`.  The format is append-only and line-oriented so that

* multi-thousand-mission campaigns stream records to disk as they are
  produced instead of holding them in memory,
* a partially written file (a crashed worker) is still readable up to its
  last complete line, and
* files from different runs of the same spec are byte-identical (the
  encoder is canonical — see :func:`repro.analysis.trace.record_to_line`).

:class:`TraceWriter` and :class:`TraceReader` are deliberately tiny: no
compression, no framing, no dependencies beyond the standard library.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Iterator, List, Optional, Sequence, Tuple, Union

from repro.analysis.trace import (
    DecisionRecord,
    MissionRecord,
    TraceRecord,
    record_from_line,
    record_to_line,
    split_records,
)

PathLike = Union[str, Path]

#: File suffix used by campaign trace directories.
TRACE_SUFFIX = ".jsonl"


class TraceWriter:
    """Appends trace records to a JSONL file, one line per record.

    The writer creates parent directories on first use and flushes on
    :meth:`close` (or context-manager exit); records are buffered by the
    underlying file object in between, so per-decision writes stay cheap.

    Attributes:
        path: destination file; an existing file is truncated.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: Optional[IO[str]] = self.path.open("w", encoding="utf-8")

    def write(self, record: TraceRecord) -> None:
        """Append one record as a canonical JSONL line."""
        if self._handle is None:
            raise ValueError(f"trace writer for {self.path} is closed")
        self._handle.write(record_to_line(record))
        self._handle.write("\n")

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class TraceReader:
    """Iterates the records of one JSONL trace file, in file order.

    The reader is streaming: iterating never loads the whole file, so
    campaign-scale traces aggregate in constant memory.  Blank lines are
    skipped (a trailing newline is not an error).  A malformed line raises
    a ``ValueError`` whose message starts with ``path:line``.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)

    def __iter__(self) -> Iterator[TraceRecord]:
        with self.path.open("r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = record_from_line(line)
                except ValueError as exc:
                    raise ValueError(f"{self.path}:{number}: {exc}") from None
                yield record


def trace_path(directory: PathLike, spec_name: str) -> Path:
    """The canonical trace-file path for one spec inside a trace directory.

    Path separators in the spec name are flattened so a name can never
    escape the directory.
    """
    safe = spec_name.replace("/", "_").replace("\\", "_")
    return Path(directory) / f"{safe}{TRACE_SUFFIX}"


def list_trace_files(directory: PathLike) -> List[Path]:
    """Every ``*.jsonl`` trace file under a directory, sorted by name."""
    return sorted(Path(directory).glob(f"*{TRACE_SUFFIX}"))


def clear_traces(directory: PathLike) -> int:
    """Delete every ``*.jsonl`` trace file under a directory, if it exists.

    :meth:`~repro.simulation.campaign.CampaignRunner.run` sweeps its trace
    directory through this before flying: each worker only truncates its own
    spec's file, so without the sweep, files from a previous (different)
    campaign would survive and be silently folded into the next report.

    Returns:
        The number of files removed.
    """
    base = Path(directory)
    if not base.is_dir():
        return 0
    stale = list_trace_files(base)
    for path in stale:
        path.unlink()
    return len(stale)


def is_complete_trace(path: PathLike) -> bool:
    """True when a trace file exists, parses cleanly and ended well.

    This is the ``--resume`` probe: a campaign restarted into the same trace
    directory skips every spec whose file passes it.  "Ended well" means the
    final record is the mission's :class:`MissionRecord` with no error — a
    file that stops mid-stream (crashed worker), holds an unparseable line
    (torn write) or ends in an error record is *not* complete, so resuming
    re-flies exactly the specs that never finished.
    """
    source = Path(path)
    if not source.is_file():
        return False
    last: Optional[TraceRecord] = None
    try:
        for record in TraceReader(source):
            last = record
    except Exception:  # noqa: BLE001 - any parse failure means "rerun it"
        return False
    return isinstance(last, MissionRecord) and last.error is None


def read_traces(
    paths: Sequence[PathLike],
) -> Tuple[List[DecisionRecord], List[MissionRecord]]:
    """Read many trace files and split them into (decisions, missions).

    Files are read in the given order and records keep their file order, so
    passing spec-ordered paths reproduces the campaign's spec order.
    """
    records: List[TraceRecord] = []
    for path in paths:
        records.extend(TraceReader(path))
    return split_records(records)
