"""Counters, gauges and histograms for the runtime's hot paths.

The :class:`MetricsRegistry` is the numbers half of the observability layer
(:mod:`repro.obs`): small, dependency-free metric instruments sampled at
stage boundaries by the pipeline tap, snapshotted to JSON for the analysis
layer and rendered in the Prometheus text exposition format.

Design rules, matching the DAQ-style monitoring path the subsystem copies:

* instruments are plain Python objects — an increment is one float add, so
  sampling is cheap enough to sit inside the stage hooks;
* the registry is passive: nothing in the simulation reads a metric back,
  so recording can never change simulated behaviour;
* a metric family is identified by ``(name, sorted labels)``; the same
  family name may exist with different label sets (one per drone, say), and
  the Prometheus renderer groups them under one ``# TYPE`` header.

Units are carried in the ``unit`` field and documented per metric in
``docs/observability.md``; seconds for latencies, counts for everything
else.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

PathLike = Union[str, Path]

#: Every metric family rendered for Prometheus is prefixed with this.
PROMETHEUS_PREFIX = "repro_"

#: Default histogram buckets, seconds — spans the sub-millisecond comm hops
#: through multi-second planning stalls.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)

LabelValue = Union[str, int, float]
Labels = Tuple[Tuple[str, str], ...]


def _freeze_labels(labels: Optional[Mapping[str, LabelValue]]) -> Labels:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _prometheus_name(name: str) -> str:
    cleaned = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if cleaned.startswith(PROMETHEUS_PREFIX):
        return cleaned
    return PROMETHEUS_PREFIX + cleaned


def _render_labels(labels: Labels, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(labels) + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{key}="{value}"' for key, value in pairs)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


@dataclass
class Counter:
    """A monotonically increasing count (dispatches, rewires, activations)."""

    name: str
    help: str = ""
    unit: str = ""
    labels: Labels = ()
    value: float = 0.0

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        self.value += amount

    def as_dict(self) -> Dict[str, Any]:
        return {"value": self.value}

    def load(self, data: Mapping[str, Any]) -> None:
        self.value = float(data["value"])

    def render(self, lines: List[str]) -> None:
        lines.append(
            f"{_prometheus_name(self.name)}{_render_labels(self.labels)} "
            f"{_format_value(self.value)}"
        )


@dataclass
class Gauge:
    """A point-in-time value (queue depth, octree cells) with a tracked peak."""

    name: str
    help: str = ""
    unit: str = ""
    labels: Labels = ()
    value: float = 0.0
    peak: float = 0.0
    samples: int = 0

    kind = "gauge"

    def set(self, value: float) -> None:
        self.value = float(value)
        self.samples += 1
        if self.value > self.peak:
            self.peak = self.value

    def as_dict(self) -> Dict[str, Any]:
        return {"value": self.value, "peak": self.peak, "samples": self.samples}

    def load(self, data: Mapping[str, Any]) -> None:
        self.value = float(data["value"])
        self.peak = float(data.get("peak", self.value))
        self.samples = int(data.get("samples", 0))

    def render(self, lines: List[str]) -> None:
        name = _prometheus_name(self.name)
        lines.append(
            f"{name}{_render_labels(self.labels)} {_format_value(self.value)}"
        )


@dataclass
class Histogram:
    """A cumulative-bucket distribution (stage and comm-hop latencies)."""

    name: str
    help: str = ""
    unit: str = ""
    labels: Labels = ()
    buckets: Tuple[float, ...] = DEFAULT_BUCKETS
    counts: List[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0

    kind = "histogram"

    def __post_init__(self) -> None:
        bounds = tuple(sorted(float(b) for b in self.buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds
        if not self.counts:
            # One count per finite bucket plus the +Inf overflow bucket.
            self.counts = [0] * (len(bounds) + 1)
        elif len(self.counts) != len(bounds) + 1:
            raise ValueError("bucket counts do not match bucket bounds")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    def cumulative_counts(self) -> List[int]:
        """Per-bucket cumulative counts, ending with the total count."""
        out: List[int] = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def as_dict(self) -> Dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }

    def load(self, data: Mapping[str, Any]) -> None:
        self.buckets = tuple(float(b) for b in data["buckets"])
        self.counts = [int(c) for c in data["counts"]]
        self.total = float(data["sum"])
        self.count = int(data["count"])
        self.__post_init__()

    def render(self, lines: List[str]) -> None:
        name = _prometheus_name(self.name)
        cumulative = self.cumulative_counts()
        for bound, running in zip(self.buckets, cumulative):
            lines.append(
                f"{name}_bucket"
                f"{_render_labels(self.labels, (('le', _format_value(bound)),))} "
                f"{running}"
            )
        lines.append(
            f"{name}_bucket{_render_labels(self.labels, (('le', '+Inf'),))} "
            f"{cumulative[-1]}"
        )
        lines.append(
            f"{name}_sum{_render_labels(self.labels)} {_format_value(self.total)}"
        )
        lines.append(f"{name}_count{_render_labels(self.labels)} {self.count}")


Instrument = Union[Counter, Gauge, Histogram]

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Get-or-create registry of metric instruments, keyed by name + labels.

    ``counter``/``gauge``/``histogram`` return the existing instrument when
    the same (name, labels) pair is requested again, so call sites never
    cache instruments unless they sit on a hot path and want to skip the
    dictionary lookup.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, Labels], Instrument] = {}

    # ------------------------------------------------------------------
    # Instrument access
    # ------------------------------------------------------------------
    def counter(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        labels: Optional[Mapping[str, LabelValue]] = None,
    ) -> Counter:
        return self._get_or_create(Counter, name, help, unit, labels)

    def gauge(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        labels: Optional[Mapping[str, LabelValue]] = None,
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, unit, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        labels: Optional[Mapping[str, LabelValue]] = None,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        key = (name, _freeze_labels(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise TypeError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = Histogram(
            name=name, help=help, unit=unit, labels=key[1], buckets=buckets
        )
        self._metrics[key] = metric
        return metric

    def _get_or_create(self, cls, name, help, unit, labels) -> Any:
        key = (name, _freeze_labels(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name=name, help=help, unit=unit, labels=key[1])
        self._metrics[key] = metric
        return metric

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    def get(
        self, name: str, labels: Optional[Mapping[str, LabelValue]] = None
    ) -> Optional[Instrument]:
        """The instrument at (name, labels), or ``None`` if never created."""
        return self._metrics.get((name, _freeze_labels(labels)))

    def families(self) -> Dict[str, List[Instrument]]:
        """Instruments grouped by family name, in registration order."""
        grouped: Dict[str, List[Instrument]] = {}
        for metric in self._metrics.values():
            grouped.setdefault(metric.name, []).append(metric)
        return grouped

    # ------------------------------------------------------------------
    # Snapshot (JSON)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-shaped snapshot of every instrument, sorted for stable bytes."""
        metrics: List[Dict[str, Any]] = []
        for (name, labels), metric in sorted(self._metrics.items()):
            entry: Dict[str, Any] = {
                "name": name,
                "kind": metric.kind,
                "help": metric.help,
                "unit": metric.unit,
                "labels": {k: v for k, v in labels},
            }
            entry.update(metric.as_dict())
            metrics.append(entry)
        return {"schema_version": 1, "metrics": metrics}

    @classmethod
    def from_snapshot(cls, data: Mapping[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output (round-trip safe)."""
        registry = cls()
        for entry in data.get("metrics", []):
            kind = _KINDS.get(entry.get("kind", ""))
            if kind is None:
                raise ValueError(f"unknown metric kind {entry.get('kind')!r}")
            labels = dict(entry.get("labels", {}))
            if kind is Histogram:
                metric: Instrument = registry.histogram(
                    entry["name"],
                    help=entry.get("help", ""),
                    unit=entry.get("unit", ""),
                    labels=labels,
                    buckets=tuple(entry["buckets"]),
                )
            elif kind is Gauge:
                metric = registry.gauge(
                    entry["name"],
                    help=entry.get("help", ""),
                    unit=entry.get("unit", ""),
                    labels=labels,
                )
            else:
                metric = registry.counter(
                    entry["name"],
                    help=entry.get("help", ""),
                    unit=entry.get("unit", ""),
                    labels=labels,
                )
            metric.load(entry)
        return registry

    def write_snapshot(self, path: PathLike) -> Path:
        destination = Path(path)
        destination.parent.mkdir(parents=True, exist_ok=True)
        destination.write_text(
            json.dumps(self.snapshot(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        return destination

    # ------------------------------------------------------------------
    # Prometheus text exposition
    # ------------------------------------------------------------------
    def to_prometheus(self) -> str:
        """Render every family in the Prometheus text exposition format."""
        lines: List[str] = []
        for name, metrics in sorted(self.families().items()):
            first = metrics[0]
            prom = _prometheus_name(name)
            help_text = first.help or name.replace("_", " ")
            if first.unit:
                help_text = f"{help_text} ({first.unit})"
            lines.append(f"# HELP {prom} {help_text}")
            lines.append(f"# TYPE {prom} {first.kind}")
            for metric in sorted(metrics, key=lambda m: m.labels):
                metric.render(lines)
        return "\n".join(lines) + ("\n" if lines else "")

    def write_prometheus(self, path: PathLike) -> Path:
        destination = Path(path)
        destination.parent.mkdir(parents=True, exist_ok=True)
        destination.write_text(self.to_prometheus(), encoding="utf-8")
        return destination
