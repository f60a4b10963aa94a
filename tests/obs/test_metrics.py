"""MetricsRegistry: instruments, snapshot round-trip, Prometheus rendering."""

import json
import math

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    PROMETHEUS_PREFIX,
)


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        c = registry.counter("dispatches_total")
        c.inc()
        c.inc(3)
        assert c.value == 4

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_gauge_tracks_peak(self):
        g = MetricsRegistry().gauge("queue_depth")
        for v in (3, 9, 2):
            g.set(v)
        assert g.value == 2
        assert g.peak == 9
        assert g.samples == 3

    def test_histogram_buckets_and_mean(self):
        h = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        assert h.count == 4
        assert h.counts == [1, 2, 1]
        assert h.cumulative_counts() == [1, 3, 4]
        assert h.total / h.count == pytest.approx(6.05 / 4)

    def test_histogram_boundary_lands_in_its_bucket(self):
        # Prometheus buckets are cumulative upper bounds (le): an observation
        # equal to a bound belongs to that bound's bucket.
        h = MetricsRegistry().histogram("edge", buckets=(1.0, 2.0))
        h.observe(1.0)
        assert h.counts == [1, 0, 0]

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("c", labels={"drone": "0"})
        b = registry.counter("c", labels={"drone": "0"})
        other = registry.counter("c", labels={"drone": "1"})
        assert a is b
        assert a is not other
        assert len(registry) == 2

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")


class TestSnapshot:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("dispatches_total", help="deliveries").inc(7)
        registry.gauge("queue_depth", labels={"drone": "drone0"}).set(4)
        h = registry.histogram("stage_seconds", unit="s", buckets=(0.01, 0.1))
        h.observe(0.005)
        h.observe(0.5)
        return registry

    def test_snapshot_round_trips_through_json(self):
        registry = self._populated()
        payload = json.dumps(registry.snapshot(), sort_keys=True)
        rebuilt = MetricsRegistry.from_snapshot(json.loads(payload))
        assert rebuilt.snapshot() == registry.snapshot()
        assert json.dumps(rebuilt.snapshot(), sort_keys=True) == payload

    def test_snapshot_is_deterministically_ordered(self):
        a = MetricsRegistry()
        a.counter("b").inc()
        a.counter("a").inc()
        b = MetricsRegistry()
        b.counter("a").inc()
        b.counter("b").inc()
        assert a.snapshot() == b.snapshot()

    def test_write_snapshot(self, tmp_path):
        path = self._populated().write_snapshot(tmp_path / "deep" / "m.json")
        assert path.exists()
        data = json.loads(path.read_text())
        assert data["schema_version"] == 1
        assert {m["name"] for m in data["metrics"]} == {
            "dispatches_total", "queue_depth", "stage_seconds",
        }


class TestPrometheus:
    def test_rendering_shape(self):
        registry = MetricsRegistry()
        registry.counter(
            "dispatches_total", help="deliveries", labels={"drone": "drone0"}
        ).inc(5)
        text = registry.to_prometheus()
        assert f"# HELP {PROMETHEUS_PREFIX}dispatches_total deliveries" in text
        assert f"# TYPE {PROMETHEUS_PREFIX}dispatches_total counter" in text
        assert 'repro_dispatches_total{drone="drone0"} 5' in text
        assert text.endswith("\n")

    def test_histogram_rendering(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        text = registry.to_prometheus()
        assert 'repro_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="1"} 2' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_lat_seconds_sum 0.55" in text
        assert "repro_lat_seconds_count 2" in text

    def test_exposition_is_parseable_line_format(self):
        """Every non-comment line is `name{labels} value` with a float value."""
        registry = MetricsRegistry()
        registry.counter("a_total", labels={"x": "1"}).inc()
        registry.gauge("b").set(2.5)
        registry.histogram("c", buckets=DEFAULT_BUCKETS).observe(0.3)
        for line in registry.to_prometheus().splitlines():
            if not line or line.startswith("#"):
                continue
            name_part, value_part = line.rsplit(" ", 1)
            assert name_part.startswith(PROMETHEUS_PREFIX)
            assert value_part == "+Inf" or not math.isnan(float(value_part))

    def test_invalid_metric_name_characters_are_sanitised(self):
        registry = MetricsRegistry()
        registry.counter("comm.point-cloud").inc()
        assert "repro_comm_point_cloud 1" in registry.to_prometheus()
