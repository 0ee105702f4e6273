"""Unit tests for the serving metrics registry."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import LatencyHistogram
from repro.serving.metrics import MetricsRegistry


class TestLatencyHistogram:
    def test_empty(self):
        histogram = LatencyHistogram()
        assert histogram.count == 0
        assert histogram.mean_ms == 0.0
        assert histogram.percentile_ms(0.5) == 0.0

    def test_bucketing_and_percentiles(self):
        histogram = LatencyHistogram(bounds_ms=(1.0, 10.0, 100.0))
        for latency in (0.2, 0.5, 5.0, 50.0):
            histogram.observe(latency)
        assert histogram.count == 4
        # ranks: p50 -> 2nd sample -> the <=1ms bucket's bound
        assert histogram.percentile_ms(0.50) == 1.0
        assert histogram.percentile_ms(0.75) == 10.0
        assert histogram.percentile_ms(1.00) == 100.0

    def test_overflow_reports_observed_max(self):
        histogram = LatencyHistogram(bounds_ms=(1.0,))
        histogram.observe(250.0)
        assert histogram.percentile_ms(0.99) == 250.0
        assert histogram.as_dict()["buckets"]["overflow"] == 1

    def test_negative_clamps_to_zero(self):
        histogram = LatencyHistogram(bounds_ms=(1.0,))
        histogram.observe(-5.0)
        assert histogram.mean_ms == 0.0
        assert histogram.count == 1

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram(bounds_ms=())
        with pytest.raises(ValueError):
            LatencyHistogram(bounds_ms=(5.0, 5.0))
        with pytest.raises(ValueError):
            LatencyHistogram().percentile_ms(0.0)

    def test_as_dict_is_json_serializable(self):
        histogram = LatencyHistogram()
        histogram.observe(3.0)
        payload = histogram.as_dict()
        assert json.loads(json.dumps(payload)) == payload


class TestMetricsRegistry:
    def test_observe_and_snapshot(self):
        registry = MetricsRegistry()
        registry.observe("/search", 200, 4.0)
        registry.observe("/search", 200, 6.0)
        registry.observe("/search", 429, 0.1)
        registry.observe("/healthz", 200, 0.05)
        snapshot = registry.snapshot()
        assert snapshot["completed"] == 4
        assert snapshot["shed_rate_limited"] == 1
        search = snapshot["endpoints"]["/search"]
        assert search["requests"] == 3
        assert search["by_status"] == {"200": 2, "429": 1}
        assert search["latency"]["count"] == 3
        assert snapshot["qps"] > 0

    def test_shed_counters(self):
        registry = MetricsRegistry()
        registry.note_shed("overload")
        registry.note_shed("draining")
        registry.note_shed("draining")
        registry.observe("/search", 504, 30_000.0)  # the pool deadline
        snapshot = registry.snapshot()
        assert snapshot["shed_overload"] == 1
        assert snapshot["shed_draining"] == 2
        assert snapshot["shed_timeout"] == 1
        with pytest.raises(ValueError):
            registry.note_shed("bogus")

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.observe("/search_batch", 200, 12.5)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
