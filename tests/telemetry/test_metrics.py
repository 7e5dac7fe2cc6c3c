"""Unit tests for the metrics registry instruments."""

import pytest

from repro.common import StatSet
from repro.telemetry import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.metrics import DEFAULT_HISTOGRAMS, bucket_quantile


class TestCounter:
    def test_inc_and_set(self):
        counter = Counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        counter.set(2)
        assert counter.value == 2


class TestGauge:
    def test_tracks_extremes(self):
        gauge = Gauge("x")
        for value in (5.0, 2.0, 9.0):
            gauge.set(value)
        assert gauge.value == 9.0
        assert gauge.min == 2.0
        assert gauge.max == 9.0

    def test_first_sample_sets_both_extremes(self):
        gauge = Gauge("x")
        gauge.set(-3.0)
        assert gauge.min == gauge.max == -3.0


class TestHistogram:
    def test_bucketing(self):
        hist = Histogram("x", [1.0, 2.0, 4.0])
        for value in (0, 1, 2, 3, 100):
            hist.observe(value)
        # counts: <=1 (0,1), <=2 (2), <=4 (3), overflow (100)
        assert hist.counts == [2, 1, 1, 1]
        assert hist.total == 5
        assert hist.sum == 106.0

    def test_mean(self):
        hist = Histogram("x", [10.0])
        assert hist.mean == 0.0
        hist.observe(2)
        hist.observe(4)
        assert hist.mean == 3.0

    def test_quantile(self):
        hist = Histogram("x", [1.0, 2.0, 4.0, 8.0])
        for value in (1, 1, 2, 4, 8):
            hist.observe(value)
        assert hist.quantile(0.0) == 0.0 or hist.quantile(0.0) >= 0
        assert hist.quantile(0.5) == 2.0
        assert hist.quantile(1.0) == 8.0
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        # The serialized counts (what `repro telemetry summarize` reads)
        # give the same quantiles through the same rule.
        data = hist.as_dict()
        for q in (0.0, 0.5, 0.99, 1.0):
            assert bucket_quantile(data["bounds"], data["counts"], q) == (
                hist.quantile(q)
            )

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("x", [])
        with pytest.raises(ValueError):
            Histogram("x", [2.0, 1.0])

    def test_as_dict_round_trip(self):
        hist = Histogram("x", [1.0])
        hist.observe(0.5)
        d = hist.as_dict()
        assert d["bounds"] == [1.0]
        assert d["counts"] == [1, 0]
        assert d["total"] == 1
        assert d["mean"] == 0.5


class TestMetricsRegistry:
    def test_lazy_creation_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")

    def test_default_histograms_preseeded(self):
        registry = MetricsRegistry.with_default_instruments()
        for name in DEFAULT_HISTOGRAMS:
            assert name in registry.histograms

    def test_unknown_histogram_needs_bounds(self):
        registry = MetricsRegistry()
        with pytest.raises(KeyError):
            registry.histogram("custom")
        assert registry.histogram("custom", [1.0]).bounds == (1.0,)

    def test_backfill_covers_every_stat_field(self):
        import dataclasses

        stats = StatSet()
        stats.cycles = 100
        stats.reveal_hits = 3
        registry = MetricsRegistry()
        registry.backfill_statset(stats)
        for field in dataclasses.fields(StatSet):
            assert registry.counter(field.name).value == getattr(
                stats, field.name
            )

    def test_as_dict_shape(self):
        registry = MetricsRegistry.with_default_instruments()
        registry.counter("c").inc()
        registry.gauge("g").set(1.0)
        d = registry.as_dict()
        assert d["counters"] == {"c": 1}
        assert d["gauges"]["g"] == {"value": 1.0, "min": 1.0, "max": 1.0}
        assert set(d["histograms"]) == set(DEFAULT_HISTOGRAMS)
