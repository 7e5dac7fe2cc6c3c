"""Unit tests for the telemetry event bus and collector."""

import pickle

import pytest

from repro.telemetry import (
    ALL_CATEGORIES,
    CAT_CACHE,
    CAT_PIPELINE,
    NULL_TELEMETRY,
    Event,
    TelemetryCollector,
    TelemetryConfig,
    parse_filter,
)


class TestParseFilter:
    def test_none_means_no_filtering(self):
        assert parse_filter(None) is None

    def test_empty_means_no_filtering(self):
        assert parse_filter("") is None
        assert parse_filter("  ,  ") is None

    def test_all_means_no_filtering(self):
        assert parse_filter("all") is None

    def test_comma_list(self):
        assert parse_filter("cache, recon") == frozenset({"cache", "recon"})

    def test_unknown_category_fails_loudly(self):
        with pytest.raises(ValueError, match="bogus"):
            parse_filter("cache,bogus")


class TestTelemetryConfig:
    def test_defaults(self):
        config = TelemetryConfig()
        assert config.sample_rate == 1
        assert config.categories is None
        assert config.ring_buffer > 0
        assert config.timeline_interval is None

    def test_is_hashable(self):
        # RunConfig/RunSpec are frozen dataclasses, so the telemetry
        # config they embed must hash.
        assert hash(TelemetryConfig(categories=frozenset({"cache"})))

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            TelemetryConfig(sample_rate=0)
        with pytest.raises(ValueError):
            TelemetryConfig(ring_buffer=0)
        with pytest.raises(ValueError):
            TelemetryConfig(timeline_interval=0)
        with pytest.raises(ValueError):
            TelemetryConfig(categories=frozenset({"bogus"}))


class TestNullTelemetry:
    def test_disabled_and_inert(self):
        assert NULL_TELEMETRY.enabled is False
        # A site that forgets the ``enabled`` guard must stay correct.
        NULL_TELEMETRY.emit(CAT_CACHE, "l1_hit", core=0)
        NULL_TELEMETRY.observe("load_latency", 3)


class TestEvent:
    def test_as_dict_drops_uop(self):
        event = Event(5, CAT_PIPELINE, "commit", core=1, seq=7, uop=object())
        d = event.as_dict()
        assert "uop" not in d
        assert d["cycle"] == 5 and d["seq"] == 7

    def test_pickle_strips_uop(self):
        sentinel = object()  # unpicklable payloads must not leak through
        event = Event(5, CAT_PIPELINE, "commit", seq=7, uop=sentinel)
        clone = pickle.loads(pickle.dumps(event))
        assert clone.uop is None
        assert clone.cycle == 5
        assert clone.kind == "commit"
        assert clone.seq == 7


class TestTelemetryCollector:
    def test_emit_stamps_current_cycle(self):
        collector = TelemetryCollector()
        collector.now = 42
        collector.emit(CAT_CACHE, "l1_hit")
        assert collector.events[0].cycle == 42

    def test_category_filter_skips_everything(self):
        collector = TelemetryCollector(
            TelemetryConfig(categories=frozenset({CAT_CACHE}))
        )
        collector.emit(CAT_PIPELINE, "commit")
        collector.emit(CAT_CACHE, "l1_hit")
        assert [e.category for e in collector.events] == [CAT_CACHE]
        assert collector.emitted_events == 1

    def test_ring_buffer_drops_oldest(self):
        collector = TelemetryCollector(TelemetryConfig(ring_buffer=3))
        for seq in range(5):
            collector.emit(CAT_CACHE, "l1_hit", seq=seq)
        assert [e.seq for e in collector.events] == [2, 3, 4]
        assert collector.dropped_events == 2
        assert collector.emitted_events == 5

    def test_sampling_keeps_every_nth(self):
        collector = TelemetryCollector(TelemetryConfig(sample_rate=3))
        for seq in range(9):
            collector.emit(CAT_CACHE, "l1_hit", seq=seq)
        assert [e.seq for e in collector.events] == [2, 5, 8]
        assert collector.emitted_events == 9

    def test_sinks_see_every_event_before_sampling(self):
        seen = []

        class Sink:
            def on_event(self, event):
                seen.append(event.seq)

        collector = TelemetryCollector(
            TelemetryConfig(sample_rate=4, ring_buffer=2)
        )
        collector.add_sink(Sink())
        for seq in range(8):
            collector.emit(CAT_CACHE, "l1_hit", seq=seq)
        assert seen == list(range(8))
        assert len(collector.events) == 2

    def test_finalize_strips_uops_and_snapshots(self):
        collector = TelemetryCollector()
        collector.emit(CAT_PIPELINE, "commit", seq=1, uop=object())
        result = collector.finalize()
        assert result.events[0].uop is None
        assert result.emitted_events == 1
        assert result.dropped_events == 0
        assert "counters" in result.metrics

    def test_finalize_backfills_stats(self):
        from repro.common import StatSet

        stats = StatSet()
        stats.l1_hits = 17
        collector = TelemetryCollector()
        result = collector.finalize(stats)
        assert result.metrics["counters"]["l1_hits"] == 17

    def test_all_categories_cover_constants(self):
        from repro.telemetry.events import CAT_MEM_TXN

        assert CAT_PIPELINE in ALL_CATEGORIES
        assert CAT_CACHE in ALL_CATEGORIES
        assert CAT_MEM_TXN in ALL_CATEGORIES
        # Nothing emits these into a run's trace.
        for name in ("backend", "fault", "redteam"):
            assert name not in ALL_CATEGORIES
        assert len(ALL_CATEGORIES) == 7
