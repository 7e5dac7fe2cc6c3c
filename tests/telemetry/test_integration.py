"""End-to-end telemetry acceptance tests.

The acceptance invariants of the subsystem: a telemetry-disabled run is
bit-identical to the seed behaviour, a traced run changes no simulated
outcome, exported metric counters equal the authoritative StatSet, and
traced specs bypass the persistent result store.
"""

import collections
import dataclasses

import pytest

from repro.common import SchemeKind, StatSet, SystemParams
from repro.sim import RunConfig, System, run_benchmark
from repro.sim.engine import RunSpec, run_specs
from repro.sim.store import ResultStore, result_from_dict, result_to_dict
from repro.telemetry import (
    TelemetryConfig,
    to_chrome_trace,
    to_konata,
    validate_chrome_trace,
)
from repro.telemetry.events import CAT_CACHE
from repro.workloads import build_parallel_traces, get_benchmark

LENGTH = 1500


def _run(scheme=SchemeKind.STT_RECON, telemetry=None):
    profile = get_benchmark("spec2017", "mcf")
    return run_benchmark(
        profile, scheme, LENGTH, config=RunConfig(telemetry=telemetry)
    )


class TestTracingChangesNothing:
    def test_stats_bit_identical_with_and_without_tracing(self):
        plain = _run()
        traced = _run(telemetry=TelemetryConfig())
        assert plain.telemetry is None
        assert traced.telemetry is not None
        assert plain.cycles == traced.cycles
        assert plain.stats.as_dict() == traced.stats.as_dict()

    def test_category_filter_changes_nothing(self):
        plain = _run()
        filtered = _run(
            telemetry=TelemetryConfig(categories=frozenset({"recon"}))
        )
        assert plain.stats.as_dict() == filtered.stats.as_dict()
        assert all(
            e.category == "recon" for e in filtered.telemetry.events
        )


class TestMetricsMatchStats:
    def test_exported_counters_equal_statset(self):
        result = _run(telemetry=TelemetryConfig())
        counters = result.telemetry.metrics["counters"]
        for field in dataclasses.fields(StatSet):
            assert counters[field.name] == getattr(
                result.stats, field.name
            ), field.name

    def test_histograms_populated_for_delaying_scheme(self):
        result = _run(SchemeKind.STT, telemetry=TelemetryConfig())
        histograms = result.telemetry.metrics["histograms"]
        assert histograms["load_latency"]["total"] > 0
        if result.stats.delay_cycles:
            assert histograms["delay_cycles"]["total"] > 0


class _CacheEventCounter:
    """Sink counting every cache event per (core, kind), before sampling."""

    def __init__(self):
        self.counts = collections.Counter()

    def on_event(self, event):
        if event.category == CAT_CACHE:
            self.counts[event.core, event.kind] += 1


class TestLiveEventsMatchStats:
    """Every private-cache hit the stats count reaches the event bus."""

    @pytest.mark.parametrize(
        "suite, bench, threads",
        [("spec2017", "mcf", 1), ("parsec", "canneal", 2)],
    )
    def test_hit_events_equal_hit_counters(self, suite, bench, threads):
        traces = [
            program.trace()
            for program in build_parallel_traces(
                get_benchmark(suite, bench), threads, LENGTH
            )
        ]
        system = System(
            SystemParams(),
            traces,
            SchemeKind.STT_RECON,
            telemetry=TelemetryConfig(sample_rate=64, ring_buffer=16),
        )
        counter = _CacheEventCounter()
        system.telemetry.add_sink(counter)
        result = system.run()
        for core, stats in enumerate(result.per_core):
            assert stats.l1_hits > 0 and stats.l2_hits > 0
            assert counter.counts[core, "l1_hit"] == stats.l1_hits
            assert counter.counts[core, "l2_hit"] == stats.l2_hits
            assert counter.counts[core, "l1_miss"] == stats.l1_misses


class TestExportersOnRealRuns:
    def test_chrome_trace_from_real_run_validates(self):
        result = _run(telemetry=TelemetryConfig())
        payload = to_chrome_trace(result.telemetry.events, label="mcf")
        validate_chrome_trace(payload)
        assert len(payload["traceEvents"]) > 100

    def test_konata_from_real_run_has_retires(self):
        result = _run(telemetry=TelemetryConfig())
        text = to_konata(result.telemetry.events)
        assert text.startswith("Kanata\t0004\n")
        assert "\tR\t" in text or "\nR\t" in text


class TestStoreInteraction:
    def test_traced_specs_bypass_the_store(self, tmp_path):
        config = RunConfig(telemetry=TelemetryConfig())
        profile = get_benchmark("spec2017", "gcc")
        spec = RunSpec.build(profile, SchemeKind.UNSAFE, 700, config)
        store = ResultStore(tmp_path)
        results, suite = run_specs([spec], store=store)
        assert results[0].telemetry is not None
        assert not suite.records[0].from_store
        assert len(store) == 0  # nothing persisted
        # Running again still simulates (and still carries telemetry).
        again, suite = run_specs([spec], store=store)
        assert not suite.records[0].from_store
        assert again[0].telemetry is not None

    def test_serialization_keeps_metrics_drops_events(self):
        result = _run(telemetry=TelemetryConfig())
        restored = result_from_dict(result_to_dict(result))
        assert restored.telemetry is not None
        assert restored.telemetry.events == []
        assert (
            restored.telemetry.metrics["counters"]
            == result.telemetry.metrics["counters"]
        )
