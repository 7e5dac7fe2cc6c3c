"""Structured telemetry: event tracing, metrics, and trace exporters.

The simulator's end-of-run :class:`~repro.common.stats.StatSet` answers
"how many" — this package answers "which, when, and why".  It has three
parts:

* :mod:`repro.telemetry.events` — a low-overhead structured event bus.
  Pipeline stages, the memory hierarchy, and the security schemes emit
  typed :class:`Event` records into a :class:`TelemetryCollector`; when
  telemetry is disabled (the default) every emission site degrades to a
  single attribute check against the shared :data:`NULL_TELEMETRY`
  null-object sink, so the hot path stays unchanged.
* :mod:`repro.telemetry.metrics` — a registry of counters, gauges, and
  fixed-bucket histograms (delay-cycle distribution, LPT occupancy,
  reveal latency, per-set cache pressure) that supersets the flat
  :class:`~repro.common.stats.StatSet` and is back-filled from it at the
  end of a run, so metric values always equal the stats counters.
* :mod:`repro.telemetry.export` — exporters: Chrome trace-event JSON
  (``chrome://tracing`` / Perfetto), a Konata-style per-uop pipeline
  view, a leakage-timeline CSV, and a metrics JSON dump.

Enable collection through :class:`TelemetryConfig` on
:class:`~repro.sim.config.RunConfig`, or the CLI's ``--trace`` /
``--trace-filter`` / ``--metrics-out`` flags.
"""

from repro._lazy import lazy_exports

# The exporters load only for the commands that write or read a trace.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.telemetry.events": (
            "ALL_CATEGORIES",
            "CAT_CACHE",
            "CAT_COHERENCE",
            "CAT_MEM_TXN",
            "CAT_PIPELINE",
            "CAT_RECON",
            "CAT_SECURITY",
            "CAT_SHADOW",
            "Event",
            "NULL_TELEMETRY",
            "TelemetryCollector",
            "TelemetryConfig",
            "TelemetryResult",
            "parse_filter",
        ),
        "repro.telemetry.metrics": (
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
        ),
        "repro.telemetry.export": (
            "leakage_csv",
            "metrics_summary_rows",
            "metrics_to_json",
            "to_chrome_trace",
            "to_konata",
            "trace_summary_rows",
            "validate_chrome_trace",
        ),
    },
)

__all__ = [
    "ALL_CATEGORIES",
    "CAT_CACHE",
    "CAT_COHERENCE",
    "CAT_MEM_TXN",
    "CAT_PIPELINE",
    "CAT_RECON",
    "CAT_SECURITY",
    "CAT_SHADOW",
    "Counter",
    "Event",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "TelemetryCollector",
    "TelemetryConfig",
    "TelemetryResult",
    "leakage_csv",
    "metrics_summary_rows",
    "metrics_to_json",
    "parse_filter",
    "to_chrome_trace",
    "to_konata",
    "trace_summary_rows",
    "validate_chrome_trace",
]
