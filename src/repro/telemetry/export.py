"""Telemetry exporters: Chrome trace JSON, Konata, CSV, metrics JSON.

Three consumers, three formats:

* :func:`to_chrome_trace` renders events as Chrome trace-event JSON —
  load the file in ``chrome://tracing`` or https://ui.perfetto.dev to
  scrub through a run cycle by cycle.  ``ts`` is the simulated cycle
  (one "microsecond" per cycle), ``pid`` distinguishes runs/cells,
  ``tid`` distinguishes event categories.  :func:`validate_chrome_trace`
  checks a payload against the subset of the spec we emit (CI gates on
  it).
* :func:`to_konata` renders the per-uop pipeline view consumed by the
  Konata pipeline visualizer (https://github.com/shioyadan/Konata):
  every dispatched micro-op becomes a row with Ds/Is/Ex stage spans and
  its retire/flush point.
* :func:`leakage_csv` renders a
  :class:`~repro.analysis.timeline.LeakageTimeline` as CSV for
  spreadsheet/matplotlib post-processing.

:func:`metrics_to_json` dumps a metrics registry snapshot, and
:func:`trace_summary_rows` condenses a Chrome trace back into the table
the ``repro telemetry`` subcommand prints.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.telemetry.metrics import bucket_quantile

__all__ = [
    "CONTENTION_HISTOGRAMS",
    "leakage_csv",
    "metrics_summary_rows",
    "metrics_to_json",
    "to_chrome_trace",
    "to_konata",
    "trace_summary_rows",
    "validate_chrome_trace",
]

#: Chrome trace-event phases this exporter produces.
_PHASES = ("X", "i", "M")

#: Events rendered as durations (ph=X) instead of instants; the event's
#: ``value`` is the duration in cycles ending at ``event.cycle``.
_DURATION_KINDS = {"delay_end"}


def to_chrome_trace(
    events: Iterable[Any],
    pid: int = 0,
    label: Optional[str] = None,
) -> Dict[str, Any]:
    """Render events as a Chrome trace-event JSON payload.

    ``pid`` namespaces this event stream (one per run/grid cell when
    merging several); ``label`` becomes the process name shown in the
    viewer.  Returns the payload dict — ``json.dump`` it yourself.
    """
    trace_events: List[Dict[str, Any]] = []
    if label is not None:
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
    for event in events:
        entry: Dict[str, Any] = {
            "name": event.kind,
            "cat": event.category,
            "pid": pid,
            "tid": _category_tid(event.category),
            "args": {
                "core": event.core,
                "seq": event.seq,
                "addr": event.addr,
                "value": event.value,
            },
        }
        if event.kind in _DURATION_KINDS and event.value > 0:
            entry["ph"] = "X"
            entry["ts"] = event.cycle - event.value
            entry["dur"] = event.value
        else:
            entry["ph"] = "i"
            entry["ts"] = event.cycle
            entry["s"] = "t"
        trace_events.append(entry)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ns",
        "otherData": {"generator": "repro.telemetry", "time_unit": "cycle"},
    }


#: Stable category -> tid mapping so viewer rows keep their order.
_TID_ORDER = ("pipeline", "cache", "coherence", "recon", "security", "shadow")


def _category_tid(category: str) -> int:
    try:
        return 1 + _TID_ORDER.index(category)
    except ValueError:
        return 1 + len(_TID_ORDER)


def validate_chrome_trace(payload: Any) -> None:
    """Raise ``ValueError`` unless ``payload`` is a valid trace we emit.

    Checks the JSON-object layout of the trace-event format: a
    ``traceEvents`` list whose entries carry ``name``/``ph``/``pid``/
    ``tid``, a non-negative ``ts`` for non-metadata events, and a
    non-negative ``dur`` for complete (``X``) events.
    """
    if not isinstance(payload, dict):
        raise ValueError("trace payload must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace payload must contain a traceEvents list")
    for index, entry in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} is not an object")
        if not isinstance(entry.get("name"), str) or not entry["name"]:
            raise ValueError(f"{where} lacks a name")
        phase = entry.get("ph")
        if phase not in _PHASES:
            raise ValueError(f"{where} has unsupported phase {phase!r}")
        for field in ("pid", "tid"):
            if not isinstance(entry.get(field), int):
                raise ValueError(f"{where} lacks an integer {field}")
        if phase != "M":
            ts = entry.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise ValueError(f"{where} lacks a non-negative ts")
        if phase == "X":
            dur = entry.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{where} (X) lacks a non-negative dur")


# ----------------------------------------------------------------------
# Konata pipeline view
# ----------------------------------------------------------------------

#: Pipeline event kind -> (stage entered, stage left) for the Konata view.
_KONATA_STAGES = {
    "dispatch": ("Ds", None),
    "issue": ("Is", "Ds"),
    "complete": ("Ex", "Is"),
}


def to_konata(events: Iterable[Any]) -> str:
    """Render pipeline events as a Konata (Kanata 0004) pipeline log.

    Only ``pipeline``-category events contribute; each dispatched
    micro-op becomes one row whose stages are Ds (dispatched, waiting to
    issue), Is (issued, executing), and Ex (completed, waiting to
    commit), closed by a retire (commit) or flush (squash) record.
    Events for micro-ops whose dispatch fell out of the ring buffer are
    skipped — a partial window still renders.
    """
    steps: List[Tuple[int, int, int, str]] = []  # (cycle, order, seq, op)
    known: Dict[int, int] = {}  # seq -> uid
    labels: Dict[int, str] = {}
    order = 0
    for event in events:
        if event.category != "pipeline" or event.seq < 0:
            continue
        if event.kind == "dispatch":
            if event.seq not in known:
                known[event.seq] = len(known)
                labels[event.seq] = (
                    f"#{event.seq} core{event.core} pc={event.addr:#x}"
                )
                steps.append((event.cycle, order, event.seq, "dispatch"))
                order += 1
        elif event.kind in ("issue", "complete", "commit", "squash"):
            if event.seq in known:
                steps.append((event.cycle, order, event.seq, event.kind))
                order += 1
    steps.sort(key=lambda s: (s[0], s[1]))

    lines = ["Kanata\t0004"]
    current: Optional[int] = None
    retired = 0
    for cycle, _, seq, op in steps:
        if current is None:
            lines.append(f"C=\t{cycle}")
            current = cycle
        elif cycle > current:
            lines.append(f"C\t{cycle - current}")
            current = cycle
        uid = known[seq]
        if op == "dispatch":
            lines.append(f"I\t{uid}\t{seq}\t0")
            lines.append(f"L\t{uid}\t0\t{labels[seq]}")
            lines.append(f"S\t{uid}\t0\tDs")
        elif op in ("issue", "complete"):
            stage, prev = _KONATA_STAGES[op]
            if prev is not None:
                lines.append(f"E\t{uid}\t0\t{prev}")
            lines.append(f"S\t{uid}\t0\t{stage}")
        elif op == "commit":
            lines.append(f"E\t{uid}\t0\tEx")
            lines.append(f"R\t{uid}\t{retired}\t0")
            retired += 1
        else:  # squash
            lines.append(f"R\t{uid}\t{retired}\t1")
            retired += 1
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# leakage timeline CSV + metrics JSON
# ----------------------------------------------------------------------


def leakage_csv(timeline: Any) -> str:
    """Render a :class:`LeakageTimeline` as a three-column CSV."""
    lines = ["uops,dift_leaked_words,pair_leaked_words"]
    for index, dift, pairs in timeline.samples:
        lines.append(f"{index},{dift},{pairs}")
    return "\n".join(lines) + "\n"


def metrics_to_json(metrics: Any, indent: Optional[int] = 2) -> str:
    """Serialize a metrics snapshot (registry or its ``as_dict``) to JSON."""
    if hasattr(metrics, "as_dict"):
        metrics = metrics.as_dict()
    return json.dumps(metrics, indent=indent, sort_keys=True)


# ----------------------------------------------------------------------
# trace summary (the `repro telemetry` subcommand)
# ----------------------------------------------------------------------


#: Histograms the `repro telemetry` summary always reports, even when
#: empty — the contention instruments of the memory transaction engine.
CONTENTION_HISTOGRAMS: Tuple[str, ...] = ("mshr_occupancy", "noc_queue_depth")


def metrics_summary_rows(metrics: Any) -> List[List[str]]:
    """Condense a metrics dump into per-histogram summary rows.

    Accepts a :class:`~repro.telemetry.metrics.MetricsRegistry`, its
    ``as_dict()`` / JSON form, or the per-cell ``{label: snapshot}``
    mapping the CLI's ``--metrics-out`` writes (cell labels are then
    prefixed onto histogram names).  Returns
    ``[histogram, samples, mean, p50, p99]`` rows for every histogram
    with observations, plus the :data:`CONTENTION_HISTOGRAMS`
    unconditionally (an all-zero MSHR-occupancy row is itself a signal:
    the run was contention-free).  Pair with
    :func:`repro.sim.reporting.format_table`.
    """
    if hasattr(metrics, "as_dict"):
        metrics = metrics.as_dict()
    if "histograms" in metrics or "counters" in metrics:
        cells = [("", metrics)]
    else:  # --metrics-out nests one snapshot per grid cell
        cells = [
            (f"{label}: ", snapshot)
            for label, snapshot in sorted(metrics.items())
            if isinstance(snapshot, dict)
        ]
    rows = []
    for prefix, snapshot in cells:
        histograms: Dict[str, Any] = snapshot.get("histograms", {})
        for name in sorted(histograms):
            data = histograms[name]
            total = int(data.get("total", 0))
            if total == 0 and name not in CONTENTION_HISTOGRAMS:
                continue
            bounds = [float(b) for b in data.get("bounds", [0.0])]
            counts = [int(c) for c in data.get("counts", [])]
            mean = float(data.get("mean", 0.0))
            rows.append(
                [
                    prefix + name,
                    str(total),
                    f"{mean:.2f}",
                    f"{bucket_quantile(bounds, counts, 0.5):.0f}",
                    f"{bucket_quantile(bounds, counts, 0.99):.0f}",
                ]
            )
    return rows


def trace_summary_rows(payload: Dict[str, Any]) -> List[List[str]]:
    """Condense a Chrome trace payload into per-kind summary rows.

    Returns ``[category, kind, count, first-cycle, last-cycle]`` rows
    sorted by descending count — pair with
    :func:`repro.sim.reporting.format_table`.
    """
    buckets: Dict[Tuple[str, str], List[float]] = {}
    for entry in payload.get("traceEvents", []):
        if entry.get("ph") == "M":
            continue
        key = (entry.get("cat", "?"), entry.get("name", "?"))
        buckets.setdefault(key, []).append(float(entry.get("ts", 0)))
    rows = []
    for (category, kind), stamps in sorted(
        buckets.items(), key=lambda item: (-len(item[1]), item[0])
    ):
        rows.append(
            [
                category,
                kind,
                str(len(stamps)),
                f"{min(stamps):.0f}",
                f"{max(stamps):.0f}",
            ]
        )
    return rows
