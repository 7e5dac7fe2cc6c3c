"""The structured event bus.

Every instrumented component holds a reference to a *sink* — either a
live :class:`TelemetryCollector` or the shared :data:`NULL_TELEMETRY`
null object.  An emission site is written as::

    if self.telemetry.enabled:
        self.telemetry.emit(CAT_PIPELINE, "commit", core=..., seq=...)

so the disabled path costs exactly one attribute check and a falsy
branch; no event object is ever constructed.  Components never need to
know the current cycle: the core advances :attr:`TelemetryCollector.now`
once per simulated cycle and every event emitted from within that cycle
(hierarchy calls, policy callbacks, LPT lookups) is stamped with it.

Collected events land in a bounded ring buffer (oldest dropped first)
after per-category filtering and 1-in-N sampling; *sinks* registered
with :meth:`TelemetryCollector.add_sink` see every matching event
**before** sampling, which is how streaming consumers such as the
event-bus leakage timeline (:class:`repro.analysis.timeline.TimelineSink`)
stay exact while the ring buffer stays small.

Event taxonomy (see ``docs/observability.md`` for the full table):

========== ================================================================
category   kinds
========== ================================================================
pipeline   dispatch, issue, complete, commit, squash, defer, mem_violation
cache      l1_hit, l1_miss, l2_hit, l2_miss, llc_hit, llc_miss, evict
coherence  mesi, merge, invalidate
recon      reveal, conceal, reveal_hit, reveal_miss, reveal_dropped,
           lpt_pair, lpt_conflict
security   delay_start, delay_end, nda_defer, stt_taint, observe (one per
           real cache access by a load; ``value`` bit 0 = L1 hit at
           access time, bit 1 = issued under a speculation shadow)
shadow     enter, exit
mem_txn    read_req, write_req, invisible_req, reveal_req (one per
           submitted transaction; ``value`` is the end-to-end latency)
========== ================================================================
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Any, Deque, Dict, FrozenSet, List, Optional

from repro.telemetry.metrics import MetricsRegistry

__all__ = [
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
]

#: Pipeline-stage events (dispatch/issue/complete/commit/squash/defer).
CAT_PIPELINE = "pipeline"
#: Cache array activity (hits, misses, evictions) per level.
CAT_CACHE = "cache"
#: Coherence-protocol activity (MESI grants, merges, invalidations).
CAT_COHERENCE = "coherence"
#: ReCon activity (reveal/conceal, LPT hits and conflicts).
CAT_RECON = "recon"
#: Security-scheme decisions (delays, deferrals, taints).
CAT_SECURITY = "security"
#: Speculation shadows (enter at dispatch, exit at resolution).
CAT_SHADOW = "shadow"
#: Memory transactions (one event per submitted transaction, value=latency).
CAT_MEM_TXN = "mem_txn"

#: Every category the instrumented components emit.
ALL_CATEGORIES: FrozenSet[str] = frozenset(
    {
        CAT_PIPELINE,
        CAT_CACHE,
        CAT_COHERENCE,
        CAT_RECON,
        CAT_SECURITY,
        CAT_SHADOW,
        CAT_MEM_TXN,
    }
)


def parse_filter(text: Optional[str]) -> Optional[FrozenSet[str]]:
    """Parse a ``--trace-filter`` comma list into a category set.

    ``None``/empty/``"all"`` mean "no filtering"; unknown category names
    raise ``ValueError`` so typos fail loudly.
    """
    if text is None:
        return None
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens or tokens == ["all"]:
        return None
    unknown = sorted(set(tokens) - ALL_CATEGORIES)
    if unknown:
        raise ValueError(
            f"unknown event categories {unknown}; "
            f"choose from {sorted(ALL_CATEGORIES)}"
        )
    return frozenset(tokens)


@dataclasses.dataclass(frozen=True)
class TelemetryConfig:
    """Knobs bounding what (and how much) telemetry is collected.

    Attributes:
        sample_rate: keep every Nth matching event in the ring buffer
            (1 = keep all).  Sinks always see every matching event.
        categories: event categories to collect; ``None`` means all.
        ring_buffer: maximum retained events; older events are dropped
            first, which bounds memory on long runs.
        timeline_interval: when set, a leakage-timeline sink rides the
            commit-event stream, sampling every N committed micro-ops.
    """

    sample_rate: int = 1
    categories: Optional[FrozenSet[str]] = None
    ring_buffer: int = 65_536
    timeline_interval: Optional[int] = None

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.ring_buffer <= 0:
            raise ValueError("ring_buffer must be positive")
        if self.timeline_interval is not None and self.timeline_interval <= 0:
            raise ValueError("timeline_interval must be positive")
        if self.categories is not None:
            object.__setattr__(self, "categories", frozenset(self.categories))
            unknown = sorted(set(self.categories) - ALL_CATEGORIES)
            if unknown:
                raise ValueError(f"unknown event categories {unknown}")


class Event:
    """One structured telemetry record.

    ``seq``/``addr`` are -1 when not applicable; ``value`` carries the
    kind-specific payload (delay cycles, access latency, occupancy,
    MESI state ordinal...).  ``uop`` is a transient reference for
    streaming sinks (the leakage timeline needs the committed micro-op);
    it is stripped before events leave the run, so serialized telemetry
    stays compact.
    """

    __slots__ = ("cycle", "category", "kind", "core", "seq", "addr", "value", "uop")

    def __init__(
        self,
        cycle: int,
        category: str,
        kind: str,
        core: int = 0,
        seq: int = -1,
        addr: int = -1,
        value: int = 0,
        uop: Any = None,
    ) -> None:
        self.cycle = cycle
        self.category = category
        self.kind = kind
        self.core = core
        self.seq = seq
        self.addr = addr
        self.value = value
        self.uop = uop

    def as_dict(self) -> Dict[str, int]:
        """JSON-safe dict form (the transient ``uop`` is dropped)."""
        return {
            "cycle": self.cycle,
            "category": self.category,
            "kind": self.kind,
            "core": self.core,
            "seq": self.seq,
            "addr": self.addr,
            "value": self.value,
        }

    def __reduce__(self):
        """Pickle without the transient ``uop`` reference."""
        return (
            Event,
            (
                self.cycle,
                self.category,
                self.kind,
                self.core,
                self.seq,
                self.addr,
                self.value,
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Event {self.category}/{self.kind} @{self.cycle}"
            f" core={self.core} seq={self.seq}>"
        )


@dataclasses.dataclass
class TelemetryResult:
    """Everything one run's telemetry produced, in a picklable form.

    ``events`` is the (possibly sampled and ring-bounded) event list in
    emission order; ``metrics`` is the registry snapshot whose counter
    values equal the run's :class:`~repro.common.stats.StatSet` fields;
    ``timeline`` is the event-bus leakage timeline when one was enabled.
    """

    events: List[Event] = dataclasses.field(default_factory=list)
    metrics: Dict[str, Any] = dataclasses.field(default_factory=dict)
    timeline: Optional[Any] = None
    dropped_events: int = 0
    emitted_events: int = 0

    @classmethod
    def from_metrics_dict(cls, metrics: Dict[str, Any]) -> "TelemetryResult":
        """A light result carrying only a stored metrics snapshot.

        Used when rebuilding results from serialized form: the event
        list and timeline are not persisted (they live in the exported
        trace files), so only the metric values come back.
        """
        return cls(metrics=dict(metrics))


class _NullTelemetry:
    """The disabled sink: emission sites check ``enabled`` and move on.

    It still accepts :meth:`emit` / :meth:`observe` calls (as no-ops) so
    a component that forgets the ``enabled`` guard stays correct — the
    guard is a performance idiom, not a safety requirement.
    """

    __slots__ = ()

    enabled = False
    now = 0

    def emit(self, *args: Any, **kwargs: Any) -> None:
        """Ignore an event emission (disabled sink)."""

    def observe(self, *args: Any, **kwargs: Any) -> None:
        """Ignore a histogram observation (disabled sink)."""


#: Shared null-object sink every instrumented component defaults to.
NULL_TELEMETRY = _NullTelemetry()


class TelemetryCollector:
    """A live event bus + metrics registry for one simulated system.

    Not thread-safe; in multi-process runs each worker owns its own
    collector and results are merged deterministically in spec order by
    the experiment engine.
    """

    enabled = True

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config if config is not None else TelemetryConfig()
        #: Current simulated cycle; the core advances this every step so
        #: cycle-less components (LPT, LSQ, policies) emit correctly.
        self.now = 0
        self.metrics = MetricsRegistry.with_default_instruments()
        self.dropped_events = 0
        self.emitted_events = 0
        self._sample_rate = self.config.sample_rate
        self._categories = self.config.categories
        self._sample_tick = 0
        self._events: Deque[Event] = collections.deque(
            maxlen=self.config.ring_buffer
        )
        self._sinks: List[Any] = []

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def emit(
        self,
        category: str,
        kind: str,
        core: int = 0,
        seq: int = -1,
        addr: int = -1,
        value: int = 0,
        uop: Any = None,
    ) -> None:
        """Record one event (category filter, sinks, sampling, ring)."""
        if self._categories is not None and category not in self._categories:
            return
        self.emitted_events += 1
        event = Event(self.now, category, kind, core, seq, addr, value, uop)
        for sink in self._sinks:
            sink.on_event(event)
        self._sample_tick += 1
        if self._sample_tick >= self._sample_rate:
            self._sample_tick = 0
            if len(self._events) == self._events.maxlen:
                self.dropped_events += 1
            self._events.append(event)

    def observe(self, histogram: str, value: float) -> None:
        """Record ``value`` into the named default histogram."""
        self.metrics.histogram(histogram).observe(value)

    def add_sink(self, sink: Any) -> None:
        """Attach a streaming consumer (an object with ``on_event``)."""
        self._sinks.append(sink)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def events(self) -> List[Event]:
        """The retained events, oldest first."""
        return list(self._events)

    def finalize(self, stats: Any = None) -> TelemetryResult:
        """Snapshot the run's telemetry (optionally back-filling stats).

        ``stats`` is the run's final :class:`~repro.common.stats.StatSet`;
        when given, every stat field is copied into a same-named metrics
        counter so exported metric values equal the reported counters.
        """
        if stats is not None:
            self.metrics.backfill_statset(stats)
        timeline = None
        for sink in self._sinks:
            result = getattr(sink, "timeline", None)
            if callable(result):
                timeline = result()
        events = list(self._events)
        for event in events:
            event.uop = None  # strip transient references before shipping
        return TelemetryResult(
            events=events,
            metrics=self.metrics.as_dict(),
            timeline=timeline,
            dropped_events=self.dropped_events,
            emitted_events=self.emitted_events,
        )
