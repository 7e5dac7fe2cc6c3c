"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The flat :class:`~repro.common.stats.StatSet` is the simulator's source
of truth for "how many"; this registry supersets it with instruments a
flat bag cannot hold — distributions (delay cycles, access latencies,
table occupancies) and point-in-time gauges.  At the end of a run the
registry is back-filled from the final ``StatSet``
(:meth:`MetricsRegistry.backfill_statset`), so every exported counter
value equals the corresponding stats field by construction.

Instruments are deliberately tiny — plain Python attributes, no locks,
no label sets — because they sit on the simulator's hot path when
telemetry is enabled and must cost nothing when it is not (emission
sites are guarded by the null-object check in
:mod:`repro.telemetry.events`).
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_HISTOGRAMS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "bucket_quantile",
]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the count."""
        self.value += amount

    def set(self, value: int) -> None:
        """Overwrite the count (used by the StatSet back-fill)."""
        self.value = value


class Gauge:
    """A point-in-time value that also remembers its extremes."""

    __slots__ = ("name", "value", "min", "max", "_seen")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.min = 0.0
        self.max = 0.0
        self._seen = False

    def set(self, value: float) -> None:
        """Record the current value (tracking min/max)."""
        self.value = value
        if not self._seen:
            self.min = self.max = value
            self._seen = True
        else:
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value


def bucket_quantile(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """Approximate ``q``-quantile of bucket counts: the upper bound of
    the bucket holding it (the overflow bucket clamps to the last bound).

    ``counts`` has one entry per bound plus the overflow bucket, as a
    :class:`Histogram` keeps them and :meth:`Histogram.as_dict` writes
    them.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    seen = 0
    for index, count in enumerate(counts):
        seen += count
        if seen >= target and count:
            return bounds[min(index, len(bounds) - 1)]
    return bounds[-1]


class Histogram:
    """A fixed-bucket histogram with an implicit overflow bucket.

    ``bounds`` are inclusive upper edges; an observation lands in the
    first bucket whose bound is >= the value, or in the overflow bucket.
    Fixed buckets keep observation O(log n) with zero allocation, which
    is what a per-load hot path needs.
    """

    __slots__ = ("name", "bounds", "counts", "total", "sum")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = list(bounds)
        if ordered != sorted(ordered):
            raise ValueError("histogram bounds must be sorted ascending")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(ordered)
        self.counts: List[int] = [0] * (len(ordered) + 1)  # + overflow
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        if self.total == 0:
            return 0.0
        return self.sum / self.total

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (upper bound of the hit bucket)."""
        return bucket_quantile(self.bounds, self.counts, q)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe encoding (bounds, per-bucket counts, total, sum)."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
            "mean": self.mean,
        }


def _power_buckets(limit: int) -> List[float]:
    """0, 1, 2, 4, ... power-of-two bucket edges up to ``limit``."""
    bounds: List[float] = [0.0]
    edge = 1
    while edge <= limit:
        bounds.append(float(edge))
        edge *= 2
    return bounds


#: Name -> bucket bounds of the histograms the collector pre-registers.
DEFAULT_HISTOGRAMS: Dict[str, Tuple[float, ...]] = {
    # Cycles a load (or store) waited at issue because of the scheme.
    "delay_cycles": tuple(_power_buckets(4096)),
    # End-to-end latency of demand loads, by access.
    "load_latency": tuple(_power_buckets(1024)),
    # Latency of loads that found their word revealed (defense lifted).
    "reveal_latency": tuple(_power_buckets(1024)),
    # Active LPT entries observed at each load commit.
    "lpt_occupancy": tuple(float(x) for x in (0, 8, 16, 32, 64, 128, 256, 512)),
    # Resident lines in the L1 set a fill lands in (pressure proxy).
    "l1_set_pressure": tuple(float(x) for x in range(0, 17)),
    # Outstanding MSHR entries of the requesting core, sampled per
    # memory transaction.
    "mshr_occupancy": tuple(float(x) for x in (0, 1, 2, 4, 8, 16, 32, 64)),
    # Interconnect messages queued for a link slot, sampled per
    # memory transaction (always 0 with unbounded links).
    "noc_queue_depth": tuple(float(x) for x in (0, 1, 2, 4, 8, 16, 32, 64)),
}


@dataclasses.dataclass
class MetricsRegistry:
    """A named bag of instruments with lazy creation.

    ``counter``/``gauge``/``histogram`` return the existing instrument
    or create it, so emission sites never need registration ceremony.
    """

    counters: Dict[str, Counter] = dataclasses.field(default_factory=dict)
    gauges: Dict[str, Gauge] = dataclasses.field(default_factory=dict)
    histograms: Dict[str, Histogram] = dataclasses.field(default_factory=dict)

    @classmethod
    def with_default_instruments(cls) -> "MetricsRegistry":
        """A registry pre-seeded with the standard histograms."""
        registry = cls()
        for name, bounds in DEFAULT_HISTOGRAMS.items():
            registry.histogram(name, bounds)
        return registry

    def counter(self, name: str) -> Counter:
        """The named counter (created on first use)."""
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The named gauge (created on first use)."""
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        """The named histogram (created on first use).

        ``bounds`` is required on first creation unless the name is one
        of the :data:`DEFAULT_HISTOGRAMS`.
        """
        instrument = self.histograms.get(name)
        if instrument is None:
            if bounds is None:
                bounds = DEFAULT_HISTOGRAMS.get(name)
            if bounds is None:
                raise KeyError(
                    f"histogram {name!r} has no default buckets; pass bounds"
                )
            instrument = self.histograms[name] = Histogram(name, bounds)
        return instrument

    def backfill_statset(self, stats: Any) -> None:
        """Copy every field of a ``StatSet`` into a same-named counter.

        Run after the simulation finishes: whatever the components
        counted live, the exported counters end up exactly equal to the
        authoritative stats (the acceptance invariant of the metrics
        dump).  Works with any object exposing ``as_dict()``.
        """
        for name, value in stats.as_dict().items():
            self.counter(name).set(int(value))

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot of every instrument."""
        return {
            "counters": {
                name: instrument.value
                for name, instrument in sorted(self.counters.items())
            },
            "gauges": {
                name: {
                    "value": instrument.value,
                    "min": instrument.min,
                    "max": instrument.max,
                }
                for name, instrument in sorted(self.gauges.items())
            },
            "histograms": {
                name: instrument.as_dict()
                for name, instrument in sorted(self.histograms.items())
            },
        }
