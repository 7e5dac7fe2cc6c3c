"""Deterministic driver for the pipeline parity goldens.

The cycle loop (``repro.core.pipeline.Core``) must reproduce the
reference loop it replaced *exactly*: the same cycle count and the same
:class:`~repro.common.stats.StatSet`, field-for-field, on every cell
below, and — on traced cells — the same telemetry event stream, event
for event.  This module holds the stimulus shared by

* ``scripts/capture_pipeline_golden.py`` — run against the reference
  loop to produce the checked-in goldens
  (``tests/data/pipeline_stats_golden.json`` and
  ``tests/data/pipeline_reference_golden.json``), and
* ``tests/core/test_hotpath_parity.py`` — re-runs the same cells and
  compares every stat field and every event digest.

Nothing here may depend on wall-clock time, hashing order, or any other
non-determinism: the same code must produce the same record stream on
both sides of a change to the loop.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from typing import Dict, List, Optional, Tuple

from repro.common.params import MemoryTimingParams, SystemParams
from repro.common.types import SchemeKind
from repro.sim.config import RunConfig
from repro.sim.runner import TraceCache, run_benchmark
from repro.sim.system import System
from repro.telemetry.events import TelemetryConfig
from repro.workloads import get_benchmark

__all__ = [
    "BOUNDED_KNOBS",
    "CELLS",
    "GOLDEN_PATH",
    "REFERENCE_CELLS",
    "REFERENCE_GOLDEN_PATH",
    "SWEEP_CELLS",
    "TRACED_CELLS",
    "cell_key",
    "run_cells",
    "run_one",
    "run_reference_cells",
    "run_traced",
]

#: Repo-relative location of the checked-in 17-cell golden.
GOLDEN_PATH = "tests/data/pipeline_stats_golden.json"

#: Repo-relative location of the reference-loop golden (stats of the
#: former live A/B cells plus the traced event-stream digests).
REFERENCE_GOLDEN_PATH = "tests/data/pipeline_reference_golden.json"

#: A bounded memory-timing knob: ``(MemoryTimingParams field, value)``.
Bound = Optional[Tuple[str, int]]

#: (suite, bench, scheme, length, threads) cells covering every policy
#: family (taint gating, deferred broadcast, miss gating, invisible
#: speculation, SPT DIFT), single- and multi-core, with the default
#: 40% detailed warm-up in effect.
CELLS: List[Tuple[str, str, SchemeKind, int, int]] = [
    ("spec2017", "mcf", SchemeKind.UNSAFE, 6000, 1),
    ("spec2017", "mcf", SchemeKind.STT, 6000, 1),
    ("spec2017", "mcf", SchemeKind.STT_RECON, 6000, 1),
    ("spec2017", "mcf", SchemeKind.NDA, 6000, 1),
    ("spec2017", "mcf", SchemeKind.NDA_RECON, 6000, 1),
    ("spec2017", "mcf", SchemeKind.DOM, 4000, 1),
    ("spec2017", "mcf", SchemeKind.DOM_RECON, 4000, 1),
    ("spec2017", "mcf", SchemeKind.INVISPEC, 4000, 1),
    ("spec2017", "mcf", SchemeKind.INVISPEC_RECON, 4000, 1),
    ("spec2017", "gcc", SchemeKind.UNSAFE, 6000, 1),
    ("spec2017", "gcc", SchemeKind.STT_RECON, 6000, 1),
    ("spec2017", "gcc", SchemeKind.STT_SPT, 4000, 1),
    ("spec2017", "omnetpp", SchemeKind.NDA_RECON, 6000, 1),
    ("spec2017", "xalancbmk", SchemeKind.STT_RECON, 6000, 1),
    ("parsec", "canneal", SchemeKind.UNSAFE, 4000, 2),
    ("parsec", "canneal", SchemeKind.STT_RECON, 4000, 2),
    ("parsec", "streamcluster", SchemeKind.NDA_RECON, 4000, 4),
]

#: The bounded-timing cells: each bounds one knob, on 2-thread canneal
#: under STT+ReCon, paired with the stall counter the bound must drive.
BOUNDED_KNOBS: List[Tuple[str, int, str]] = [
    ("port_width", 1, "port_stall_cycles"),
    ("mshr_entries", 2, "mshr_stall_cycles"),
    ("noc_link_width", 1, "noc_queue_cycles"),
    ("dram_queue_depth", 1, "dram_queue_cycles"),
]

SWEEP_BENCHES = ("mcf", "gcc", "omnetpp", "xalancbmk")
SWEEP_SCHEMES = (
    SchemeKind.UNSAFE,
    SchemeKind.STT,
    SchemeKind.STT_RECON,
    SchemeKind.NDA_RECON,
    SchemeKind.DOM_RECON,
    SchemeKind.INVISPEC,
)


_rng = random.Random(2020)

#: Every bench x scheme pair once, at a seeded length in [400, 1600].
SWEEP_CELLS: List[Tuple[str, str, SchemeKind, int, int, Bound]] = [
    ("spec2017", bench, scheme, _rng.randint(400, 1600), 1, None)
    for bench in SWEEP_BENCHES
    for scheme in SWEEP_SCHEMES
]


#: (suite, bench, scheme, length, threads, bound) cells whose stats were
#: captured from the reference loop: the single-core A/B cells, the
#: 2-thread cell, the four bounded-timing cells, and the 24-pair sweep.
REFERENCE_CELLS: List[Tuple[str, str, SchemeKind, int, int, Bound]] = [
    ("spec2017", "mcf", SchemeKind.UNSAFE, 3000, 1, None),
    ("spec2017", "mcf", SchemeKind.STT_RECON, 3000, 1, None),
    ("spec2017", "mcf", SchemeKind.DOM_RECON, 3000, 1, None),
    ("parsec", "canneal", SchemeKind.STT_RECON, 2400, 2, None),
    *[
        ("parsec", "canneal", SchemeKind.STT_RECON, 2400, 2, (knob, value))
        for knob, value, _ in BOUNDED_KNOBS
    ],
    *SWEEP_CELLS,
]

#: Traced cells whose full telemetry event stream is pinned by digest.
TRACED_CELLS: List[Tuple[str, str, SchemeKind, int, int, Bound]] = [
    ("spec2017", "mcf", SchemeKind.STT_RECON, 2000, 1, None),
    ("spec2017", "gcc", SchemeKind.NDA_RECON, 2000, 1, None),
    ("parsec", "canneal", SchemeKind.STT_RECON, 1600, 2, None),
    ("parsec", "canneal", SchemeKind.STT_RECON, 1600, 2, ("mshr_entries", 2)),
]


def cell_key(
    suite: str,
    bench: str,
    scheme: SchemeKind,
    length: int,
    threads: int,
    bound: Bound = None,
) -> str:
    key = f"{suite}/{bench}/{scheme.value}/len{length}/t{threads}"
    if bound is not None:
        key += "/%s=%d" % bound
    return key


def bounded_params(bound: Bound) -> Optional[SystemParams]:
    """Table-2 defaults with one memory-timing knob bounded (or None)."""
    if bound is None:
        return None
    knob, value = bound
    base = SystemParams()
    timing = MemoryTimingParams(**{knob: value})
    return dataclasses.replace(
        base, memory=dataclasses.replace(base.memory, timing=timing)
    )


def run_one(
    suite: str,
    bench: str,
    scheme: SchemeKind,
    length: int,
    threads: int,
    bound: Bound = None,
    *,
    cache: TraceCache,
) -> Dict[str, object]:
    """Run one cell; returns its JSON-safe record (cycles + every stat)."""
    profile = get_benchmark(suite, bench)
    result = run_benchmark(
        profile,
        scheme,
        length,
        config=RunConfig(
            threads=threads, cache=cache, params=bounded_params(bound)
        ),
    )
    return {
        "cycles": result.cycles,
        "stats": result.stats.as_dict(),
        "per_core": [s.as_dict() for s in result.per_core],
    }


class _DigestSink:
    """Hashes every emitted event (sinks see all events, unsampled)."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.count = 0

    def on_event(self, event) -> None:
        self.count += 1
        self._hash.update(
            repr(
                (
                    event.cycle,
                    event.category,
                    event.kind,
                    event.core,
                    event.seq,
                    event.addr,
                    event.value,
                )
            ).encode()
        )

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def run_traced(
    suite: str,
    bench: str,
    scheme: SchemeKind,
    length: int,
    threads: int,
    bound: Bound = None,
    *,
    cache: TraceCache,
) -> Dict[str, object]:
    """Run one cell traced; returns digests of its events and metrics.

    ``events`` hashes the full stream (cycle, category, kind, core, seq,
    addr, value) in emission order; ``metrics`` hashes the finalized
    registry (histograms fed by ``observe`` plus back-filled counters).
    """
    profile = get_benchmark(suite, bench)
    config = RunConfig(threads=threads, cache=cache, params=bounded_params(bound))
    system = System(
        config.resolved_params(),
        cache.get(profile, threads, length),
        scheme,
        warmup_uops=config.resolved_warmup(length),
        telemetry=TelemetryConfig(ring_buffer=1),
    )
    sink = _DigestSink()
    system.telemetry.add_sink(sink)
    result = system.run()
    metrics = json.dumps(result.telemetry.metrics, sort_keys=True)
    return {
        "cycles": result.cycles,
        "events": sink.count,
        "event_digest": sink.hexdigest(),
        "metrics_digest": hashlib.sha256(metrics.encode()).hexdigest(),
    }


def run_cells() -> Dict[str, Dict[str, object]]:
    """Run every golden cell; key -> record, in deterministic order."""
    cache = TraceCache()
    return {
        cell_key(*cell): run_one(*cell, cache=cache) for cell in CELLS
    }


def run_reference_cells() -> Dict[str, Dict[str, Dict[str, object]]]:
    """Run the reference-golden cells: stats records and event digests."""
    cache = TraceCache()
    return {
        "runs": {
            cell_key(*cell): run_one(*cell, cache=cache)
            for cell in REFERENCE_CELLS
        },
        "traced": {
            cell_key(*cell): run_traced(*cell, cache=cache)
            for cell in TRACED_CELLS
        },
    }
