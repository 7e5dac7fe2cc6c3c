"""The cells of the sampled-estimate golden and how they are recorded.

Shared by

* ``scripts/capture_sampled_golden.py``, which runs every cell the way
  ``benchmarks/bench_sampling.py`` does (one trace cache per benchmark,
  schemes in order) and writes ``tests/data/sampled_estimates_golden.json``;
* ``tests/sampling/test_sampled_golden.py``, which replays the same
  cells on one trace cache in diagonal order and compares every field.

The cells are the twelve of ``bench_sampling.py`` at its 12k default
plus one short 4-thread PARSEC cell, which covers the functional
warmer's round-robin walk over several cores and a multicore restore.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.common.types import SchemeKind
from repro.sampling import SamplingConfig
from repro.sim.config import RunConfig
from repro.sim.runner import TraceCache, run_benchmark
from repro.workloads import get_benchmark

__all__ = ["CELLS", "GOLDEN_PATH", "capture_golden", "cell_record"]

GOLDEN_PATH = "tests/data/sampled_estimates_golden.json"

SPEC_LENGTH = 12_000
SPEC_BENCHES = ("mcf", "gcc", "xalancbmk")
SPEC_SCHEMES = (
    SchemeKind.UNSAFE,
    SchemeKind.STT,
    SchemeKind.STT_RECON,
    SchemeKind.NDA_RECON,
)

#: ``(suite, benchmark, threads, length, scheme)`` per cell, in the
#: order ``bench_sampling.py`` runs them.
CELLS: List[Tuple[str, str, int, int, SchemeKind]] = [
    ("spec2017", bench, 1, SPEC_LENGTH, scheme)
    for bench in SPEC_BENCHES
    for scheme in SPEC_SCHEMES
] + [("parsec", "canneal", 4, 2_000, SchemeKind.STT_RECON)]


def cell_label(cell: Tuple[str, str, int, int, SchemeKind]) -> str:
    suite, bench, threads, length, scheme = cell
    return "%s/%s/%dt/%d/%s" % (suite, bench, threads, length, scheme.value)


def cell_record(
    cell: Tuple[str, str, int, int, SchemeKind], cache: TraceCache
) -> Dict[str, Any]:
    """Every estimate field, the cycles and every counter of one cell."""
    suite, bench, threads, length, scheme = cell
    result = run_benchmark(
        get_benchmark(suite, bench),
        scheme,
        length,
        config=RunConfig(
            threads=threads, cache=cache, sampling=SamplingConfig()
        ),
    )
    return {
        "estimate": result.sampling.as_dict(),
        "cycles": result.cycles,
        "stats": result.stats.as_dict(),
        "per_core": [stats.as_dict() for stats in result.per_core],
    }


def capture_golden() -> Dict[str, Any]:
    """Run every cell in bench order, one trace cache per benchmark."""
    records: Dict[str, Any] = {}
    caches: Dict[Tuple[str, str, int], TraceCache] = {}
    for cell in CELLS:
        cache = caches.setdefault(cell[:3], TraceCache())
        records[cell_label(cell)] = cell_record(cell, cache)
    return {"sampling": SamplingConfig().spec(), "cells": records}
