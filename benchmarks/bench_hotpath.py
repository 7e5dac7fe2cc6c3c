"""Hot-path throughput gate — untraced vs traced cycle loop.

Times the same grid cells untraced and traced (a live telemetry
collector on the same cycle loop), on pre-built traces so only
simulation is inside the timed region, and writes the measurements to
``results/BENCH_hotpath.json``: uops/s per cell per mode, the
untraced/traced ratio, and a per-phase profile breakdown of the untraced
run (dispatch / issue / commit / events / memory).

The regression gate compares the measured *ratio* — not absolute
uops/s, which tracks the host machine — against the committed baseline
(``benchmarks/data/bench_hotpath_baseline.json``) and fails on a >10%
regression.  Both modes run the same loop on the same host, so the
ratio falls when the untraced path picks up work it should skip (a
telemetry hook that is not guarded, a submit-free path lost).  CI's
``bench-hotpath`` job runs this ratio gate on every push and uploads
the JSON as the ``bench-hotpath`` artifact.

The JSON also records what a cached trace costs: ``trace_bytes_per_uop``
and ``decode_bytes_per_uop``, measured with tracemalloc on one SPEC2017
and one PARSEC trace built after the cells' traces, next to the
throughput.  A second gate holds them under fixed ceilings
(``TRACE_BYTES_CEILING``, ``DECODE_BYTES_CEILING``), so a change that
brings per-uop objects back into the trace layout fails the bench.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import pstats
import time
import tracemalloc
from pathlib import Path

from repro import SchemeKind
from repro.sim import RunConfig, TraceCache, default_trace_length, run_benchmark
from repro.telemetry import TelemetryConfig
from repro.workloads import BenchmarkProfile, get_benchmark

from benchmarks.common import emit, results_dir

#: Shorter than the figure benches: every cell runs 2 modes x 3 rounds.
HOTPATH_LENGTH = default_trace_length(20_000)

#: Every node of every chain on its own cache line: the miss-heavy chase
#: regime (see BenchmarkProfile.node_stride_bytes) that stresses the
#: memory-side hot path rather than the issue queue.
_MISS_HEAVY = BenchmarkProfile(
    name="chase64",
    suite="micro",
    kernel_weights={"pointer_chase": 1.0},
    chains=24,
    chain_nodes=2048,
    node_stride_bytes=64,
    chase_steps=8,
)

#: (label, profile, scheme, threads) cells the gate times.  The 4-thread
#: PARSEC cell runs the multicore loop (``System.run``'s lockstep over
#: cores on one shared event queue, MESI directory traffic) at
#: ``HOTPATH_LENGTH // 4`` uops per thread, so every cell simulates
#: about the same number of uops.
CELLS = (
    ("spec2017/mcf/unsafe", get_benchmark("spec2017", "mcf"), SchemeKind.UNSAFE, 1),
    ("spec2017/mcf/stt+recon", get_benchmark("spec2017", "mcf"), SchemeKind.STT_RECON, 1),
    ("spec2017/mcf/dom+recon", get_benchmark("spec2017", "mcf"), SchemeKind.DOM_RECON, 1),
    ("micro/chase64/stt+recon", _MISS_HEAVY, SchemeKind.STT_RECON, 1),
    ("parsec/canneal/stt+recon@4", get_benchmark("parsec", "canneal"), SchemeKind.STT_RECON, 4),
)

ROUNDS = 3
BASELINE_PATH = Path(__file__).resolve().parent / "data" / "bench_hotpath_baseline.json"
TOLERANCE = 0.9  # fail when the ratio drops below 90% of the baseline

#: Bytes per uop a cached trace and one register decode of it may cost:
#: the columnar layout measures about 27-29 and 8.5; a trace of MicroOp
#: records cost about 153 and its tuple-list decode 26.
TRACE_BYTES_CEILING = 40
DECODE_BYTES_CEILING = 20

_PHASES = ("dispatch", "issue", "commit", "events", "memory")


def _time_cell(profile, scheme, threads, cache, telemetry):
    """Best-of-ROUNDS uops/s for one cell, untraced or traced."""
    best = 0.0
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = run_benchmark(
            profile,
            scheme,
            HOTPATH_LENGTH // threads,
            config=RunConfig(threads=threads, cache=cache, telemetry=telemetry),
        )
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, result.stats.committed_uops / elapsed)
    return best


def _phase_of(filename, funcname):
    """Bucket a profiled function into a pipeline phase."""
    if "events.py" in filename:
        return "events"
    if f"{os.sep}memory{os.sep}" in filename:
        return "memory"
    for phase in ("dispatch", "issue", "commit"):
        if phase in funcname:
            return phase
    return "other"


def _phase_breakdown(profile, scheme, threads, cache):
    """Fraction of untraced self-time spent in each pipeline phase."""
    profiler = cProfile.Profile()
    profiler.enable()
    run_benchmark(
        profile,
        scheme,
        HOTPATH_LENGTH // threads,
        config=RunConfig(threads=threads, cache=cache),
    )
    profiler.disable()
    stats = pstats.Stats(profiler)
    buckets = {phase: 0.0 for phase in (*_PHASES, "other")}
    total = 0.0
    for (filename, _, funcname), entry in stats.stats.items():
        tottime = entry[2]
        buckets[_phase_of(filename, funcname)] += tottime
        total += tottime
    if total <= 0:
        return {}
    return {phase: spent / total for phase, spent in buckets.items()}


#: (label, profile, threads) traces whose memory per uop is measured.
MEMORY_TRACES = (
    ("spec2017/xz", get_benchmark("spec2017", "xz"), 1),
    ("parsec/dedup@4", get_benchmark("parsec", "dedup"), 4),
)


def _traced_growth(fn):
    """Bytes ``fn()`` leaves allocated, by tracemalloc, and its result."""
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    result = fn()
    gc.collect()
    return tracemalloc.get_traced_memory()[0] - before, result


def _trace_memory():
    """Bytes per uop of a cached trace and of one register decode."""
    trace_bytes, decode_bytes = {}, {}
    core = RunConfig().resolved_params().core
    for label, profile, threads in MEMORY_TRACES:
        cache = TraceCache()
        length = HOTPATH_LENGTH // threads
        tracemalloc.start()
        try:
            built, traces = _traced_growth(
                lambda: cache.get(profile, threads, length)
            )
            decoded, _ = _traced_growth(
                lambda: cache.get_decoded(
                    profile, threads, length, core.arch_regs, core.phys_regs
                )
            )
        finally:
            tracemalloc.stop()
        uops = sum(map(len, traces))
        trace_bytes[label] = round(built / uops, 1)
        decode_bytes[label] = round(decoded / uops, 1)
    return trace_bytes, decode_bytes


def _run():
    cache = TraceCache()
    cells = {}
    for label, profile, scheme, threads in CELLS:
        # Build the trace once, outside every timed region.
        cache.get(profile, threads, HOTPATH_LENGTH // threads)
        untraced = _time_cell(profile, scheme, threads, cache, None)
        traced = _time_cell(profile, scheme, threads, cache, TelemetryConfig())
        cells[label] = {
            "untraced_uops_per_sec": round(untraced),
            "traced_uops_per_sec": round(traced),
            "ratio": round(untraced / traced, 3) if traced else 0.0,
            "phases": {
                k: round(v, 4)
                for k, v in _phase_breakdown(profile, scheme, threads, cache).items()
            },
        }
    trace_bytes, decode_bytes = _trace_memory()
    return {
        "length": HOTPATH_LENGTH,
        "rounds": ROUNDS,
        "cells": cells,
        "trace_bytes_per_uop": trace_bytes,
        "decode_bytes_per_uop": decode_bytes,
    }


def test_hotpath_throughput_trajectory(benchmark):
    payload = benchmark.pedantic(_run, rounds=1, iterations=1)
    out = results_dir() / "BENCH_hotpath.json"
    out.write_text(json.dumps(payload, indent=2))

    rows = []
    for label, cell in payload["cells"].items():
        rows.append(
            f"{label:30s} untraced {cell['untraced_uops_per_sec'] / 1000:7.1f}k"
            f"  traced {cell['traced_uops_per_sec'] / 1000:7.1f}k"
            f"  ratio {cell['ratio']:.2f}x"
        )
    for label, per_uop in payload["trace_bytes_per_uop"].items():
        rows.append(
            f"{label:30s} trace {per_uop:6.1f} B/uop"
            f"  decode {payload['decode_bytes_per_uop'][label]:5.1f} B/uop"
        )
    emit("BENCH_hotpath", "hot-path throughput (uops/s)", "\n".join(rows))

    for label, cell in payload["cells"].items():
        assert cell["untraced_uops_per_sec"] > 0, label
        assert cell["traced_uops_per_sec"] > 0, label

    for label, per_uop in payload["trace_bytes_per_uop"].items():
        assert per_uop <= TRACE_BYTES_CEILING, (
            f"{label}: a cached trace costs {per_uop} B/uop, over the "
            f"{TRACE_BYTES_CEILING} B/uop ceiling of the columnar layout"
        )
    for label, per_uop in payload["decode_bytes_per_uop"].items():
        assert per_uop <= DECODE_BYTES_CEILING, (
            f"{label}: a register decode costs {per_uop} B/uop, over the "
            f"{DECODE_BYTES_CEILING} B/uop ceiling"
        )

    baseline = json.loads(BASELINE_PATH.read_text())
    for label, base_cell in baseline["cells"].items():
        cell = payload["cells"].get(label)
        assert cell is not None, f"baseline cell {label} missing from bench"
        floor = base_cell["ratio"] * TOLERANCE
        assert cell["ratio"] >= floor, (
            f"{label}: untraced/traced ratio {cell['ratio']:.2f}x fell "
            f"below {floor:.2f}x (baseline {base_cell['ratio']:.2f}x "
            f"- 10% tolerance); the untraced hot path has regressed"
        )
