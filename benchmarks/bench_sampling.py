"""Sampled-vs-exact accuracy and cost — the acceptance gate for sampling.

Runs the standard single-thread suite cells (SPEC-2017-style profiles x
the headline schemes) twice: exact detailed simulation and statistically
sampled simulation with default knobs.  Writes
``results/BENCH_sampling.json`` carrying, per cell, the exact IPC, the
sampled estimate with its CI half-width, the detailed-uop counts, and
the resulting cut, then asserts the two acceptance criteria:

* every per-cell IPC estimate lies within its reported confidence
  interval of the exact value, and
* sampled mode detail-simulates at least 5x fewer micro-ops than exact
  mode on every cell.

The summary also counts the cells whose interval reached the target
half-width (``converged``); that count is reported, not gated.  CI's
``sampling-smoke`` job runs this bench, asserts both criteria again on
the JSON summary, prints the converged count, and uploads the JSON as
the ``bench-sampling`` artifact.
"""

from __future__ import annotations

import json
import time

from repro import SchemeKind
from repro.sim import RunConfig, TraceCache, default_trace_length, run_benchmark
from repro.sampling import SamplingConfig
from repro.workloads import get_benchmark

from benchmarks.common import emit, results_dir

#: Long enough for the default sampling knobs (8 units of length/48
#: uops plus a length/240 detailed re-warm each = a 5x cut exactly).
SAMPLING_LENGTH = default_trace_length(12_000)

BENCHES = ("mcf", "gcc", "xalancbmk")
SCHEMES = (
    SchemeKind.UNSAFE,
    SchemeKind.STT,
    SchemeKind.STT_RECON,
    SchemeKind.NDA_RECON,
)

#: Required detailed-uop reduction of sampled mode vs exact mode.
MIN_CUT = 5.0


def _run():
    sampling = SamplingConfig()
    cells = {}
    exact_wall = 0.0
    sampled_wall = 0.0
    for bench in BENCHES:
        profile = get_benchmark("spec2017", bench)
        # One trace cache per benchmark: exact and sampled runs (and all
        # schemes) measure the same workload, and the sampled runs share
        # one set of functional warm images across schemes.
        cache = TraceCache()
        for scheme in SCHEMES:
            start = time.perf_counter()
            exact = run_benchmark(
                profile, scheme, SAMPLING_LENGTH, config=RunConfig(cache=cache)
            )
            exact_wall += time.perf_counter() - start
            start = time.perf_counter()
            sampled = run_benchmark(
                profile,
                scheme,
                SAMPLING_LENGTH,
                config=RunConfig(cache=cache, sampling=sampling),
            )
            sampled_wall += time.perf_counter() - start
            estimate = sampled.sampling
            cells[f"{bench}/{scheme.value}"] = {
                "exact_ipc": round(exact.ipc, 6),
                "ipc": round(estimate.ipc, 6),
                "ipc_ci": round(estimate.ipc_ci, 6),
                "within_ci": abs(estimate.ipc - exact.ipc) <= estimate.ipc_ci,
                "samples": estimate.samples,
                "converged": estimate.converged,
                "detailed_uops": estimate.detailed_uops,
                "total_uops": estimate.total_uops,
                "cut": round(estimate.total_uops / estimate.detailed_uops, 2),
            }
    cuts = [cell["cut"] for cell in cells.values()]
    geomean_cut = 1.0
    for cut in cuts:
        geomean_cut *= cut
    geomean_cut **= 1.0 / len(cuts)
    return {
        "length": SAMPLING_LENGTH,
        "sampling": sampling.spec(),
        "cells": cells,
        "summary": {
            "cells": len(cells),
            "within_ci": sum(cell["within_ci"] for cell in cells.values()),
            "converged": sum(cell["converged"] for cell in cells.values()),
            "min_cut": min(cuts),
            "geomean_cut": round(geomean_cut, 2),
            "exact_wall_s": round(exact_wall, 3),
            "sampled_wall_s": round(sampled_wall, 3),
        },
    }


def test_sampling_accuracy_and_cut(benchmark):
    payload = benchmark.pedantic(_run, rounds=1, iterations=1)
    out = results_dir() / "BENCH_sampling.json"
    out.write_text(json.dumps(payload, indent=2))

    rows = []
    for label, cell in payload["cells"].items():
        mark = "ok" if cell["within_ci"] else "MISS"
        rows.append(
            f"{label:24s} exact {cell['exact_ipc']:6.3f}"
            f"  est {cell['ipc']:6.3f}±{cell['ipc_ci']:.3f} [{mark}]"
            f"  cut {cell['cut']:5.2f}x  n={cell['samples']}"
        )
    summary = payload["summary"]
    rows.append(
        f"{'summary':24s} {summary['within_ci']}/{summary['cells']} within CI"
        f"  {summary['converged']}/{summary['cells']} converged"
        f"  min cut {summary['min_cut']:.2f}x"
        f"  wall {summary['exact_wall_s']:.1f}s -> "
        f"{summary['sampled_wall_s']:.1f}s"
    )
    emit("BENCH_sampling", "sampled vs exact (IPC, CI, uop cut)", "\n".join(rows))

    for label, cell in payload["cells"].items():
        assert cell["within_ci"], (
            f"{label}: sampled IPC {cell['ipc']:.4f}±{cell['ipc_ci']:.4f} "
            f"misses the exact value {cell['exact_ipc']:.4f}"
        )
        assert cell["cut"] >= MIN_CUT, (
            f"{label}: detailed-uop cut {cell['cut']:.2f}x is below the "
            f"{MIN_CUT:.0f}x acceptance floor "
            f"({cell['detailed_uops']}/{cell['total_uops']} uops detailed)"
        )
