"""Deterministic drivers for the contention-free parity golden.

The port/MSHR transaction engine must reproduce the legacy atomic
latency-summing model *exactly* when contention is configured away
(unbounded ports, unbounded MSHRs, no DRAM queue).  This module holds
the deterministic stimulus shared by

* ``scripts/capture_memory_golden.py`` — run once against the
  pre-refactor model to produce ``tests/data/memory_parity_golden.json``
  (checked in), and
* ``tests/memory/test_parity_golden.py`` — re-runs the same stimulus on
  the current engine and compares every recorded latency and counter.

Nothing here may depend on wall-clock time, hashing order, or any other
non-determinism: the same code must produce the same record stream on
both sides of the refactor.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Dict, List

from repro.common.params import (
    CacheParams,
    MemoryParams,
    SystemParams,
)
from repro.common.types import SchemeKind
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.config import RunConfig
from repro.sim.runner import TraceCache, run_benchmark
from repro.workloads import get_benchmark

__all__ = [
    "ACCESS_CONFIGS",
    "GOLDEN_PATH",
    "RUN_CELLS",
    "capture_golden",
    "drive_accesses",
    "run_cells",
]

#: Repo-relative location of the checked-in golden file.
GOLDEN_PATH = "tests/data/memory_parity_golden.json"


def _tiny_memory(**overrides: Any) -> MemoryParams:
    """A small hierarchy so the stimulus provokes evictions and misses."""
    base = dict(
        l1=CacheParams(size_bytes=8 * 64, ways=2, latency=2),
        l2=CacheParams(size_bytes=32 * 64, ways=4, latency=6),
        llc=CacheParams(size_bytes=128 * 64, ways=4, latency=16),
        dram_latency=100,
        noc_hop_latency=4,
    )
    base.update(overrides)
    return MemoryParams(**base)


def _access_config(name: str) -> SystemParams:
    if name == "default_1core":
        return SystemParams()
    if name == "tiny_1core":
        return SystemParams(memory=_tiny_memory())
    if name == "tiny_2core":
        return SystemParams(memory=_tiny_memory(), num_cores=2)
    if name == "mesh_2x2_4core":
        return SystemParams(
            memory=_tiny_memory(topology="mesh", mesh_rows=2, mesh_cols=2),
            num_cores=4,
        )
    if name == "preserve_inv_2core":
        return SystemParams(
            memory=_tiny_memory(),
            num_cores=2,
            preserve_invalidated_reveals=True,
        )
    if name == "prefetch_1core":
        return SystemParams(memory=_tiny_memory(prefetch_next_line=True))
    raise KeyError(name)


#: Direct-hierarchy stimulus configurations, by name.
ACCESS_CONFIGS = (
    "default_1core",
    "tiny_1core",
    "tiny_2core",
    "mesh_2x2_4core",
    "preserve_inv_2core",
    "prefetch_1core",
)


def drive_accesses(
    name: str, ops: int = 500, seed: int = 1234, telemetry: Any = None
) -> List[Any]:
    """Drive a scripted read/write/reveal mix; return one record per op.

    Records are JSON-comparable: ``[kind, core, addr, now, outcome...]``.
    The address stream mixes a hot set (re-references, hit-under-fill)
    with a cold sweep (misses, evictions) across all cores.  A live
    ``telemetry`` collector, when given, is wired into the hierarchy, so
    every access (private hits included) goes through ``submit``.
    """
    params = _access_config(name)
    hier = MemoryHierarchy(params)
    if telemetry is not None:
        hier.telemetry = telemetry
    rng = random.Random(seed)
    hot = [i * 64 for i in range(16)]
    records: List[Any] = []
    now = 0
    for i in range(ops):
        core = rng.randrange(params.num_cores)
        # Bias toward the hot set so fills overlap with re-references.
        if rng.random() < 0.6:
            addr = rng.choice(hot) + rng.randrange(8) * 8
        else:
            addr = rng.randrange(0x8000) & ~0x7
        roll = rng.random()
        if roll < 0.55:
            result = hier.read(core, addr, now=now)
            records.append(
                ["read", core, addr, now, result.latency,
                 int(result.revealed), int(result.level)]
            )
        elif roll < 0.75:
            latency = hier.write(core, addr, now=now)
            records.append(["write", core, addr, now, latency])
        elif roll < 0.9:
            ok = hier.reveal(core, addr)
            records.append(["reveal", core, addr, now, int(ok)])
        else:
            latency = hier.read_invisible(core, addr, now=now)
            records.append(["inv", core, addr, now, latency])
        # Sometimes advance time (fills land), sometimes issue back-to-back.
        if rng.random() < 0.5:
            now += rng.choice((1, 2, 5, 40, 400))
    hier.check_coherence_invariants()
    records.append(["dropped_reveals", hier.dropped_reveals])
    records.append(["noc_messages", hier.noc.messages])
    records.append(["noc_bitvector_messages", hier.noc.bitvector_messages])
    records.append(["dram_reads", hier.dram.reads])
    records.append(["dram_writebacks", hier.dram.writebacks])
    return records


#: Benchmark cells for end-to-end parity: (suite, name, scheme, length,
#: threads, params-variant).  Variants must exist in _cell_params.
RUN_CELLS = (
    ("spec2017", "mcf", "unsafe", 2500, 1, "default"),
    ("spec2017", "mcf", "stt", 2500, 1, "default"),
    ("spec2017", "mcf", "stt+recon", 2500, 1, "default"),
    ("spec2017", "mcf", "nda+recon", 2500, 1, "default"),
    ("spec2017", "mcf", "invispec+recon", 2000, 1, "default"),
    ("spec2017", "gcc", "unsafe", 2500, 1, "default"),
    ("spec2017", "gcc", "stt+recon", 2500, 1, "default"),
    ("spec2017", "lbm", "unsafe", 2000, 1, "prefetch"),
    ("parsec", "canneal", "unsafe", 1000, 4, "default"),
    ("parsec", "canneal", "stt+recon", 1000, 4, "default"),
    ("parsec", "fluidanimate", "stt+recon", 1000, 4, "mesh"),
    ("spec2017", "omnetpp", "dom+recon", 2000, 1, "default"),
)


def _cell_params(variant: str, threads: int) -> SystemParams:
    if variant == "default":
        return SystemParams(num_cores=threads)
    if variant == "prefetch":
        return SystemParams(
            num_cores=threads,
            memory=dataclasses.replace(
                MemoryParams(), prefetch_next_line=True
            ),
        )
    if variant == "mesh":
        return SystemParams(
            num_cores=threads,
            memory=dataclasses.replace(
                MemoryParams(), topology="mesh", mesh_rows=2, mesh_cols=2
            ),
        )
    raise KeyError(variant)


def _cell_label(cell) -> str:
    suite, name, scheme, length, threads, variant = cell
    return f"{suite}/{name}/{scheme}/len{length}/t{threads}/{variant}"


def run_cells() -> Dict[str, Dict[str, Any]]:
    """Run every benchmark cell; return label -> {cycles, stats}."""
    out: Dict[str, Dict[str, Any]] = {}
    cache = TraceCache()
    for cell in RUN_CELLS:
        suite, name, scheme, length, threads, variant = cell
        profile = get_benchmark(suite, name)
        config = RunConfig(
            params=_cell_params(variant, threads),
            threads=threads,
            cache=cache,
        )
        result = run_benchmark(
            profile, SchemeKind(scheme), length, config=config
        )
        out[_cell_label(cell)] = {
            "cycles": result.cycles,
            "stats": result.stats.as_dict(),
        }
    return out


def capture_golden() -> Dict[str, Any]:
    """The full golden payload (access sequences + benchmark cells)."""
    return {
        "accesses": {name: drive_accesses(name) for name in ACCESS_CONFIGS},
        "runs": run_cells(),
    }
