"""Grid workloads: the paper's figure grids, one cell per ``run_suite`` call.

A grid workload submits each (benchmark, scheme) cell as its own
``repro.sim.run_suite`` request.  Each request is one "job": its latency
is timed from the call until the ``SuiteResult`` is in hand, including
the trace build the first time a benchmark is met.

Cells go in diagonal rounds: round r gives benchmark i the scheme
``SCHEMES[(i + r) % 5]``, and one trace cache holds each benchmark's
trace for all five schemes.  The first round therefore meets every
benchmark and, with at least five benchmarks, every scheme, and each
later round keeps both balanced.  A run too short for the whole grid
still measures every benchmark under every scheme, so the mix of cells
it measures changes little with how fast the host is.

A run is bounded either by time (``seconds``: no new cell starts after
the deadline) or by work (``cells``: exactly that many cells, used to
replay a traced run untraced).  When the grid is exhausted before the
deadline, the next pass starts on a fresh store and trace cache so it
is as cold as the first.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import SchemeKind
from repro.sampling import DEFAULT_SAMPLING_SPEC, parse_sampling
from repro.sim import ResultStore, RunConfig, TraceCache, run_suite
from repro.workloads import BenchmarkProfile, parsec_suite, spec2017_suite

from perfbench import spans

#: The five schemes of Figs 5, 6 and 8, in figure order.
SCHEMES: Tuple[SchemeKind, ...] = (
    SchemeKind.UNSAFE,
    SchemeKind.NDA,
    SchemeKind.NDA_RECON,
    SchemeKind.STT,
    SchemeKind.STT_RECON,
)

#: The benchmark seed at which every profile keeps its published seed,
#: and at which cells are checked against ``reference.json``.
DEFAULT_SEED = 0

#: Benchmark seed n shifts every profile seed by n * SEED_STRIDE (a prime,
#: so neighbouring seeds never map one profile onto another's stream).
SEED_STRIDE = 1_000_003

#: StatSet counters pinned by the reference beside cycles and commits.
COUNTERS = (
    "l1_misses",
    "coherence_transactions",
    "invalidations",
    "delayed_loads",
    "reveal_hits",
    "load_pairs_detected",
)

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Benchmarks (in suite order) whose sampled cells are compared with exact
#: ones for the accuracy figures; exact simulation of the whole grid would
#: not fit in a run.
ACCURACY_BENCHES = 4


@dataclasses.dataclass(frozen=True)
class Grid:
    """One grid workload: which suite, how long, how many cores, which mode."""

    name: str
    suite: Callable[[], List[BenchmarkProfile]]
    length: int
    threads: int
    sampled: bool

    def config(self, cache: TraceCache) -> RunConfig:
        sampling = parse_sampling(DEFAULT_SAMPLING_SPEC) if self.sampled else None
        return RunConfig(threads=self.threads, cache=cache, sampling=sampling)

    def warmup(self) -> int:
        """Per-core detailed warm-up prefix (the runner's 40% default)."""
        return RunConfig().resolved_warmup(self.length)

    def measured_uops(self, trace_lengths: Sequence[int]) -> int:
        """Committed uops a complete cell reports after warm-up.

        Exact cells commit each core's whole trace; a sampled estimate
        covers each core's trace up to ``length``.
        """
        warm = self.warmup()
        if self.sampled:
            return sum(max(0, min(n, self.length) - warm) for n in trace_lengths)
        return sum(n - warm for n in trace_lengths)


GRIDS: Dict[str, Grid] = {
    grid.name: grid
    for grid in (
        Grid("spec-figs", spec2017_suite, 30_000, 1, sampled=False),
        Grid("parsec-4core", parsec_suite, 10_000, 4, sampled=False),
        Grid("spec-sampled", spec2017_suite, 30_000, 1, sampled=True),
    )
}


def profiles(grid: Grid, seed: int) -> List[BenchmarkProfile]:
    """The grid's benchmark profiles with their seeds moved by ``seed``."""
    shift = (seed - DEFAULT_SEED) * SEED_STRIDE
    return [dataclasses.replace(p, seed=p.seed + shift) for p in grid.suite()]


@dataclasses.dataclass
class CellOutcome:
    """One grid cell as the client saw it."""

    bench: str
    scheme: str
    latency_s: float
    trace_uops: int = 0
    #: Every StatSet counter of the aggregate (``None`` when the call raised).
    stats: Optional[Dict[str, int]] = None
    error: Optional[str] = None
    #: Sampled cells only: detail-simulated uops and measurement units.
    detailed_uops: int = 0
    units: int = 0

    @property
    def key(self) -> str:
        return f"{self.bench}/{self.scheme}"


@dataclasses.dataclass
class GridRun:
    grid: Grid
    seed: int
    wall_s: float
    cells: List[CellOutcome]


def run(
    grid: Grid,
    seed: int,
    work_dir: Path,
    *,
    seconds: Optional[float] = None,
    cells: Optional[int] = None,
    recorder: Optional[spans.Recorder] = None,
) -> GridRun:
    """Run cells until ``seconds`` pass or ``cells`` have run."""
    if (seconds is None) == (cells is None):
        raise ValueError("bound the run by exactly one of seconds or cells")
    order = cell_order(profiles(grid, seed))
    outcomes: List[CellOutcome] = []
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else None
    index = 0
    while True:
        if cells is not None and index >= cells:
            break
        if deadline is not None and index and time.perf_counter() >= deadline:
            break
        position = index % len(order)
        if position == 0:
            cache, store, config = _fresh_pass(grid, work_dir / f"pass{index // len(order)}")
        profile, scheme = order[position]
        index += 1
        t0 = time.perf_counter()
        try:
            with spans.request(recorder, "bench.cell", f"cell-{index}"):
                suite = run_suite(
                    [profile], [scheme], grid.length, config=config, store=store
                )
            result = suite[(profile.name, scheme)]
        except Exception as exc:  # a failed cell is data for error_rate
            outcomes.append(
                CellOutcome(
                    profile.name,
                    scheme.value,
                    time.perf_counter() - t0,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        latency = time.perf_counter() - t0
        traces = cache.get(profile, grid.threads, grid.length)
        stats = dict(result.stats.as_dict(), cycles=result.cycles)
        outcome = CellOutcome(
            profile.name,
            scheme.value,
            latency,
            trace_uops=sum(len(t) for t in traces),
            stats=stats,
        )
        outcome.error = _completeness_error(grid, outcome, [len(t) for t in traces])
        if result.sampling is not None:
            outcome.detailed_uops = result.sampling.detailed_uops
            outcome.units = result.sampling.samples
        outcomes.append(outcome)
    return GridRun(grid, seed, time.perf_counter() - start, outcomes)


def cell_order(
    chosen: Sequence[BenchmarkProfile],
) -> List[Tuple[BenchmarkProfile, SchemeKind]]:
    """Every (benchmark, scheme) cell once, in diagonal rounds."""
    return [
        (profile, SCHEMES[(i + r) % len(SCHEMES)])
        for r in range(len(SCHEMES))
        for i, profile in enumerate(chosen)
    ]


def _fresh_pass(grid: Grid, root: Path) -> Tuple[TraceCache, ResultStore, RunConfig]:
    """A cold trace cache and an empty store for one pass over the grid.

    ``REPRO_STORE`` points at the same directory because sampled cells
    keep their warm-image blobs in the environment-configured store.
    """
    root.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_STORE"] = str(root)
    cache = TraceCache()
    return cache, ResultStore(root), grid.config(cache)


def _completeness_error(
    grid: Grid, cell: CellOutcome, trace_lengths: Sequence[int]
) -> Optional[str]:
    expected = grid.measured_uops(trace_lengths)
    committed = cell.stats["committed_uops"]
    if committed != expected:
        return f"committed {committed} of {expected} measured uops"
    return None


def load_reference() -> Dict[str, Any]:
    return json.loads(REFERENCE_PATH.read_text())


def reference_entry(cell: CellOutcome) -> Dict[str, int]:
    """The fields of a cell the reference pins."""
    assert cell.stats is not None
    fields = ("cycles", "committed_uops") + COUNTERS
    return {name: cell.stats[name] for name in fields}


def failures(run_: GridRun, reference: Optional[Dict[str, Any]]) -> List[str]:
    """One message per failed cell: raised, incomplete, or off-reference.

    The reference is consulted only at the default seed; at other seeds
    a cell must still run to completion and commit its measured trace.
    """
    pinned = None
    if run_.seed == DEFAULT_SEED and reference is not None:
        pinned = reference["grids"][run_.grid.name]["cells"]
    messages = []
    for cell in run_.cells:
        if cell.error is not None:
            messages.append(f"{cell.key}: {cell.error}")
            continue
        if pinned is None:
            continue
        want = pinned.get(cell.key)
        got = reference_entry(cell)
        if want != got:
            diff = {
                k: (got.get(k), (want or {}).get(k))
                for k in got
                if want is None or got.get(k) != want.get(k)
            }
            messages.append(f"{cell.key}: differs from reference (got, want) {diff}")
    return messages


def accuracy(seed: int, reference: Optional[Dict[str, Any]]) -> Tuple[float, float]:
    """Sampled-vs-exact error on the first ACCURACY_BENCHES benchmarks.

    Returns ``(ipc_err_pct, overhead_err_pp)``: the mean of
    |sampled - exact| / exact IPC in percent, and the mean absolute error
    of each secure scheme's normalized overhead vs ``unsafe`` in
    percentage points.  Exact IPCs come from the spec-figs reference at
    the default seed (a run is a pure function of its spec) and are
    simulated otherwise.
    """
    grid = GRIDS["spec-sampled"]
    chosen = profiles(grid, seed)[:ACCURACY_BENCHES]
    sampled = run_suite(
        chosen, SCHEMES, grid.length, config=grid.config(TraceCache()), store=None
    )
    sampled_ipc = {key: result.ipc for key, result in sampled.items()}
    if seed == DEFAULT_SEED and reference is not None:
        pinned = reference["grids"]["spec-figs"]["cells"]
        exact_ipc = {
            (p.name, s): pinned[f"{p.name}/{s.value}"]["committed_uops"]
            / pinned[f"{p.name}/{s.value}"]["cycles"]
            for p in chosen
            for s in SCHEMES
        }
    else:
        exact = run_suite(chosen, SCHEMES, grid.length, store=None)
        exact_ipc = {key: result.ipc for key, result in exact.items()}
    ipc_errors = [
        abs(sampled_ipc[key] - exact_ipc[key]) / exact_ipc[key] for key in exact_ipc
    ]
    overhead_errors = []
    for p in chosen:
        base = SchemeKind.UNSAFE
        for scheme in SCHEMES[1:]:
            over_s = 1 - sampled_ipc[(p.name, scheme)] / sampled_ipc[(p.name, base)]
            over_e = 1 - exact_ipc[(p.name, scheme)] / exact_ipc[(p.name, base)]
            overhead_errors.append(abs(over_s - over_e))
    return (
        100 * sum(ipc_errors) / len(ipc_errors),
        100 * sum(overhead_errors) / len(overhead_errors),
    )
