"""The repository benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload spec-figs --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` runs the workload for half the time with every layer's
entry points wrapped in spans (see ``spans.py``), then replays exactly
the same work untraced in a fresh process.  It reports the per-layer
metrics, checks that both runs simulated bit-identical statistics, and
reports the traced-minus-untraced wall as the tracing overhead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Metric definitions,
and which end-to-end metric each layer metric should move on which
workload, are in README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("spec-figs", "parsec-4core", "spec-sampled", "serve-sweep")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: Per-job samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_uops_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metric units; every one is reported on every workload (0
#: where the workload does not reach that layer).
LAYER_UNITS = {
    "workloads.build_s": "s",
    "workloads.traces": "count",
    "core.run_s": "s",
    "core.ns_per_uop": "ns",
    "core.sim_cycles": "count",
    "memory.submit_s": "s",
    "memory.submit_calls": "count",
    "memory.share": "ratio",
    "memory.l1_misses": "count",
    "memory.coherence_transactions": "count",
    "memory.invalidations": "count",
    "security.delayed_loads": "count",
    "security.reveal_hits": "count",
    "security.load_pairs_detected": "count",
    "sampling.warmup_s": "s",
    "sampling.detailed_uops": "count",
    "sampling.units": "count",
    "ipc_err_pct": "%",
    "overhead_err_pp": "pp",
    "store.get_s": "s",
    "store.put_s": "s",
    "store.hits": "count",
    "store.misses": "count",
    "backends.start_s": "s",
    "backends.dispatch_s": "s",
    "backends.tasks": "count",
    "engine.overhead_s": "s",
    "service.submit_s": "s",
    "service.queue_wait_s": "s",
    "service.result_s": "s",
    "service.refused": "count",
    "ledger.append_s": "s",
    "ledger.appends": "count",
    "client.decode_s": "s",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}

#: StatSet counters reported per layer, by the layer that owns them.
SIM_COUNTERS = {
    "memory.l1_misses": "l1_misses",
    "memory.coherence_transactions": "coherence_transactions",
    "memory.invalidations": "invalidations",
    "security.delayed_loads": "delayed_loads",
    "security.reveal_hits": "reveal_hits",
    "security.load_pairs_detected": "load_pairs_detected",
}


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a set-up probe, and the untraced replay of a traced run.
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--replay", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# -- end-to-end --------------------------------------------------------------


def percentiles(latencies: Sequence[float]) -> Tuple[float, float, float]:
    """(median, tail, tail percentile).

    The tail is the highest percentile with at least TAIL_BEYOND samples
    beyond it, but never below the median: with fewer than
    2 * TAIL_BEYOND + 1 samples it is the median (reported as p50).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    median = statistics.median(ordered)
    index = n - TAIL_BEYOND - 1
    if index < 0 or ordered[index] < median:
        return median, median, 50.0
    return median, ordered[index], 100.0 * (index + 1) / n


def peak_rss_mb() -> float:
    """The larger of this process's and its waited-for children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _probe_setup(workload: str) -> None:
    """Child side of a set-up sample: import and build, then say ready."""
    common.bootstrap()
    from repro.sim import ResultStore, TraceCache

    from perfbench import grid

    spec = grid.GRIDS[workload]
    spec.config(TraceCache())
    ResultStore(common.SCRATCH / "probe")
    grid.profiles(spec, grid.DEFAULT_SEED)
    print("ready", flush=True)


def _setup_samples(workload: str) -> List[float]:
    """Seconds from spawning a fresh interpreter to ready-to-run."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, __file__, "--workload", workload, "--probe-setup"],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        if proc.wait() != 0 or line != "ready":
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {line!r}")
        samples.append(elapsed)
    return samples


def _job_metrics(
    latencies: Sequence[float], uops: int, wall: float
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    if not latencies:
        raise RuntimeError("no job completed")
    p50, tail, pct = percentiles(latencies)
    metrics = {
        "sim_uops_per_s": uops / wall,
        "job_p50_s": p50,
        "job_tail_s": tail,
        "jobs_per_s": len(latencies) / wall,
    }
    return metrics, {"tail_percentile": pct, "jobs": len(latencies), "wall_s": wall}


def end_to_end(args: argparse.Namespace) -> Tuple[Dict[str, float], Dict[str, Any], int, List[str]]:
    """Untraced run: (metrics, notes, attempted, failure messages)."""
    from perfbench import grid, sweep

    with common.work_dir() as work:
        if args.workload == "serve-sweep":
            with sweep.spawned(work, SETUP_SAMPLES) as (url, setup):
                wall, jobs = sweep.drive(url, args.seed, seconds=args.seconds)
            lengths = sweep.trace_lengths(jobs)
            metrics, notes = _job_metrics(
                [j.latency_s for j in jobs if j.error is None],
                sweep.simulated_uops(jobs, lengths),
                wall,
            )
            attempted, failures = len(jobs), sweep.failures(jobs, lengths)
        else:
            setup = _setup_samples(args.workload)
            run = grid.run(grid.GRIDS[args.workload], args.seed, work, seconds=args.seconds)
            ok = [c for c in run.cells if c.error is None]
            metrics, notes = _job_metrics(
                [c.latency_s for c in ok], sum(c.trace_uops for c in ok), run.wall_s
            )
            attempted = len(run.cells)
            failures = grid.failures(run, grid.load_reference())
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = peak_rss_mb()
    notes["setup_samples"] = len(setup)
    return metrics, notes, attempted, failures


# -- per layer ---------------------------------------------------------------


def _sum_counters(stats: Sequence[Dict[str, int]]) -> Dict[str, float]:
    return {
        metric: float(sum(s[field] for s in stats))
        for metric, field in SIM_COUNTERS.items()
    }


def _digests(workload: str, outcome: Any) -> Any:
    """The simulated statistics of a run, in a JSON-comparable form."""
    if workload == "serve-sweep":
        return [
            [j.planned.client, j.planned.index, j.stats]
            for j in sorted(outcome, key=lambda j: (j.planned.client, j.planned.index))
        ]
    return [[c.key, c.stats] for c in outcome.cells]


def _replay(plan_path: Path) -> None:
    """Child side of a traced run: the same work, untraced, in a fresh process."""
    common.bootstrap()
    from perfbench import grid, sweep

    plan = json.loads(plan_path.read_text())
    workload, seed = plan["workload"], plan["seed"]
    out: Dict[str, Any] = {}
    with common.work_dir() as work:
        if workload == "serve-sweep":
            # Hosted like the traced run, so the two differ only by the spans.
            with sweep.hosted(work / "replay") as url:
                wall, jobs = sweep.drive(url, seed, counts=plan["counts"])
            out["digests"] = _digests(workload, jobs)
        else:
            run = grid.run(grid.GRIDS[workload], seed, work, cells=plan["cells"])
            wall = run.wall_s
            out["digests"] = _digests(workload, run)
            if workload == "spec-sampled":
                out["accuracy"] = grid.accuracy(seed, grid.load_reference())
    out["wall_s"] = wall
    plan_path.with_suffix(".out.json").write_text(json.dumps(out))


def per_layer(args: argparse.Namespace) -> Tuple[Dict[str, float], Dict[str, Any], int, List[str]]:
    """Traced run plus untraced replay: (metrics, notes, attempted, failures)."""
    from perfbench import grid, spans, sweep

    rec = spans.Recorder()
    seconds = args.seconds / 2
    metrics: Dict[str, float] = {name: 0.0 for name in LAYER_UNITS}
    with common.work_dir() as work:
        with spans.instrument(rec):
            if args.workload == "serve-sweep":
                with sweep.hosted(work / "traced") as url:
                    wall, outcome = sweep.drive(
                        url, args.seed, seconds=seconds, recorder=rec
                    )
            else:
                outcome = grid.run(
                    grid.GRIDS[args.workload],
                    args.seed,
                    work / "traced",
                    seconds=seconds,
                    recorder=rec,
                )
                wall = outcome.wall_s
        plan: Dict[str, Any] = {"workload": args.workload, "seed": args.seed}
        if args.workload == "serve-sweep":
            jobs = outcome
            plan["counts"] = [
                sum(1 for j in jobs if j.planned.client == c)
                for c in range(sweep.CLIENTS)
            ]
            attempted = len(jobs)
            failures = sweep.failures(jobs, sweep.trace_lengths(jobs))
            ok = [j for j in jobs if j.error is None]
            metrics.update(
                _sum_counters([s for j in ok for s in j.stats if s is not None])
            )
            metrics["service.submit_s"] = sum(j.submit_s for j in ok)
            metrics["service.result_s"] = sum(j.result_s for j in ok)
            metrics["service.refused"] = float(sum(j.refused for j in jobs))
        else:
            run = outcome
            plan["cells"] = len(run.cells)
            attempted = len(run.cells)
            failures = grid.failures(run, grid.load_reference())
            ok = [c for c in run.cells if c.error is None]
            metrics.update(_sum_counters([c.stats for c in ok]))
            metrics["sampling.detailed_uops"] = float(sum(c.detailed_uops for c in ok))
            metrics["sampling.units"] = float(sum(c.units for c in ok))
        plan_path = work / "replay.json"
        plan_path.write_text(json.dumps(plan))
        subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--replay", str(plan_path)],
            check=True,
        )
        replay = json.loads(plan_path.with_suffix(".out.json").read_text())
    traced = json.loads(json.dumps(_digests(args.workload, outcome)))
    if traced != replay["digests"]:
        failures.append("traced run's simulated statistics differ from the untraced replay")
    metrics.update(spans.layer_metrics(rec))
    if "accuracy" in replay:
        metrics["ipc_err_pct"], metrics["overhead_err_pp"] = replay["accuracy"]
    metrics["trace.traced_wall_s"] = wall
    metrics["trace.untraced_wall_s"] = replay["wall_s"]
    metrics["trace.overhead_s"] = wall - replay["wall_s"]
    metrics["trace.overhead_pct"] = 100.0 * (wall - replay["wall_s"]) / replay["wall_s"]
    span_file = common.SCRATCH / f"spans-{args.workload}-seed{args.seed}.jsonl"
    rec.dump(span_file)
    notes = {"span_file": str(span_file.relative_to(common.ROOT)), "spans": rec.summary()}
    lookups = metrics["store.hits"] + metrics["store.misses"]
    if lookups:
        notes["store_hit_share"] = metrics["store.hits"] / lookups
    return metrics, notes, attempted, failures


# -- output ------------------------------------------------------------------


def _report(
    args: argparse.Namespace,
    metrics: Dict[str, float],
    units: Dict[str, str],
    notes: Dict[str, Any],
    attempted: int,
    failures: List[str],
) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name in units:
        print(f"  {name:<32} {metrics[name]:>16.6g} {units[name]}")
    if "tail_percentile" in notes:
        print(
            f"  job_tail_s is p{notes['tail_percentile']:.1f} of {notes['jobs']} jobs;"
            f" setup_s is the median of {notes['setup_samples']} set-ups"
        )
    for name, calls, total, own in notes.get("spans", []):
        print(f"  span {name:<27} {calls:>9} calls {total:>10.4f} s total {own:>10.4f} s self")
    if "store_hit_share" in notes:
        print(f"  store hit share {notes['store_hit_share']:.3f} (hits / lookups)")
    if "span_file" in notes:
        print(f"  spans written to {notes['span_file']}")
    print(f"  error_rate {len(failures) / attempted:.6g} ({len(failures)} of {attempted} failed)")
    for message in failures[:20]:
        print(f"  FAILED {message}")
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )


def _exit_on_sigterm(signum: int, frame: Any) -> None:
    # Unwind through the ``finally`` blocks that stop ``repro serve``.
    raise SystemExit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    # A launcher that runs us in the background may have set SIGINT to
    # ignored, which children inherit; ``repro serve`` needs it to shut
    # down gracefully.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    args = _parse(argv)
    if args.probe_setup:
        _probe_setup(args.workload)
        return 0
    if args.replay is not None:
        _replay(args.replay)
        return 0
    common.bootstrap()
    if args.trace:
        metrics, notes, attempted, failures = per_layer(args)
        units = LAYER_UNITS
    else:
        metrics, notes, attempted, failures = end_to_end(args)
        units = END_TO_END_UNITS
    _report(args, metrics, units, notes, attempted, failures)
    return 0


if __name__ == "__main__":
    sys.exit(main())
