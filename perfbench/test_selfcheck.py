"""Self-tests of the benchmark.

Run from the repository root::

    python3 -m pytest perfbench -q

They check the benchmark's own guarantees: tracing does not change
what is simulated, simulated per-layer counts repeat exactly, the
tracing overhead is reported as traced minus untraced wall, the
correctness checks catch a wrong result, and the command fails cleanly
when the simulator sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """The benchmark modules, imported as ``run.py`` imports them."""
    saved_env, saved_path = dict(os.environ), list(sys.path)
    sys.path.insert(0, str(ROOT))
    from perfbench import common

    common.bootstrap()
    from perfbench import grid, spans, sweep

    yield grid, spans, sweep, tmp_path_factory.mktemp("work")
    os.environ.clear()
    os.environ.update(saved_env)
    sys.path[:] = saved_path


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _traced(grid, spans, workload, seed, work, cells):
    rec = spans.Recorder()
    with spans.instrument(rec):
        run = grid.run(grid.GRIDS[workload], seed, work, cells=cells, recorder=rec)
    return run, rec


@pytest.mark.parametrize("workload", ["spec-figs", "parsec-4core", "spec-sampled"])
def test_traced_run_simulates_exactly_what_the_untraced_run_does(bench, workload):
    grid, spans, _, work = bench
    plain = grid.run(grid.GRIDS[workload], 1, work / f"{workload}-plain", cells=2)
    traced, rec = _traced(grid, spans, workload, 1, work / f"{workload}-traced", 2)
    assert [c.stats for c in traced.cells] == [c.stats for c in plain.cells]
    assert all(c.error is None for c in traced.cells)
    assert rec.calls("core.run") >= 2
    assert rec.calls("memory.submit") > 0


@pytest.mark.parametrize("workload", ["spec-figs", "parsec-4core"])
def test_first_round_of_cells_meets_every_benchmark_and_scheme(bench, workload):
    grid = bench[0]
    chosen = grid.profiles(grid.GRIDS[workload], 0)
    order = grid.cell_order(chosen)
    assert len({(p.name, s) for p, s in order}) == len(chosen) * len(grid.SCHEMES)
    first = order[: len(chosen)]
    assert {p.name for p, _ in first} == {p.name for p in chosen}
    assert {s for _, s in first} == set(grid.SCHEMES)


def test_instrumentation_is_removed_on_exit(bench):
    _, spans, _, _ = bench
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.sim.engine import SuiteResult
    from repro.sim.system import System

    before = (MemoryHierarchy.submit, System.run, SuiteResult.__dict__["from_json"])
    with spans.instrument(spans.Recorder()):
        assert MemoryHierarchy.submit is not before[0]
    assert (MemoryHierarchy.submit, System.run, SuiteResult.__dict__["from_json"]) == before


def test_simulated_layer_counts_repeat_exactly(bench):
    grid, spans, _, work = bench

    def counts(tag):
        run, rec = _traced(grid, spans, "parsec-4core", 2, work / tag, 1)
        metrics = spans.layer_metrics(rec)
        simulated = {
            name: metrics[name]
            for name in ("workloads.traces", "core.sim_cycles", "memory.submit_calls")
        }
        return simulated, [c.stats for c in run.cells]

    assert counts("first") == counts("second")


def test_checks_catch_a_result_that_differs_from_the_reference(bench):
    grid, _, _, work = bench
    reference = grid.load_reference()
    run = grid.run(grid.GRIDS["spec-figs"], grid.DEFAULT_SEED, work / "ref", cells=1)
    assert grid.failures(run, reference) == []
    cell = reference["grids"]["spec-figs"]["cells"][run.cells[0].key]
    cell["cycles"] += 1
    assert len(grid.failures(run, reference)) == 1
    # Off the default seed only completeness is checked.
    other = grid.run(grid.GRIDS["spec-figs"], 3, work / "other", cells=1)
    assert grid.failures(other, reference) == []


def test_job_sequence_is_seeded_and_repeats_earlier_jobs(bench):
    _, _, sweep, _ = bench
    import itertools

    def plan(seed):
        return list(itertools.islice(sweep.job_sequence(seed, 0), 12))

    assert plan(1) == plan(1)
    assert plan(1) != plan(2)
    repeats = [job for job in plan(1) if job.repeat_of is not None]
    assert len(repeats) == 12 // sweep.REPEAT_EVERY
    for job in repeats:
        assert job.cells == plan(1)[job.repeat_of].cells
    for job in plan(1):
        assert len({(b, s) for b, s, _ in job.cells}) == sweep.CELLS_PER_JOB


def test_tail_is_the_highest_percentile_with_ten_jobs_beyond_it():
    sys.path.insert(0, str(ROOT))
    from perfbench import run

    assert run.percentiles(list(range(1, 41))) == (20.5, 30, 75.0)
    # Too few jobs for ten beyond anything above the median.
    assert run.percentiles([3.0, 1.0, 2.0]) == (2.0, 2.0, 50.0)


def test_traced_run_reports_its_overhead():
    result = _result(_run("--workload", "spec-figs", "--seed", "1", "--seconds", "2", "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    traced, untraced = metrics["trace.traced_wall_s"], metrics["trace.untraced_wall_s"]
    assert metrics["trace.overhead_s"] == pytest.approx(traced - untraced)
    assert metrics["trace.overhead_pct"] == pytest.approx(100 * (traced - untraced) / untraced)
    assert metrics["core.sim_cycles"] > 0


def test_serve_sweep_round_trip():
    result = _result(_run("--workload", "serve-sweep", "--seed", "1", "--seconds", "3"))
    assert result["correct"] and result["attempted"] >= 2
    assert set(result["metrics"]) == {
        "setup_s", "sim_uops_per_s", "job_p50_s", "job_tail_s", "jobs_per_s", "peak_rss_mb"
    }


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "spec-figs", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
