"""Tests for the parallel experiment engine."""

import pytest

from repro.common import SchemeKind, SystemParams
from repro.sim import RunConfig, TraceCache, run_suite
from repro.sim.backends import TaskFailedError
from repro.sim.engine import (
    RunSpec,
    SuiteResult,
    resolve_jobs,
    run_grid,
    run_specs,
)
from repro.sim.store import ResultStore
from repro.workloads import get_benchmark


def _profiles():
    return [
        get_benchmark("spec2017", "gcc"),
        get_benchmark("spec2017", "lbm"),
    ]


SCHEMES = (SchemeKind.UNSAFE, SchemeKind.STT)


class TestResolveJobs:
    def test_defaults_to_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            resolve_jobs()

    def test_env_zero_means_all_cores(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_JOBS", "0")
        assert resolve_jobs() == (os.cpu_count() or 1)

    def test_negative_argument_raises(self):
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            resolve_jobs(-4)

    def test_negative_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "-1")
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            resolve_jobs()

    def test_argument_beats_negative_env(self, monkeypatch):
        # A valid explicit argument must not even look at a bad env var.
        monkeypatch.setenv("REPRO_JOBS", "-1")
        assert resolve_jobs(2) == 2


class TestDeterminism:
    def test_jobs1_and_jobs4_identical(self):
        """The acceptance bar: worker fan-out must not change results."""
        serial = run_grid(_profiles(), SCHEMES, 900, jobs=1)
        parallel = run_grid(_profiles(), SCHEMES, 900, jobs=4)
        assert set(serial) == set(parallel)
        for key in serial:
            assert serial[key].cycles == parallel[key].cycles, key
            assert (
                serial[key].stats.as_dict() == parallel[key].stats.as_dict()
            ), key
            for a, b in zip(serial[key].per_core, parallel[key].per_core):
                assert a.as_dict() == b.as_dict()

    def test_multithreaded_cells_identical(self):
        profile = get_benchmark("parsec", "canneal")
        config = RunConfig(threads=2)
        serial = run_grid([profile], SCHEMES, 700, config=config, jobs=1)
        parallel = run_grid([profile], SCHEMES, 700, config=config, jobs=2)
        for key in serial:
            assert serial[key].cycles == parallel[key].cycles


class TestRunSpec:
    def test_build_resolves_defaults(self):
        spec = RunSpec.build(
            _profiles()[0], SchemeKind.STT, 1000, RunConfig(threads=2)
        )
        assert spec.params == SystemParams(num_cores=2)
        assert spec.warmup_uops == 400
        assert spec.threads == 2

    def test_store_key_differs_across_schemes(self):
        config = RunConfig()
        profile = _profiles()[0]
        a = RunSpec.build(profile, SchemeKind.UNSAFE, 1000, config)
        b = RunSpec.build(profile, SchemeKind.STT, 1000, config)
        assert a.key() != b.key()


class TestExecuteSpecs:
    """:func:`run_specs` results and records come back in spec order."""

    def test_results_in_spec_order(self):
        config = RunConfig()
        specs = [
            RunSpec.build(profile, scheme, 700, config)
            for profile in _profiles()
            for scheme in SCHEMES
        ]
        results, suite = run_specs(specs, jobs=1)
        records = suite.records
        assert [r.profile.name for r in results] == ["gcc", "gcc", "lbm", "lbm"]
        assert [r.scheme for r in results] == [
            SchemeKind.UNSAFE,
            SchemeKind.STT,
            SchemeKind.UNSAFE,
            SchemeKind.STT,
        ]
        assert len(records) == 4
        assert all(record.wall_time_s > 0 for record in records)
        assert all(record.uops_per_sec > 0 for record in records)

    def test_store_short_circuits_execution(self, tmp_path):
        config = RunConfig()
        specs = [RunSpec.build(_profiles()[0], SchemeKind.UNSAFE, 700, config)]
        store = ResultStore(tmp_path)
        first, _ = run_specs(specs, store=store)
        again, suite = run_specs(specs, store=store)
        assert suite.records[0].from_store
        assert first[0].cycles == again[0].cycles


class TestRunSuiteIntegration:
    def test_run_suite_parallel_matches_serial(self):
        serial = run_suite(_profiles(), SCHEMES, 800, jobs=1)
        parallel = run_suite(_profiles(), SCHEMES, 800, jobs=2)
        assert isinstance(parallel, SuiteResult)
        for key in serial:
            assert serial[key].cycles == parallel[key].cycles

    def test_caller_trace_cache_is_reused_across_calls(self):
        # The inline backend keeps the caller's cache instead of owning
        # and clearing one, so five schemes over two calls build the
        # benchmark's trace once.
        cache = TraceCache()
        schemes = (
            SchemeKind.UNSAFE,
            SchemeKind.NDA,
            SchemeKind.NDA_RECON,
            SchemeKind.STT,
            SchemeKind.STT_RECON,
        )
        mcf = get_benchmark("spec2017", "mcf")
        for _ in range(2):
            suite = run_suite([mcf], schemes, 400, config=RunConfig(cache=cache))
            assert len(suite) == len(schemes)
        assert cache.misses == 1

    def test_fail_fast_error_at_one_job_carries_worker_traceback(
        self, monkeypatch
    ):
        import repro.sim.backends.base as base_mod

        def oom(spec, cache=None):
            raise MemoryError("injected")

        # Not chaos: a chaos spec would make run_specs supervise.
        monkeypatch.setattr(base_mod, "execute_run", oom)
        specs = [
            RunSpec.build(_profiles()[0], SchemeKind.UNSAFE, 400, RunConfig())
        ]
        with pytest.raises(TaskFailedError) as info:
            run_specs(specs, jobs=1)
        assert info.value.error_type == "MemoryError"
        assert "Traceback" in info.value.traceback_text

    def test_run_suite_reads_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        suite = run_suite(_profiles()[:1], SCHEMES, 700)
        assert len(suite) == 2
        assert all(result.ipc > 0 for result in suite.values())


class TestSeededFanOut:
    def test_seeds_parallel_matches_serial(self):
        from repro.sim import run_benchmark_seeds

        profile = get_benchmark("spec2017", "gcc")
        serial = run_benchmark_seeds(
            profile, SchemeKind.UNSAFE, 900, seeds=(1, 2, 3), jobs=1
        )
        parallel = run_benchmark_seeds(
            profile, SchemeKind.UNSAFE, 900, seeds=(1, 2, 3), jobs=3
        )
        assert serial.ipcs == parallel.ipcs
        assert [r.profile.seed for r in serial.runs] == [1, 2, 3]
