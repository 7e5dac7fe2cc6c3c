"""Tests for the stable ``repro.api`` facade."""

import pytest

from repro.api import (
    FaultPolicy,
    RunConfig,
    RunFailure,
    RunRecord,
    RunRequest,
    RunResult,
    SchemeKind,
    SuiteResult,
    TelemetryConfig,
    load_result,
    run_single,
    run_suite,
)
from repro.sim import TraceCache
from repro.sim.backends import TaskFailedError
from repro.sim.chaos import ChaosConfig
from repro.sim.store import ResultStore
from repro.workloads import get_benchmark


class TestRunRequest:
    def test_resolve_string_forms(self):
        spec = RunRequest("spec2017/mcf", "stt+recon", 800).resolve()
        assert spec.profile.label == "spec2017/mcf"
        assert spec.scheme is SchemeKind.STT_RECON
        assert spec.length == 800

    def test_resolve_object_forms(self):
        profile = get_benchmark("spec2017", "gcc")
        spec = RunRequest(profile, SchemeKind.UNSAFE, 600).resolve()
        assert spec.profile is profile
        assert spec.scheme is SchemeKind.UNSAFE

    def test_unknown_benchmark_is_value_error(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            RunRequest("spec2017/nope", "unsafe", 800).resolve()

    def test_benchmark_without_suite_is_value_error(self):
        with pytest.raises(ValueError, match="suite/name"):
            RunRequest("mcf", "unsafe", 800).resolve()

    def test_unknown_scheme_is_value_error(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            RunRequest("spec2017/mcf", "nope", 800).resolve()

    def test_bad_length_is_value_error(self):
        with pytest.raises(ValueError, match="length"):
            RunRequest("spec2017/mcf", "unsafe", 0).resolve()

    def test_config_rides_into_spec(self):
        config = RunConfig(threads=2, warmup_uops=100)
        spec = RunRequest("parsec/canneal", "unsafe", 900, config).resolve()
        assert spec.threads == 2
        assert spec.warmup_uops == 100


class TestRunSingle:
    def test_returns_flat_record(self):
        record = run_single(
            RunRequest("spec2017/gcc", "unsafe", 800), store=False
        )
        assert isinstance(record, RunRecord)
        assert record.benchmark == "spec2017/gcc"
        assert record.scheme is SchemeKind.UNSAFE
        assert record.length == 800
        assert record.cycles > 0
        assert record.ipc > 0
        assert record.stats.committed_uops > 0
        assert len(record.per_core) == 1
        assert not record.from_store
        assert record.telemetry is None

    def test_matches_internal_runner(self):
        from repro.sim import run_benchmark

        record = run_single(
            RunRequest("spec2017/gcc", "stt", 800), store=False
        )
        reference = run_benchmark(
            get_benchmark("spec2017", "gcc"),
            SchemeKind.STT,
            800,
            config=RunConfig(cache=TraceCache()),
        )
        assert record.cycles == reference.cycles
        assert record.stats.as_dict() == reference.stats.as_dict()

    def test_store_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        request = RunRequest("spec2017/lbm", "unsafe", 700)
        first = run_single(request, store=store)
        second = run_single(request, store=store)
        assert not first.from_store
        assert second.from_store
        assert second.key == first.key
        assert second.cycles == first.cycles

    def test_telemetry_enabled_run(self):
        record = run_single(
            RunRequest(
                "spec2017/gcc",
                "stt+recon",
                800,
                RunConfig(telemetry=TelemetryConfig()),
            ),
            store=False,
        )
        assert record.telemetry is not None


class TestRunSuite:
    def test_grid_shape(self):
        requests = [
            RunRequest(f"spec2017/{name}", scheme, 700)
            for name in ("gcc", "mcf")
            for scheme in ("unsafe", "stt+recon")
        ]
        suite = run_suite(requests, store=False)
        assert isinstance(suite, SuiteResult)
        assert len(suite) == 4
        assert suite.get("gcc", SchemeKind.UNSAFE).ipc > 0
        assert suite.get("mcf", SchemeKind.STT_RECON).cycles > 0
        assert suite.ok

    def test_telemetry_override_applies_to_all_cells(self):
        suite = run_suite(
            [RunRequest("spec2017/gcc", "unsafe", 700)],
            telemetry=True,
            store=False,
        )
        result = suite.get("gcc", SchemeKind.UNSAFE)
        assert result.telemetry is not None

    def test_supervised_path_collects_failures(self):
        suite = run_suite(
            [RunRequest("spec2017/gcc", "unsafe", 700)],
            supervise=FaultPolicy(retries=0),
            jobs=1,
            store=False,
        )
        assert suite.ok
        assert suite.get("gcc", SchemeKind.UNSAFE) is not None

    def test_supervise_true_uses_default_policy(self):
        suite = run_suite(
            [RunRequest("spec2017/gcc", "unsafe", 700)],
            supervise=True,
            jobs=1,
            store=False,
        )
        assert suite.ok


class TestChaosIsSupervised:
    """Chaos means supervision on every entry point, as in ``run_grid``."""

    CHAOS = RunConfig(chaos=ChaosConfig(seed=1, oom=1.0))

    def test_run_suite_records_failure_and_stores_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        suite = run_suite(
            [RunRequest("spec2017/mcf", "stt", 400, self.CHAOS)], store=store
        )
        assert not suite.ok
        assert len(suite) == 0
        [failure] = suite.failures
        assert isinstance(failure, RunFailure)
        assert failure.error_type == "MemoryError"
        assert failure.attempts == FaultPolicy().retries + 1
        assert len(store) == 0

    def test_run_single_raises_task_failed(self, tmp_path):
        request = RunRequest("spec2017/mcf", "stt", 400, self.CHAOS)
        with pytest.raises(TaskFailedError, match="MemoryError"):
            run_single(request, store=ResultStore(tmp_path / "store"))


class TestLoadResult:
    def test_round_trip_via_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        record = run_single(RunRequest("spec2017/gcc", "unsafe", 800))
        loaded = load_result(record.key)
        assert isinstance(loaded, RunResult)
        assert loaded.cycles == record.cycles
        assert loaded.stats.as_dict() == record.stats.as_dict()

    def test_absent_key_is_none(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        assert load_result("0" * 16) is None

    def test_store_disabled_is_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "off")
        assert load_result("0" * 16) is None
