"""Tests for RunConfig, the retired legacy kwargs, and the bounded TraceCache."""

import pytest

from repro.common import SchemeKind, SystemParams
from repro.sim import RunConfig, TraceCache, run_benchmark, run_suite
from repro.workloads import get_benchmark


class TestRunConfig:
    def test_frozen(self):
        config = RunConfig()
        with pytest.raises(Exception):
            config.threads = 4

    def test_resolved_params_defaults_to_thread_count(self):
        assert RunConfig(threads=4).resolved_params() == SystemParams(
            num_cores=4
        )
        explicit = SystemParams(lpt_entries=8)
        assert RunConfig(params=explicit).resolved_params() is explicit

    def test_resolved_warmup_defaults_to_40_percent(self):
        assert RunConfig().resolved_warmup(1000) == 400
        assert RunConfig(warmup_uops=7).resolved_warmup(1000) == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(threads=0)
        with pytest.raises(ValueError):
            RunConfig(warmup_uops=-1)

    def test_cache_excluded_from_equality(self):
        assert RunConfig(cache=TraceCache()) == RunConfig(cache=TraceCache())

    def test_replace(self):
        assert RunConfig().replace(threads=2).threads == 2


class TestDeprecationShim:
    """The legacy per-knob kwargs are retired: ``config=`` is the only path."""

    def test_mixing_config_and_legacy_kwargs_is_an_error(self):
        profile = get_benchmark("spec2017", "gcc")
        with pytest.raises(TypeError):
            run_benchmark(
                profile,
                SchemeKind.UNSAFE,
                800,
                config=RunConfig(),
                threads=2,
            )

    def test_legacy_kwargs_are_type_errors(self):
        profile = get_benchmark("spec2017", "gcc")
        with pytest.raises(TypeError):
            run_benchmark(profile, SchemeKind.UNSAFE, 800, cache=TraceCache())
        with pytest.raises(TypeError):
            run_suite([profile], (SchemeKind.UNSAFE,), 700, warmup_uops=0)

    def test_config_path_does_not_warn(self, recwarn):
        profile = get_benchmark("spec2017", "gcc")
        run_benchmark(
            profile, SchemeKind.UNSAFE, 800, config=RunConfig(warmup_uops=0)
        )
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]


class TestTraceCacheBudget:
    def test_entry_budget_evicts_lru(self):
        cache = TraceCache(max_entries=2)
        gcc = get_benchmark("spec2017", "gcc")
        lbm = get_benchmark("spec2017", "lbm")
        mcf = get_benchmark("spec2017", "mcf")
        cache.get(gcc, 1, 600)
        cache.get(lbm, 1, 600)
        cache.get(gcc, 1, 600)  # refresh gcc: lbm is now LRU
        cache.get(mcf, 1, 600)
        assert len(cache) == 2
        hits = cache.hits
        cache.get(gcc, 1, 600)
        assert cache.hits == hits + 1  # survivor
        misses = cache.misses
        cache.get(lbm, 1, 600)
        assert cache.misses == misses + 1  # evicted

    def test_byte_budget_evicts(self):
        cache = TraceCache(max_bytes=1)  # everything over budget
        gcc = get_benchmark("spec2017", "gcc")
        lbm = get_benchmark("spec2017", "lbm")
        cache.get(gcc, 1, 600)
        cache.get(lbm, 1, 600)
        # The newest entry always survives; older ones are evicted.
        assert len(cache) == 1

    def test_reuses_within_budget(self):
        cache = TraceCache()
        gcc = get_benchmark("spec2017", "gcc")
        first = cache.get(gcc, 1, 600)
        second = cache.get(gcc, 1, 600)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_clear(self):
        cache = TraceCache()
        cache.get(get_benchmark("spec2017", "gcc"), 1, 600)
        cache.clear()
        assert len(cache) == 0
        assert cache.approx_bytes == 0

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            TraceCache(max_entries=0)
        with pytest.raises(ValueError):
            TraceCache(max_bytes=0)
