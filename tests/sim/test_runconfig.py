"""Tests for RunConfig, the retired legacy kwargs, the bounded TraceCache
and its length prefixes, and the result-store key."""

import gc
import random
import tracemalloc

import pytest

from repro.common import SchemeKind, SystemParams
from repro.sampling import parse_sampling
from repro.sim import RunConfig, TraceCache, run_benchmark, run_suite
from repro.sim.store import run_key
from repro.workloads import all_benchmarks, get_benchmark
from repro.workloads.kernels import build_parallel_traces, build_trace


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


def _traced_bytes(fn):
    """``(result, bytes fn left allocated)`` under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        gc.collect()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestTraceMemory:
    """What a cached trace costs, and what the cache's budget counts."""

    LENGTH = 30_000

    def test_spec2017_trace_built_after_another_is_small(self):
        TraceCache().get(get_benchmark("spec2017", "gcc"), 1, self.LENGTH)
        cache = TraceCache()
        mcf = get_benchmark("spec2017", "mcf")
        traces, used = _traced_bytes(lambda: cache.get(mcf, 1, self.LENGTH))
        # 208-224 B/uop while every uop held its own seq and pc ints,
        # about 153 while a trace was a list of MicroOps sharing them.
        assert used / len(traces[0]) <= 40

    @pytest.mark.parametrize(
        "suite,name,threads", [("spec2017", "xz", 1), ("parsec", "canneal", 4)]
    )
    def test_budget_counts_a_trace_and_its_decode(self, suite, name, threads):
        profile = get_benchmark(suite, name)
        length = self.LENGTH // threads
        # Another trace and decode first, as in a running grid: the
        # decoder's module and the builder's caches already exist.
        TraceCache().get_decoded(
            get_benchmark("spec2017", "gcc"), 1, self.LENGTH, 32, 224
        )
        cache = TraceCache()
        _, used = _traced_bytes(
            lambda: cache.get_decoded(profile, threads, length, 32, 224)
        )
        assert cache.approx_bytes == pytest.approx(used, rel=0.15)


#: The MicroOp fields a prefix must match a fresh build in.
_UOP_FIELDS = (
    "opclass", "srcs", "data_srcs", "dest", "addr", "pc", "seq",
    "mispredict", "value", "forced_prediction",
)


def _uops(traces):
    return [
        [tuple(getattr(uop, name) for name in _UOP_FIELDS) for uop in trace]
        for trace in traces
    ]


def _fresh(profile, threads, length):
    if threads == 1:
        return [build_trace(profile, length).trace()]
    return [prog.trace() for prog in build_parallel_traces(profile, threads, length)]


class TestTracePrefixes:
    @pytest.mark.parametrize("threads", [1, 4])
    def test_prefix_equals_fresh_build(self, threads):
        """Every answer, rising or falling, is what a fresh build makes."""
        for profile in all_benchmarks():
            rng = random.Random(f"{profile.label}:{threads}")
            lengths = sorted(rng.sample(range(20, 400), 3))
            fresh = {n: _uops(_fresh(profile, threads, n)) for n in lengths}
            cache = TraceCache()
            for length in lengths + lengths[::-1]:
                got = cache.get(profile, threads, length)
                assert _uops(got) == fresh[length], (profile.label, threads, length)
                # A repeated ask returns the very same lists.
                assert cache.get(profile, threads, length) is got
            # Only rising lengths can rebuild; falling ones are prefixes.
            assert cache.misses <= len(lengths)
            assert len(cache) == 1

    def test_longer_request_rebuilds_at_twice_the_length(self):
        cache = TraceCache()
        gcc = get_benchmark("spec2017", "gcc")
        cache.get(gcc, 1, 300)
        cache.get(gcc, 1, 301)
        assert cache.misses == 2
        cache.get(gcc, 1, 600)  # served by the 600-uop rebuild
        assert cache.misses == 2 and cache.hits == 1
        cache.get(gcc, 1, 5000)  # past twice: built at the asked length
        cache.get(gcc, 1, 5000)
        assert cache.misses == 3 and cache.hits == 2
        assert len(cache) == 1

    def test_gadget_traces_keep_per_length_keys(self):
        cache = TraceCache()
        gadget = get_benchmark("gadgets", "v1_bounds_bypass")
        short = cache.get(gadget, 1, 200)
        long = cache.get(gadget, 1, 400)
        assert len(cache) == 2 and cache.misses == 2
        assert cache.get(gadget, 1, 200) is short
        assert _uops(long) == _uops(_fresh(gadget, 1, 400))


class TestRunKey:
    def test_keys_match_existing_stores(self):
        """Store keys are the hex digests earlier versions wrote."""
        mcf = get_benchmark("spec2017", "mcf")
        params = SystemParams(num_cores=1)
        assert run_key(mcf, SchemeKind.STT, 1500, 1, params, 600) == (
            "9b45097b40e74955060f41c1c2e90ae49d6e14a08a43b420e28b8bb9e9215a9f"
        )
        # Twice, through the canonical-params memo.
        assert run_key(mcf, SchemeKind.STT, 1500, 1, params, 600) == (
            "9b45097b40e74955060f41c1c2e90ae49d6e14a08a43b420e28b8bb9e9215a9f"
        )
        canneal = get_benchmark("parsec", "canneal")
        four = SystemParams(num_cores=4, lpt_entries=16)
        assert run_key(canneal, SchemeKind("nda+recon"), 6000, 4, four, 2400) == (
            "f7d9ed8e765a902ce49454d9bcac80fb9790cf61da78b5ef0e62f8e6a51cb4e7"
        )
        # Sampled keys hash every SamplingConfig field.
        sampled = parse_sampling("ci=0.02,conf=0.95")
        assert run_key(
            mcf, SchemeKind.UNSAFE, 30000, 1, SystemParams(), 12000,
            sampling=sampled,
        ) == "409bc4ab187b40d380f4142d77a56cedbb373d3a61461cd2c3bade964637a374"
