"""Parity gate for the hot-path backends.

The optimized loop (:class:`repro.core.fastcore.FastCore`) merges only
if it is *bit-identical* to the reference loop on every stat: the
checked-in golden (captured from the pre-optimization pipeline), a
direct legacy-vs-vector A/B on fresh runs, and a hypothesis sweep over
randomized configurations all compare :class:`~repro.common.stats.StatSet`
field-for-field.  Backend selection (``REPRO_HOTPATH``) and the
vectorized kernels get unit coverage here too.
"""

import dataclasses
import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import SchemeKind, StatSet, SystemParams
from repro.common.params import MemoryTimingParams
from repro.core.fastcore import FastCore
from repro.core.hotpath import (
    BACKENDS,
    HOTPATH_ENV,
    HAVE_COMPILED,
    core_class,
    count_unready,
    resolve_backend,
    sort_ready,
)
from repro.core.pipeline import Core
from repro.memory import MemoryHierarchy
from repro.security import make_policy
from repro.sim import RunConfig, System, TraceCache, run_benchmark
from repro.telemetry.events import TelemetryCollector, TelemetryConfig
from repro.workloads import build_trace, get_benchmark

from tests.core.hotpath_driver import CELLS, GOLDEN_PATH, cell_key, run_one


def _forced(profile, scheme, length, backend, cache, threads=1, params=None):
    """Run one cell with the backend pinned; restores the environment."""
    saved = os.environ.get(HOTPATH_ENV)
    os.environ[HOTPATH_ENV] = backend
    try:
        return run_benchmark(
            profile,
            scheme,
            length,
            config=RunConfig(threads=threads, cache=cache, params=params),
        )
    finally:
        if saved is None:
            os.environ.pop(HOTPATH_ENV, None)
        else:
            os.environ[HOTPATH_ENV] = saved


class TestGoldenParity:
    """The selected backend reproduces the pre-optimization golden."""

    def test_every_golden_cell_is_bit_identical(self):
        golden = json.load(open(GOLDEN_PATH))["runs"]
        cache = TraceCache()
        for cell in CELLS:
            key = cell_key(*cell)
            record = run_one(*cell, cache=cache)
            expected = golden[key]
            assert record["cycles"] == expected["cycles"], key
            assert record["stats"] == expected["stats"], key
            assert record["per_core"] == expected["per_core"], key


class TestBackendParity:
    """legacy and vector agree field-for-field on fresh runs."""

    @pytest.mark.parametrize(
        "scheme",
        [SchemeKind.UNSAFE, SchemeKind.STT_RECON, SchemeKind.DOM_RECON],
    )
    def test_legacy_vs_vector_single_core(self, scheme):
        profile = get_benchmark("spec2017", "mcf")
        cache = TraceCache()
        legacy = _forced(profile, scheme, 3000, "legacy", cache)
        vector = _forced(profile, scheme, 3000, "vector", cache)
        assert vector.cycles == legacy.cycles
        assert vector.stats.as_dict() == legacy.stats.as_dict()
        assert [s.as_dict() for s in vector.per_core] == [
            s.as_dict() for s in legacy.per_core
        ]

    def test_legacy_vs_vector_multicore(self):
        profile = get_benchmark("parsec", "canneal")
        cache = TraceCache()
        legacy = _forced(
            profile, SchemeKind.STT_RECON, 2400, "legacy", cache, threads=2
        )
        vector = _forced(
            profile, SchemeKind.STT_RECON, 2400, "vector", cache, threads=2
        )
        assert vector.cycles == legacy.cycles
        assert vector.stats.as_dict() == legacy.stats.as_dict()

    @settings(max_examples=8, deadline=None)
    @given(
        bench=st.sampled_from(["mcf", "gcc", "omnetpp", "xalancbmk"]),
        scheme=st.sampled_from(
            [
                SchemeKind.UNSAFE,
                SchemeKind.STT,
                SchemeKind.STT_RECON,
                SchemeKind.NDA_RECON,
                SchemeKind.DOM_RECON,
                SchemeKind.INVISPEC,
            ]
        ),
        length=st.integers(min_value=400, max_value=1600),
    )
    def test_randomized_config_parity(self, bench, scheme, length):
        profile = get_benchmark("spec2017", bench)
        cache = TraceCache()
        legacy = _forced(profile, scheme, length, "legacy", cache)
        vector = _forced(profile, scheme, length, "vector", cache)
        assert vector.cycles == legacy.cycles
        assert vector.stats.as_dict() == legacy.stats.as_dict()


class TestBoundedTimingParity:
    """A bounded timing knob turns the packet-free memory path off.

    Each cell bounds one :class:`MemoryTimingParams` knob; the reference
    loop submits every access as a packet, so any access the optimized
    loop wrongly kept off the transaction engine would miss its port,
    MSHR, link or DRAM queueing and change the stats.
    """

    @pytest.mark.parametrize(
        "knob, value, stall_field",
        [
            ("port_width", 1, "port_stall_cycles"),
            ("mshr_entries", 2, "mshr_stall_cycles"),
            ("noc_link_width", 1, "noc_queue_cycles"),
            ("dram_queue_depth", 1, "dram_queue_cycles"),
        ],
    )
    def test_legacy_vs_vector_with_one_bound(self, knob, value, stall_field):
        base = SystemParams()
        timing = MemoryTimingParams(**{knob: value})
        params = dataclasses.replace(
            base, memory=dataclasses.replace(base.memory, timing=timing)
        )
        profile = get_benchmark("parsec", "canneal")
        cache = TraceCache()
        runs = [
            _forced(
                profile, SchemeKind.STT_RECON, 2400, backend, cache,
                threads=2, params=params,
            )
            for backend in ("legacy", "vector")
        ]
        legacy, vector = runs
        assert vector.cycles == legacy.cycles
        assert vector.stats.as_dict() == legacy.stats.as_dict()
        assert [s.as_dict() for s in vector.per_core] == [
            s.as_dict() for s in legacy.per_core
        ]
        # The bound actually bit: the cell is not contention-free in effect.
        assert getattr(legacy.stats, stall_field) > 0


class TestBackendSelection:
    def test_unknown_backend_is_value_error(self):
        with pytest.raises(ValueError, match="unknown hot-path backend"):
            resolve_backend("turbo")

    def test_legacy_selects_reference_core(self):
        assert core_class("legacy") is Core

    def test_vector_selects_fastcore(self):
        assert core_class("vector") is FastCore

    def test_auto_prefers_compiled_when_built(self):
        resolved = resolve_backend("auto")
        assert resolved == ("compiled" if HAVE_COMPILED else "vector")

    @pytest.mark.skipif(HAVE_COMPILED, reason="compiled kernel is built here")
    def test_compiled_without_build_warns_and_falls_back(self):
        with pytest.warns(RuntimeWarning, match="no compiled kernel"):
            assert resolve_backend("compiled") == "vector"

    def test_env_variable_drives_selection(self, monkeypatch):
        monkeypatch.setenv(HOTPATH_ENV, "legacy")
        assert core_class() is Core
        monkeypatch.setenv(HOTPATH_ENV, "vector")
        assert core_class() is FastCore

    def test_backends_list_is_exhaustive(self):
        assert set(BACKENDS) == {"auto", "vector", "legacy", "compiled"}


class TestTelemetryGuard:
    """Traced runs must use the reference loop, never FastCore."""

    def test_fastcore_refuses_telemetry(self):
        profile = get_benchmark("spec2017", "gcc")
        trace = build_trace(profile, 300).trace()
        params = SystemParams()
        stats = StatSet()
        with pytest.raises(ValueError, match="no telemetry"):
            FastCore(
                0,
                params,
                list(trace),
                MemoryHierarchy(params),
                make_policy(SchemeKind.UNSAFE, stats),
                stats,
                telemetry=TelemetryCollector(TelemetryConfig()),
            )

    def test_system_with_telemetry_uses_reference_core(self):
        profile = get_benchmark("spec2017", "gcc")
        traces = [build_trace(profile, 300).trace()]
        system = System(
            SystemParams(), traces, SchemeKind.UNSAFE,
            telemetry=TelemetryConfig(),
        )
        assert all(type(core) is Core for core in system.cores)

    def test_system_without_telemetry_uses_fast_backend(self, monkeypatch):
        monkeypatch.setenv(HOTPATH_ENV, "vector")
        profile = get_benchmark("spec2017", "gcc")
        traces = [build_trace(profile, 300).trace()]
        system = System(SystemParams(), traces, SchemeKind.UNSAFE)
        assert all(type(core) is FastCore for core in system.cores)


class _FakeInst:
    __slots__ = ("seq",)

    def __init__(self, seq):
        self.seq = seq


class TestVectorKernels:
    """The numpy kernels match their naive counterparts at every size."""

    @pytest.mark.parametrize("n", [0, 1, 5, 63, 64, 65, 300])
    def test_sort_ready_matches_sorted(self, n):
        rng = random.Random(n)
        seqs = list(range(n))
        rng.shuffle(seqs)
        insts = [_FakeInst(seq) for seq in seqs]
        result = sort_ready(list(insts))
        assert [inst.seq for inst in result] == sorted(seqs)

    @pytest.mark.parametrize("n_phys", [0, 1, 3, 15, 16, 40])
    def test_count_unready_matches_naive(self, n_phys):
        rng = random.Random(n_phys)
        ready = [rng.random() < 0.5 for _ in range(64)]
        phys = [rng.randrange(64) for _ in range(n_phys)]
        naive = sum(1 for reg in phys if not ready[reg])
        assert count_unready(ready, phys) == naive
