"""Unit tests for the synthetic workload generator."""

import hashlib
import json
import weakref
from pathlib import Path

import pytest

from repro.analysis import Clueless
from repro.common import OpClass
from repro.common.gcpause import gc_paused
from repro.sim import TraceCache
from repro.workloads import (
    BenchmarkProfile,
    WorkloadBuilder,
    all_benchmarks,
    build_parallel_traces,
    build_trace,
    get_benchmark,
    parsec_suite,
    spec2006_suite,
    spec2017_suite,
)
from repro.workloads.gadgets import gadget_profiles, get_gadget


class TestSuites:
    def test_suite_sizes(self):
        assert len(spec2017_suite()) >= 14
        assert len(spec2006_suite()) >= 10
        assert len(parsec_suite()) >= 8

    def test_unique_labels(self):
        labels = [p.label for p in all_benchmarks()]
        assert len(labels) == len(set(labels))

    def test_get_benchmark(self):
        profile = get_benchmark("spec2017", "mcf")
        assert profile.name == "mcf"
        with pytest.raises(KeyError):
            get_benchmark("spec2017", "doom")

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            BenchmarkProfile(name="bad", suite="x", kernel_weights={"nope": 1.0})
        with pytest.raises(ValueError):
            BenchmarkProfile(name="bad", suite="x", kernel_weights={})


class TestTraceGeneration:
    def test_finished_builder_is_freed_without_the_collector(self):
        """A builder is no reference cycle: its memory image goes the
        moment the last reference does, not at the next collection."""
        builder = WorkloadBuilder(get_benchmark("spec2017", "mcf"))
        program = builder.build(500)
        ref = weakref.ref(builder)
        with gc_paused():
            del builder
            assert ref() is None
        assert len(program) >= 500

    def test_reaches_requested_length(self):
        profile = get_benchmark("spec2017", "gcc")
        trace = build_trace(profile, 2000).trace()
        assert len(trace) >= 2000

    def test_deterministic(self):
        profile = get_benchmark("spec2017", "xalancbmk")
        a = build_trace(profile, 1500).trace()
        b = build_trace(profile, 1500).trace()
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert (x.opclass, x.dest, x.srcs, x.addr, x.mispredict) == (
                y.opclass,
                y.dest,
                y.srcs,
                y.addr,
                y.mispredict,
            )

    def test_different_seeds_differ(self):
        import dataclasses

        profile = get_benchmark("spec2017", "gcc")
        other = dataclasses.replace(profile, seed=999)
        a = build_trace(profile, 1000).trace()
        b = build_trace(other, 1000).trace()
        assert any(
            x.addr != y.addr for x, y in zip(a, b) if x.opclass is OpClass.LOAD
        )

    def test_pointer_chase_has_real_dereferences(self):
        """The chase loads real pointers: loaded value == next address."""
        profile = get_benchmark("spec2017", "mcf")
        prog = build_trace(profile, 1000)
        report = Clueless().run(prog.trace())
        assert report.pair_leaked_words > 10

    def test_streaming_benchmark_has_no_pairs(self):
        profile = get_benchmark("spec2017", "lbm")
        prog = build_trace(profile, 2000)
        report = Clueless().run(prog.trace())
        assert report.pair_fraction < 0.02

    def test_pair_coverage_ordering_matches_paper(self):
        """gcc/mcf/xalancbmk: pairs ~= all leakage; deepsjeng: much less."""
        def coverage(name):
            profile = get_benchmark("spec2017", name)
            return Clueless().run(build_trace(profile, 4000).trace()).pair_coverage

        assert coverage("gcc") > 0.85
        assert coverage("mcf") > 0.85
        assert coverage("xalancbmk") > 0.85
        assert coverage("deepsjeng") < coverage("gcc")

    def test_mix_contains_expected_opclasses(self):
        profile = get_benchmark("spec2017", "xalancbmk")
        trace = build_trace(profile, 3000).trace()
        classes = {op.opclass for op in trace}
        assert OpClass.LOAD in classes
        assert OpClass.BRANCH in classes
        assert OpClass.ALU in classes


class TestParallelTraces:
    def test_one_trace_per_thread(self):
        profile = get_benchmark("parsec", "canneal")
        traces = build_parallel_traces(profile, num_threads=4, length=800)
        assert len(traces) == 4
        assert all(len(t) >= 800 for t in traces)

    def test_threads_share_addresses(self):
        """canneal threads chase the same shared pointer structures."""
        profile = get_benchmark("parsec", "canneal")
        traces = build_parallel_traces(profile, num_threads=2, length=2000)

        def load_addrs(prog):
            return {
                op.addr for op in prog.trace() if op.opclass is OpClass.LOAD
            }

        shared = load_addrs(traces[0]) & load_addrs(traces[1])
        assert len(shared) > 20

    def test_private_benchmark_shares_little(self):
        profile = get_benchmark("parsec", "swaptions")
        traces = build_parallel_traces(profile, num_threads=2, length=2000)

        def mem_addrs(prog):
            return {op.addr for op in prog.trace() if op.addr is not None}

        shared = mem_addrs(traces[0]) & mem_addrs(traces[1])
        total = len(mem_addrs(traces[0])) or 1
        assert len(shared) / total < 0.35

    def test_thread_streams_differ(self):
        profile = get_benchmark("parsec", "canneal")
        a, b = build_parallel_traces(profile, num_threads=2, length=1000)
        ops_a = [(op.opclass, op.addr) for op in a.trace()[:500]]
        ops_b = [(op.opclass, op.addr) for op in b.trace()[:500]]
        assert ops_a != ops_b


def trace_digest(traces):
    """SHA-256 over every field of every uop, threads in order."""
    digest = hashlib.sha256()
    for trace in traces:
        for op in trace:
            pred = op.forced_prediction
            record = (
                op.seq,
                op.pc,
                op.opclass.value,
                op.dest,
                op.srcs,
                op.data_srcs,
                op.addr,
                op.value,
                op.mispredict,
                None if pred is None else pred.value,
            )
            digest.update(repr(record).encode())
    return digest.hexdigest()


class TestTraceContentPinned:
    """Generated traces are byte-for-byte what the generator always made.

    The digests were captured before trace emission was optimized; every
    result the simulator reports is a function of these uop streams.
    """

    def test_spec2017_mcf(self):
        trace = build_trace(get_benchmark("spec2017", "mcf"), 30000).trace()
        assert trace_digest([trace]) == (
            "781f4b14ff5768cf361cdb6d6b70da287afb59d84e4b7d39a45903778a407d60"
        )

    def test_parsec_canneal_four_threads(self):
        programs = build_parallel_traces(get_benchmark("parsec", "canneal"), 4, 4000)
        assert trace_digest([p.trace() for p in programs]) == (
            "142692911cef718b56f78c060f35967119403538dac230b521ef706ac837d564"
        )


def _thread_counts(profile):
    if profile.suite == "gadgets":
        return (get_gadget(profile.name).threads,)
    return (1, 4) if profile.suite == "parsec" else (1,)


#: One digest per profile and thread count the suites run, captured
#: before the trace emitter was last optimized.
_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "data" / "trace_digests.json").read_text()
)


class TestEveryTracePinned:
    """Every SPEC2017, SPEC2006 and PARSEC profile (PARSEC at 1 and 4
    threads) and every gadget at its own thread count emits exactly the
    uops it emitted when the digests were captured."""

    @pytest.mark.parametrize(
        "profile",
        spec2017_suite() + spec2006_suite() + parsec_suite() + gadget_profiles(),
        ids=lambda profile: profile.label,
    )
    def test_trace_digest(self, profile):
        for threads in _thread_counts(profile):
            traces = TraceCache().get(profile, threads, _DIGESTS["length"])
            assert trace_digest(traces) == (
                _DIGESTS["digests"][f"{profile.label}x{threads}"]
            ), threads

    def test_covers_every_profile(self):
        labels = {
            f"{profile.label}x{threads}"
            for profile in spec2017_suite()
            + spec2006_suite()
            + parsec_suite()
            + gadget_profiles()
            for threads in _thread_counts(profile)
        }
        assert labels == set(_DIGESTS["digests"])


class TestSequenceNumbers:
    """A core numbers each uop by its position in its trace, while the
    oracle and the red-team transmitter match read ``uop.seq``: the two
    agree on every trace the simulator is handed."""

    @pytest.mark.parametrize(
        "profile",
        spec2017_suite() + spec2006_suite() + parsec_suite() + gadget_profiles(),
        ids=lambda profile: profile.label,
    )
    def test_seq_is_position(self, profile):
        for threads in _thread_counts(profile):
            traces = TraceCache().get(profile, threads, 400)
            assert len(traces) == threads
            for trace in traces:
                assert [uop.seq for uop in trace] == list(range(len(trace)))
