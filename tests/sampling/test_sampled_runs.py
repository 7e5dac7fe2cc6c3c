"""End-to-end sampled runs: runner, engine, backends, store, golden parity.

The two determinism contracts of the tentpole live here:

* exact mode (``sampling=None``) is bit-identical to the pre-sampling
  golden suite committed under ``tests/data/``, and
* sampled mode is itself deterministic — every execution backend (and a
  store replay) produces the same estimate to the last bit.
"""

import gc
import json
from pathlib import Path

import pytest

from repro import SchemeKind
from repro.api import RunRequest, run_single, run_suite
from repro.common.gcpause import gc_paused
from repro.sampling import SampledEstimate, SamplingConfig
from repro.sampling import executor
from repro.sampling.executor import _measure_unit, _unit_grid, get_warm_images
from repro.sim import RunConfig, TraceCache, run_benchmark
from repro.sim.engine import RunSpec, run_specs
from repro.sim.store import ResultStore
from repro.workloads import get_benchmark

GOLDEN = Path(__file__).parent.parent / "data" / "suite_exact_golden.json"

LENGTH = 1_200
SAMPLING = SamplingConfig()


def _sampled_specs(names=("mcf", "gcc"), schemes=(SchemeKind.UNSAFE, SchemeKind.STT)):
    config = RunConfig(sampling=SAMPLING)
    return [
        RunSpec.build(get_benchmark("spec2017", name), scheme, LENGTH, config)
        for name in names
        for scheme in schemes
    ]


class TestSampledRunBenchmark:
    def test_result_carries_estimate(self):
        profile = get_benchmark("spec2017", "mcf")
        result = run_benchmark(
            profile,
            SchemeKind.UNSAFE,
            LENGTH,
            config=RunConfig(sampling=SAMPLING),
        )
        assert result.estimated
        est = result.sampling
        assert isinstance(est, SampledEstimate)
        assert est.samples >= SAMPLING.min_units
        assert est.ipc > 0.0
        assert est.ipc_ci > 0.0
        # cycles is rounded to an integer, so RunResult.ipc differs from
        # the estimator mean by at most half a cycle over the region.
        assert result.ipc == pytest.approx(est.ipc, rel=2e-3)
        assert 0 < est.detailed_uops < est.total_uops
        # Trace builders may round the length up to a kernel boundary.
        assert est.total_uops >= LENGTH
        assert set(est.leakage) == {
            "load_pairs_detected",
            "reveal_hits",
            "delayed_loads",
        }

    def test_sampled_run_is_deterministic(self):
        profile = get_benchmark("spec2017", "gcc")
        config = RunConfig(sampling=SAMPLING)
        a = run_benchmark(profile, SchemeKind.STT, LENGTH, config=config)
        b = run_benchmark(profile, SchemeKind.STT, LENGTH, config=config)
        assert a.sampling == b.sampling
        assert a.cycles == b.cycles
        assert a.stats.as_dict() == b.stats.as_dict()

    def test_cold_warmup_mode_runs(self):
        profile = get_benchmark("spec2017", "mcf")
        cold = run_benchmark(
            profile,
            SchemeKind.UNSAFE,
            LENGTH,
            config=RunConfig(
                sampling=SamplingConfig(warmup_mode="cold")
            ),
        )
        assert cold.estimated
        assert cold.sampling.ipc > 0.0

    def test_exact_run_has_no_estimate(self):
        profile = get_benchmark("spec2017", "mcf")
        result = run_benchmark(profile, SchemeKind.UNSAFE, LENGTH)
        assert not result.estimated
        assert result.sampling is None


class TestExactGoldenParity:
    """Exact mode must stay bit-identical to the committed golden suite."""

    def test_exact_suite_matches_golden(self):
        golden = json.loads(GOLDEN.read_text())
        requests = [
            RunRequest(f"spec2017/{bench}", scheme, golden["length"])
            for bench in ("mcf", "gcc", "xalancbmk")
            for scheme in golden["schemes"]
        ]
        suite = run_suite(requests, store=False)
        payload = json.loads(suite.to_json())
        ours = sorted(
            payload["results"], key=lambda c: (c["bench"], c["scheme"])
        )
        want = sorted(
            golden["results"], key=lambda c: (c["bench"], c["scheme"])
        )
        assert ours == want

    def test_exact_records_omit_sampling_fields(self):
        requests = [RunRequest("spec2017/mcf", "unsafe", LENGTH)]
        suite = run_suite(requests, store=False)
        (record,) = suite.records
        assert not record.estimated
        data = record.as_dict()
        assert "estimated" not in data
        assert "samples" not in data
        assert "ipc_ci" not in data


class TestBackendDeterminism:
    """Sampled estimates are identical on every execution substrate."""

    @pytest.fixture(scope="class")
    def reference(self):
        results, _ = run_specs(_sampled_specs(), jobs=1, backend="inline")
        return results

    @pytest.mark.parametrize("name", ["threads", "process", "queue"])
    def test_backend_matches_inline(self, name, reference):
        results, _ = run_specs(_sampled_specs(), jobs=2, backend=name)
        assert len(results) == len(reference)
        for ours, theirs in zip(results, reference):
            assert ours.sampling == theirs.sampling
            assert ours.cycles == theirs.cycles
            assert ours.stats.as_dict() == theirs.stats.as_dict()


class TestSuiteIntegration:
    def test_run_suite_sampling_override(self):
        requests = [
            RunRequest("spec2017/mcf", scheme, LENGTH)
            for scheme in ("unsafe", "stt")
        ]
        suite = run_suite(requests, sampling="on", store=False)
        assert len(suite) == 2
        for record in suite.records:
            assert record.estimated
            assert record.samples >= SAMPLING.min_units
            assert record.ipc_ci > 0.0
            data = record.as_dict()
            assert data["estimated"] is True
        round_tripped = type(suite).from_json(suite.to_json())
        for key in suite:
            assert round_tripped[key].sampling == suite[key].sampling

    def test_run_suite_rejects_bad_spec(self):
        with pytest.raises(ValueError, match="unknown sampling option"):
            run_suite(
                [RunRequest("spec2017/mcf", "unsafe", LENGTH)],
                sampling="bogus=1",
                store=False,
            )

    def test_run_single_record_properties(self):
        record = run_single(
            RunRequest(
                "spec2017/mcf",
                "unsafe",
                LENGTH,
                config=RunConfig(sampling=SAMPLING),
            ),
            store=False,
        )
        assert record.estimated
        assert record.ipc_ci == record.sampling.ipc_ci
        assert record.ipc == pytest.approx(record.sampling.ipc, rel=2e-3)


class TestStoreRoundTrip:
    def test_sampled_result_memoizes_and_restores(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = _sampled_specs(names=("mcf",), schemes=(SchemeKind.UNSAFE,))
        first, suite_first = run_specs(specs, jobs=1, store=store)
        assert not suite_first.records[0].from_store
        second, suite_second = run_specs(specs, jobs=1, store=store)
        assert suite_second.records[0].from_store
        assert second[0].sampling == first[0].sampling
        assert second[0].stats.as_dict() == first[0].stats.as_dict()

    def test_sampled_and_exact_keys_are_distinct(self, tmp_path):
        store = ResultStore(tmp_path)
        profile = get_benchmark("spec2017", "mcf")
        exact = RunSpec.build(
            profile, SchemeKind.UNSAFE, LENGTH, RunConfig()
        )
        sampled = RunSpec.build(
            profile, SchemeKind.UNSAFE, LENGTH, RunConfig(sampling=SAMPLING)
        )
        assert exact.key() != sampled.key()
        run_specs([exact], jobs=1, store=store)
        # The sampled spec must not be served the exact result.
        results, suite = run_specs([sampled], jobs=1, store=store)
        assert not suite.records[0].from_store
        assert results[0].sampling is not None


class TestUnitsFreedAtOnce:
    """A measured unit leaves no cyclic garbage: when its window closes
    early, the completions still queued (bound methods of its cores)
    are dropped with the run, so reference counting frees the unit's
    system, hierarchy and in-flight instructions at once."""

    @pytest.mark.parametrize("scheme", [SchemeKind.UNSAFE, SchemeKind.STT_RECON])
    def test_every_mcf_grid_unit_leaves_no_cycles(self, scheme):
        length = 30_000
        profile = get_benchmark("spec2017", "mcf")
        sampling = SamplingConfig()
        config = RunConfig(sampling=sampling)
        params = config.resolved_params()
        cache = TraceCache()
        traces = cache.get(profile, 1, length)
        starts, unit_uops = _unit_grid(
            config.resolved_warmup(length),
            length,
            sampling.resolved_unit_uops(length),
            sampling.max_units,
        )
        unit_warm = sampling.resolved_unit_warm(unit_uops)
        offsets = sorted({max(start - unit_warm, 0) for start in starts})
        images = get_warm_images(cache, profile, 1, length, params, offsets)

        def decode(start, stop):
            return cache.get_slice_decodes(
                profile, 1, length, start, stop,
                params.core.arch_regs, params.core.phys_regs,
            )

        gc.collect()
        for start in starts:
            image = images["offsets"][str(max(start - unit_warm, 0))]
            with gc_paused():
                _measure_unit(
                    traces, params, scheme, start, unit_uops, unit_warm,
                    image, decode,
                )
                assert gc.collect() == 0, start


class TestSliceDecodesShared:
    """A sampled row's schemes decode each unit slice once: the trace
    cache keeps every slice's register decode on the trace's entry,
    counted in its bytes beside the row's warm images, and the
    estimates are those of decoding afresh for every scheme."""

    def test_each_slice_is_decoded_once_per_row(self, monkeypatch):
        import repro.core.pipeline as pipeline
        import repro.core.rename as rename
        from repro.sim import runner

        decoded = []
        decode = rename.decode_trace

        def counting(trace, arch_regs, phys_regs):
            decoded.append((trace.start, len(trace)))
            return decode(trace, arch_regs, phys_regs)

        monkeypatch.setattr(rename, "decode_trace", counting)
        monkeypatch.setattr(pipeline, "decode_trace", counting)
        profile = get_benchmark("spec2017", "gcc")
        schemes = (SchemeKind.UNSAFE, SchemeKind.NDA, SchemeKind.STT_RECON)
        cache = TraceCache()
        config = RunConfig(sampling=SAMPLING, cache=cache)
        shared = [run_benchmark(profile, s, 6_000, config=config) for s in schemes]
        assert decoded and len(set(decoded)) == len(decoded)
        entry = next(iter(cache._cache.values()))
        (images,) = [
            value for key, value in entry.derived.items() if type(key) is str
        ]
        assert cache.approx_bytes == entry.approx_bytes == (
            sum(map(len, entry.traces)) * runner._UOP_EST_BYTES
            + sum(n for _, n in decoded) * runner._DECODED_EST_BYTES
            + executor._image_bytes(images)
        )
        for scheme, result in zip(schemes, shared):
            alone = run_benchmark(
                profile,
                scheme,
                6_000,
                config=RunConfig(sampling=SAMPLING, cache=TraceCache()),
            )
            assert result.sampling == alone.sampling
            assert result.stats.as_dict() == alone.stats.as_dict()
