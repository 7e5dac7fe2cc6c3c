"""Ablations of ReCon design choices discussed but not evaluated by the
paper.

* **Speculation model** (§3.1): the paper's threat model sits between
  STT's Spectre model (control shadows only) and the Futuristic model;
  this sweep shows how the STT overhead and the ReCon recovery scale
  across the three.
* **Footnote 1**: preserving the reveal vectors of invalidated readers —
  the paper omits it "for simplicity"; how much does it buy on a
  write-sharing parallel workload?
* **Multi-source LPT** (§5.1.1, future work): checking both operands of
  indexed loads.
"""

import dataclasses

from repro import SchemeKind, SystemParams
from repro.common import SpeculationModel
from repro.sim import RunConfig, format_table, geomean
from repro.sim.runner import TraceCache, run_benchmark
from repro.workloads import get_benchmark, spec2017_suite

from benchmarks.common import BENCH_LENGTH, PARSEC_LENGTH, emit

NAMES = ("gcc", "mcf", "omnetpp", "xalancbmk")


def _spec_model_sweep():
    profiles = [p for p in spec2017_suite() if p.name in NAMES]
    rows = []
    summary = {}
    for model in SpeculationModel:
        params = SystemParams(speculation_model=model)
        stt_vals, recon_vals = [], []
        for profile in profiles:
            cache = TraceCache()
            unsafe = run_benchmark(
                profile,
                SchemeKind.UNSAFE,
                BENCH_LENGTH,
                config=RunConfig(params=params, cache=cache),
            )
            stt = run_benchmark(
                profile,
                SchemeKind.STT,
                BENCH_LENGTH,
                config=RunConfig(params=params, cache=cache),
            )
            recon = run_benchmark(
                profile,
                SchemeKind.STT_RECON,
                BENCH_LENGTH,
                config=RunConfig(params=params, cache=cache),
            )
            stt_vals.append(stt.ipc / unsafe.ipc)
            recon_vals.append(recon.ipc / unsafe.ipc)
        summary[model] = (geomean(stt_vals), geomean(recon_vals))
        rows.append(
            [
                model.value,
                f"{summary[model][0]:.3f}",
                f"{summary[model][1]:.3f}",
            ]
        )
    table = format_table(
        ["speculation model", "STT", "STT+ReCon"], rows
    )
    return table, summary


def test_ablation_speculation_models(benchmark):
    table, summary = benchmark.pedantic(
        _spec_model_sweep, rounds=1, iterations=1
    )
    emit(
        "ablation_spec_models",
        "Ablation: speculation models (Spectre / control+store / Futuristic)",
        table,
    )
    spectre = summary[SpeculationModel.CONTROL_ONLY]
    default = summary[SpeculationModel.CONTROL_AND_STORE]
    futuristic = summary[SpeculationModel.FUTURISTIC]
    # Overheads grow with shadow coverage; ReCon recovers under all three.
    assert spectre[0] >= default[0] - 0.01 >= futuristic[0] - 0.02
    for stt, recon in (spectre, default, futuristic):
        assert recon >= stt - 0.005


def _footnote1_sweep():
    profile = get_benchmark("parsec", "canneal")
    rows = []
    outcomes = {}
    for preserve in (False, True):
        params = SystemParams(
            num_cores=4, preserve_invalidated_reveals=preserve
        )
        cache = TraceCache()
        unsafe = run_benchmark(
            profile,
            SchemeKind.UNSAFE,
            PARSEC_LENGTH,
            config=RunConfig(params=params, threads=4, cache=cache),
        )
        recon = run_benchmark(
            profile,
            SchemeKind.STT_RECON,
            PARSEC_LENGTH,
            config=RunConfig(params=params, threads=4, cache=cache),
        )
        ratio = recon.cycles / unsafe.cycles
        outcomes[preserve] = (ratio, recon.stats.reveal_hits)
        rows.append(
            [
                "preserve" if preserve else "drop (paper default)",
                f"{ratio:.3f}",
                str(recon.stats.reveal_hits),
            ]
        )
    table = format_table(
        ["invalidated reader vectors", "time vs unsafe", "reveal hits"], rows
    )
    return table, outcomes


def test_ablation_footnote1_preservation(benchmark):
    table, outcomes = benchmark.pedantic(
        _footnote1_sweep, rounds=1, iterations=1
    )
    emit(
        "ablation_footnote1",
        "Ablation: preserving invalidated readers' reveal vectors "
        "(canneal, 4 cores)",
        table,
    )
    # Preservation can only help (more reveals survive write-sharing).
    assert outcomes[True][1] >= outcomes[False][1] - 50
    assert outcomes[True][0] <= outcomes[False][0] + 0.02


def _multi_source_sweep():
    profile = get_benchmark("spec2017", "gcc")
    rows = []
    outcomes = {}
    for sources in (1, 2):
        params = SystemParams(lpt_sources=sources)
        cache = TraceCache()
        unsafe = run_benchmark(
            profile,
            SchemeKind.UNSAFE,
            BENCH_LENGTH,
            config=RunConfig(params=params, cache=cache),
        )
        recon = run_benchmark(
            profile,
            SchemeKind.STT_RECON,
            BENCH_LENGTH,
            config=RunConfig(params=params, cache=cache),
        )
        outcomes[sources] = (
            recon.ipc / unsafe.ipc,
            recon.stats.load_pairs_detected,
        )
        rows.append(
            [
                f"{sources} source(s)",
                f"{outcomes[sources][0]:.3f}",
                str(outcomes[sources][1]),
            ]
        )
    table = format_table(
        ["LPT operands checked", "STT+ReCon vs unsafe", "pairs detected"],
        rows,
    )
    return table, outcomes


def test_ablation_multi_source_lpt(benchmark):
    table, outcomes = benchmark.pedantic(
        _multi_source_sweep, rounds=1, iterations=1
    )
    emit(
        "ablation_multi_source",
        "Ablation: single- vs multi-source load-pair detection (§5.1.1)",
        table,
    )
    # Checking a second operand never detects fewer pairs.
    assert outcomes[2][1] >= outcomes[1][1]
    assert outcomes[2][0] >= outcomes[1][0] - 0.01
