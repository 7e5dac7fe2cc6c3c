"""Figure 10 — ReCon restricted to L1 only, L1+L2, or all cache levels.

Reveal bits stored only in the L1 are lost on L1 eviction; adding the L2
and the LLC/directory keeps reveals alive across larger working sets.
Paper result (STT, SPEC2017): overhead 8.9% unoptimized, 7.3% with
L1-only ReCon, 6.3% with L1+L2, 4.9% with all levels; small-footprint
benchmarks (leela, cactuBSSN) recover already at L1, large-footprint ones
(gcc, mcf, omnetpp, xalancbmk) need L2/LLC.
"""

from repro import SchemeKind
from repro.sim import format_table, geomean, normalized_ipc
from repro.sim.sweep import recon_level_variants
from repro.workloads import spec2017_suite

from benchmarks.common import emit, run_grid

#: Pointer-heavy subset: the benchmarks Figure 10 differentiates.
NAMES = ("gcc", "mcf", "omnetpp", "xalancbmk", "leela", "deepsjeng")


def _run():
    profiles = [p for p in spec2017_suite() if p.name in NAMES]
    base = run_grid(profiles, (SchemeKind.UNSAFE, SchemeKind.STT))
    columns = {"STT": {}}
    for name in NAMES:
        columns["STT"][name] = normalized_ipc(base, name, SchemeKind.STT)
    for label, params in recon_level_variants():
        results = {}
        for profile in profiles:
            from benchmarks.common import BENCH_LENGTH
            from repro.sim import RunConfig
            from repro.sim.runner import TraceCache, run_benchmark

            cache = TraceCache()
            unsafe = run_benchmark(
                profile, SchemeKind.UNSAFE, BENCH_LENGTH, config=RunConfig(cache=cache)
            )
            recon = run_benchmark(
                profile,
                SchemeKind.STT_RECON,
                BENCH_LENGTH,
                config=RunConfig(params=params, cache=cache),
            )
            results[profile.name] = recon.ipc / unsafe.ipc
        columns[label] = results
    order = ["STT", "L1", "L1+L2", "all-levels"]
    rows = []
    for name in NAMES:
        rows.append([name] + [f"{columns[c][name]:.3f}" for c in order])
    means = {c: geomean([columns[c][n] for n in NAMES]) for c in order}
    rows.append(["geomean"] + [f"{means[c]:.3f}" for c in order])
    table = format_table(["benchmark"] + order, rows)
    return table, columns, means


def test_fig10_cache_level_sweep(benchmark):
    table, columns, means = benchmark.pedantic(_run, rounds=1, iterations=1)
    emit(
        "fig10_cache_levels",
        "Figure 10: STT+ReCon applied to different cache levels "
        "(paper geomeans: STT 0.911, L1 0.927, L1+L2 0.937, all 0.951)",
        table,
    )
    # Monotone shape: more levels never hurt, each step helps somewhere.
    assert means["STT"] <= means["L1"] + 0.005
    assert means["L1"] <= means["L1+L2"] + 0.005
    assert means["L1+L2"] <= means["all-levels"] + 0.005
    assert means["all-levels"] > means["STT"] + 0.005
    # Large-footprint benchmarks need more than the L1 (paper: gcc, mcf,
    # omnetpp, xalancbmk lose reveals to L1 evictions).
    big = ["mcf", "omnetpp", "xalancbmk"]
    l1_gain = geomean([columns["L1"][n] for n in big]) - geomean(
        [columns["STT"][n] for n in big]
    )
    full_gain = geomean([columns["all-levels"][n] for n in big]) - geomean(
        [columns["STT"][n] for n in big]
    )
    assert full_gain > l1_gain
