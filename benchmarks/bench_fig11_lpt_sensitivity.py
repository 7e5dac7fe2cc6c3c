"""Figure 11 — load-pair table size sensitivity.

The LPT is indexed by physical register id; shrinking it introduces
conflicts (tag mismatches) that drop reveals.  Paper result: performance
is almost unaffected down to LPT/64 — load pairs sit close together in
the pipeline — with mcf the only benchmark that degrades visibly, because
its pairs are far apart (many interleaved chains).
"""

from repro import SchemeKind
from repro.sim import RunConfig, format_table, geomean
from repro.sim.runner import TraceCache, run_benchmark
from repro.sim.sweep import lpt_size_variants
from repro.workloads import spec2017_suite

from benchmarks.common import BENCH_LENGTH, emit

NAMES = ("gcc", "mcf", "omnetpp", "xalancbmk", "leela")


def _run():
    profiles = [p for p in spec2017_suite() if p.name in NAMES]
    variants = lpt_size_variants()
    labels = [label for label, _ in variants]
    columns = {label: {} for label in labels}
    conflicts = {label: {} for label in labels}
    for profile in profiles:
        cache = TraceCache()
        unsafe = run_benchmark(
            profile, SchemeKind.UNSAFE, BENCH_LENGTH, config=RunConfig(cache=cache)
        )
        for label, params in variants:
            recon = run_benchmark(
                profile,
                SchemeKind.STT_RECON,
                BENCH_LENGTH,
                config=RunConfig(params=params, cache=cache),
            )
            columns[label][profile.name] = recon.ipc / unsafe.ipc
            conflicts[label][profile.name] = recon.stats.lpt_conflicts
    rows = []
    for name in NAMES:
        rows.append(
            [name]
            + [f"{columns[label][name]:.3f}" for label in labels]
            + [str(conflicts[labels[-1]][name])]
        )
    means = {
        label: geomean([columns[label][n] for n in NAMES]) for label in labels
    }
    rows.append(["geomean"] + [f"{means[label]:.3f}" for label in labels] + [""])
    table = format_table(
        ["benchmark"] + labels + [f"conflicts@{labels[-1]}"], rows
    )
    return table, columns, conflicts, means, labels


def test_fig11_lpt_size_sensitivity(benchmark):
    table, columns, conflicts, means, labels = benchmark.pedantic(
        _run, rounds=1, iterations=1
    )
    emit(
        "fig11_lpt_sensitivity",
        "Figure 11: STT+ReCon with shrinking load-pair tables "
        "(paper: only mcf degrades)",
        table,
    )
    full, smallest = labels[0], labels[-1]
    # Shape: shrinking the LPT costs little on average...
    assert means[smallest] > means[full] - 0.06
    # ...the early shrink steps are almost free (pairs sit close)...
    assert means[labels[1]] > means[full] - 0.02
    # ...conflicts do appear at the smallest size...
    assert sum(conflicts[smallest].values()) > 0
    # ...and mcf (interleaved chains => distant pairs) is among the most
    # conflict-prone benchmarks.
    per_pair = {
        name: conflicts[smallest][name] for name in columns[smallest]
    }
    top_two = sorted(per_pair, key=per_pair.get, reverse=True)[:2]
    assert "mcf" in top_two
    # No benchmark gains from a smaller table beyond noise.
    for name in columns[full]:
        assert columns[smallest][name] <= columns[full][name] + 0.02
