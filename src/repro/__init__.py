"""repro — a reproduction of ReCon (MICRO 2023).

ReCon detects non-speculative information leakage caused by
direct-dependence load pairs (pointer dereferences / base-address
indexing), remembers it as reveal/conceal bits carried by the cache
coherence protocol, and uses it to lift secure-speculation defenses (NDA,
STT) for values that are already public.

Quick start::

    from repro import SchemeKind, get_benchmark, run_benchmark

    profile = get_benchmark("spec2017", "mcf")
    unsafe = run_benchmark(profile, SchemeKind.UNSAFE, length=10_000)
    stt = run_benchmark(profile, SchemeKind.STT, length=10_000)
    recon = run_benchmark(profile, SchemeKind.STT_RECON, length=10_000)
    print(stt.ipc / unsafe.ipc, recon.ipc / unsafe.ipc)

Package map:

* :mod:`repro.core` — the out-of-order core model;
* :mod:`repro.memory` — MESI directory hierarchy with reveal bit-vectors;
* :mod:`repro.security` — unsafe/NDA/STT policies and the load-pair table;
* :mod:`repro.analysis` — the Clueless leakage characterizer;
* :mod:`repro.workloads` — synthetic SPEC/PARSEC-like suites;
* :mod:`repro.sim` — system assembly, experiment runners, reporting;
* :mod:`repro.telemetry` — event tracing, metrics, trace exporters.
"""

from repro._lazy import lazy_exports

# Names resolve on first access, so ``import repro`` (or any submodule)
# loads no simulator code until a name that needs it is used.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.clueless": ("Clueless", "LeakageReport"),
        "repro.common.params": (
            "CacheParams",
            "CoreParams",
            "MemoryParams",
            "SystemParams",
        ),
        "repro.common.stats": ("StatSet",),
        "repro.common.types": ("CacheLevel", "SchemeKind"),
        "repro.core.pipeline": ("Core",),
        "repro.isa.microop": ("MicroOp",),
        "repro.isa.program": ("Program",),
        "repro.memory.hierarchy": ("MemoryHierarchy",),
        "repro.security": ("make_policy",),
        "repro.security.lpt": ("LoadPairTable",),
        "repro.sim.config": ("RunConfig",),
        "repro.sim.engine": ("SuiteResult",),
        "repro.sim.runner": (
            "RunResult",
            "default_trace_length",
            "run_benchmark",
            "run_benchmark_seeds",
            "run_suite",
        ),
        "repro.sim.store": ("ResultStore",),
        "repro.sim.system": ("System",),
        "repro.telemetry.events": (
            "TelemetryCollector",
            "TelemetryConfig",
            "TelemetryResult",
        ),
        "repro.workloads.kernels": ("build_parallel_traces", "build_trace"),
        "repro.workloads.profile": ("BenchmarkProfile",),
        "repro.workloads.suites": (
            "get_benchmark",
            "parsec_suite",
            "spec2006_suite",
            "spec2017_suite",
        ),
    },
)

__version__ = "1.0.0"

__all__ = [
    "BenchmarkProfile",
    "CacheLevel",
    "CacheParams",
    "Clueless",
    "Core",
    "CoreParams",
    "LeakageReport",
    "LoadPairTable",
    "MemoryHierarchy",
    "MemoryParams",
    "MicroOp",
    "Program",
    "ResultStore",
    "RunConfig",
    "RunResult",
    "SchemeKind",
    "StatSet",
    "SuiteResult",
    "System",
    "SystemParams",
    "TelemetryCollector",
    "TelemetryConfig",
    "TelemetryResult",
    "__version__",
    "build_parallel_traces",
    "build_trace",
    "default_trace_length",
    "get_benchmark",
    "make_policy",
    "parsec_suite",
    "run_benchmark",
    "run_benchmark_seeds",
    "run_suite",
    "spec2006_suite",
    "spec2017_suite",
]
