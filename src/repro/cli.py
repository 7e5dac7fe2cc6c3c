"""Command-line interface.

Commands are grouped by what they do::

    python -m repro list                          # available benchmarks
    python -m repro run one spec2017/mcf          # one benchmark, all schemes
    python -m repro run suite spec2017            # whole suite table
    python -m repro run replay mcf.trace          # run a saved trace file
    python -m repro run leakage spec2017/gcc      # Clueless analysis
    python -m repro sweep lpt spec2017/mcf        # LPT size sensitivity
    python -m repro sweep levels spec2017/omnetpp # Fig. 10-style sweep
    python -m repro telemetry summarize trace.json  # summarize a trace
    python -m repro save-trace spec2017/mcf mcf.trace   # export a trace
    python -m repro redteam matrix                # gadget x scheme verdicts
    python -m repro redteam audit                 # metadata matched-pair audit
    python -m repro serve                         # HTTP sweep service

Common options: ``--length`` (trace micro-ops), ``--schemes`` (comma
list), ``--threads`` (parallel workloads), ``--seed`` (override profile
seed), ``--jobs`` (worker processes; also the ``REPRO_JOBS`` environment
variable), ``--backend`` (execution substrate: ``inline`` / ``threads``
/ ``process`` / ``queue``; also the ``REPRO_BACKEND`` environment
variable — see ``docs/backends.md``), ``--no-store`` (skip the
persistent result store), ``--sampling SPEC`` (statistically sampled
simulation on ``run one``/``run suite`` and the sweeps — see
``docs/sampling.md``; estimated IPCs print as ``value±ci``).

``serve`` runs the async sweep service (:mod:`repro.sim.service`):
clients POST suites to ``/v1/suites``, poll ``/v1/jobs/<id>``, stream
NDJSON progress from ``/v1/jobs/<id>/events``, and fetch the finished
``SuiteResult`` JSON from ``/v1/jobs/<id>/result``.

Observability options on ``run one``/``run suite`` (see
``docs/observability.md``):
``--trace PATH`` collects the telemetry event stream and writes a Chrome
trace-event JSON (plus a Konata pipeline view and leakage CSV per grid
cell next to it), ``--trace-filter CATS`` restricts collection to a
comma list of event categories, and ``--metrics-out PATH`` writes the
metrics registry (counters/gauges/histograms) as JSON.  Telemetry runs
bypass the result store — a memoized result has no event stream.

Grid commands (``run``, ``suite``) fan out across worker processes and
memoize completed runs in the on-disk result store (``results/.store``
by default; move it with ``REPRO_STORE=<dir>`` or disable it with
``REPRO_STORE=off``), so a repeated invocation is served from disk.
``suite`` also writes the full structured result (per-run wall times,
store hit counts, every counter) to ``results/suite_<name>.json``.

Robustness options on ``run one``/``run suite`` (see
``docs/robustness.md``):
``--timeout SECONDS`` bounds each run's wall-clock time, ``--retries N``
re-attempts failing runs with backoff, ``--resume`` continues an
interrupted sweep from the result store and its failure journal, and ``--chaos SPEC``
injects deterministic faults (worker crashes, hangs, corrupt payloads,
simulated OOM) to exercise the supervision layer.  Any of these routes
execution through the fault-tolerant supervisor: cells that exhaust
their retries are reported as failure rows instead of aborting the
command.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence

import json

from repro.common.types import SchemeKind
from repro.sim.backends.base import BACKEND_NAMES
from repro.sim.engine import resolve_jobs
from repro.sim.reporting import failure_rows, format_ipc, format_table
from repro.sim.runner import TraceCache, default_trace_length, run_benchmark, run_suite
from repro.workloads import all_benchmarks, build_trace, get_benchmark

if TYPE_CHECKING:  # pragma: no cover - loaded by the commands that use them
    from repro.sim.config import RunConfig
    from repro.sim.store import ResultStore
    from repro.telemetry.events import TelemetryConfig

__all__ = ["main"]

_DEFAULT_SCHEMES = (
    SchemeKind.UNSAFE,
    SchemeKind.NDA,
    SchemeKind.NDA_RECON,
    SchemeKind.STT,
    SchemeKind.STT_RECON,
)


def _parse_schemes(text: str) -> List[SchemeKind]:
    table = {scheme.value: scheme for scheme in SchemeKind}
    schemes = []
    for token in text.split(","):
        token = token.strip()
        if token not in table:
            raise SystemExit(
                f"unknown scheme {token!r}; choose from {sorted(table)}"
            )
        schemes.append(table[token])
    return schemes


def _resolve(label: str):
    if "/" not in label:
        raise SystemExit("benchmark must be <suite>/<name>, e.g. spec2017/mcf")
    suite, name = label.split("/", 1)
    try:
        return get_benchmark(suite, name)
    except KeyError as exc:
        raise SystemExit(str(exc))


def _apply_seed(profile, seed):
    if seed is None:
        return profile
    return dataclasses.replace(profile, seed=seed)


def _store_from_args(args: argparse.Namespace) -> Optional[ResultStore]:
    """The persistent result store, honouring --no-store and REPRO_STORE."""
    from repro.sim.store import ResultStore, default_store_root

    if getattr(args, "no_store", False):
        return None
    root = default_store_root()
    if root is None:
        return None
    return ResultStore(root)


def _telemetry_from_args(args: argparse.Namespace) -> Optional[TelemetryConfig]:
    """Build the run's TelemetryConfig from --trace/--trace-filter/--metrics-out."""
    if not (getattr(args, "trace", None) or getattr(args, "metrics_out", None)):
        return None
    from repro.telemetry.events import TelemetryConfig, parse_filter

    try:
        categories = parse_filter(getattr(args, "trace_filter", None))
    except ValueError as exc:
        raise SystemExit(str(exc))
    return TelemetryConfig(categories=categories, timeline_interval=1000)


def _chaos_from_args(args: argparse.Namespace):
    """Parse --chaos into a ChaosConfig (None when chaos is off)."""
    from repro.sim.chaos import parse_chaos

    try:
        return parse_chaos(getattr(args, "chaos", None))
    except ValueError as exc:
        raise SystemExit(str(exc))


def _sampling_from_args(args: argparse.Namespace):
    """Parse --sampling into a SamplingConfig (None = exact mode)."""
    from repro.sampling.config import parse_sampling

    try:
        return parse_sampling(getattr(args, "sampling", None))
    except ValueError as exc:
        raise SystemExit(str(exc))


def _run_config(**kwargs) -> RunConfig:
    """Build a RunConfig, mapping invalid knob combinations to exit 2."""
    from repro.sim.config import RunConfig

    try:
        return RunConfig(**kwargs)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _supervision_from_args(args: argparse.Namespace, store, chaos):
    """Build the supervisor knobs from --timeout/--retries/--resume.

    Returns ``(policy, journal, resume)``.  The checkpoint journal is
    attached exactly when the engine's supervision rule
    (:func:`~repro.sim.engine.supervision_policy`) supervises the sweep;
    otherwise all three are ``None``/``False`` and it runs fail-fast.
    """
    from repro.sim.engine import supervision_policy
    from repro.sim.supervisor import FaultPolicy, SuiteJournal, default_journal_path

    timeout = getattr(args, "timeout", None)
    retries = getattr(args, "retries", None)
    resume = bool(getattr(args, "resume", False))
    policy = None
    if timeout is not None or retries is not None:
        policy = FaultPolicy(
            timeout_s=timeout,
            retries=retries if retries is not None else FaultPolicy.retries,
        )
    if supervision_policy(policy, resume=resume, chaos=chaos is not None) is None:
        return None, None, False
    journal = SuiteJournal(default_journal_path(store))
    if not resume:
        journal.clear()  # a fresh sweep must not inherit old checkpoints
    return policy, journal, resume


def _report_failures(suite, chaos) -> int:
    """Print the failure table; the command's exit code.

    Failures are expected output under ``--chaos`` (the harness proves
    the suite completes *despite* them), so chaos runs exit 0; a real
    sweep with failed cells exits 1 so scripts notice.
    """
    if suite.failures:
        print(
            "\n"
            + format_table(
                ["bench", "scheme", "error", "attempts", "message"],
                failure_rows(suite.failures),
            ),
            file=sys.stderr,
        )
    if suite.fault_counters:
        counters = "  ".join(
            f"{name}={value}"
            for name, value in sorted(suite.fault_counters.items())
            if value
        )
        if counters:
            print(f"faults: {counters}", file=sys.stderr)
    if suite.failures and chaos is None:
        return 1
    return 0


def _warn_unconverged(suite) -> None:
    """Name the sampled cells whose interval never met its target."""
    cells = [
        f"{bench}/{scheme.value}"
        for (bench, scheme), result in suite.items()
        if result.sampling is not None and not result.sampling.converged
    ]
    if cells:
        print(
            f"warning: {len(cells)} sampled cell(s) did not converge to the "
            f"target CI: {', '.join(cells)}",
            file=sys.stderr,
        )


def _export_telemetry(args: argparse.Namespace, cells) -> None:
    """Write the trace/metrics files for traced grid cells.

    ``cells`` is ``[(label, RunResult), ...]`` in spec order; cells whose
    results carry no telemetry (e.g. deserialized ones) are skipped.
    The merged Chrome trace is validated before it is written, so a bad
    payload fails the command instead of producing a corrupt file.
    """
    cells = [
        (label, result)
        for label, result in cells
        if result is not None and result.telemetry is not None
    ]
    if not cells:
        return
    from repro.telemetry.export import (
        leakage_csv,
        metrics_to_json,
        to_chrome_trace,
        to_konata,
        validate_chrome_trace,
    )

    written = []
    trace_path = getattr(args, "trace", None)
    if trace_path:
        combined = {"traceEvents": [], "displayTimeUnit": "ns"}
        for pid, (label, result) in enumerate(cells):
            payload = to_chrome_trace(
                result.telemetry.events, pid=pid, label=label
            )
            combined["traceEvents"].extend(payload["traceEvents"])
        validate_chrome_trace(combined)
        trace_path = Path(trace_path)
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(combined))
        written.append(trace_path)
        for label, result in cells:
            stem = label.replace("/", "_").replace("+", "")
            konata_path = Path(f"{trace_path}.{stem}.kanata")
            konata_path.write_text(to_konata(result.telemetry.events))
            written.append(konata_path)
            if result.telemetry.timeline is not None:
                csv_path = Path(f"{trace_path}.{stem}.leakage.csv")
                csv_path.write_text(leakage_csv(result.telemetry.timeline))
                written.append(csv_path)
    metrics_path = getattr(args, "metrics_out", None)
    if metrics_path:
        metrics_path = Path(metrics_path)
        metrics_path.parent.mkdir(parents=True, exist_ok=True)
        metrics_path.write_text(
            metrics_to_json(
                {label: result.telemetry.metrics for label, result in cells}
            )
        )
        written.append(metrics_path)
    for path in written:
        print(f"telemetry -> {path}", file=sys.stderr)


def cmd_list(args: argparse.Namespace) -> int:
    rows = [
        [p.label, ", ".join(sorted(p.kernel_weights))]
        for p in all_benchmarks()
    ]
    print(format_table(["benchmark", "kernels"], rows))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    profile = _apply_seed(_resolve(args.benchmark), args.seed)
    schemes = _parse_schemes(args.schemes)
    store = _store_from_args(args)
    chaos = _chaos_from_args(args)
    policy, journal, resume = _supervision_from_args(args, store, chaos)
    suite = run_suite(
        [profile],
        schemes,
        args.length,
        config=_run_config(
            threads=args.threads,
            telemetry=_telemetry_from_args(args),
            chaos=chaos,
            sampling=_sampling_from_args(args),
        ),
        jobs=args.jobs,
        store=store,
        policy=policy,
        journal=journal,
        resume=resume,
        backend=args.backend,
    )
    _export_telemetry(
        args,
        [
            (f"{profile.name}/{scheme.value}", suite.get(profile.name, scheme))
            for scheme in schemes
        ],
    )
    baseline = suite.get(profile.name, SchemeKind.UNSAFE)
    rows = []
    for scheme in schemes:
        result = suite.get(profile.name, scheme)
        if result is None:  # this cell exhausted its retries
            rows.append([scheme.value, "n/a", "n/a", "n/a", "-", "-", "-"])
            continue
        stats = result.stats
        norm = result.ipc / baseline.ipc if baseline else float("nan")
        rows.append(
            [
                scheme.value,
                f"{result.cycles}",
                format_ipc(result),
                f"{norm:.3f}" if baseline else "n/a",
                str(stats.tainted_loads),
                str(stats.load_pairs_detected),
                str(stats.reveal_hits),
            ]
        )
    print(f"{profile.label}  length={args.length}  threads={args.threads}\n")
    print(
        format_table(
            ["scheme", "cycles", "IPC", "vs unsafe", "tainted", "pairs", "hits"],
            rows,
        )
    )
    print(f"\n{suite.summary()}", file=sys.stderr)
    _warn_unconverged(suite)
    return _report_failures(suite, chaos)


def cmd_suite(args: argparse.Namespace) -> int:
    from repro.workloads import parsec_suite, spec2006_suite, spec2017_suite

    suites = {
        "spec2017": (spec2017_suite, 1),
        "spec2006": (spec2006_suite, 1),
        "parsec": (parsec_suite, 4),
    }
    if args.suite not in suites:
        raise SystemExit(f"unknown suite {args.suite!r}; choose from {sorted(suites)}")
    factory, threads = suites[args.suite]
    schemes = _parse_schemes(args.schemes)
    profiles = factory()
    store = _store_from_args(args)
    chaos = _chaos_from_args(args)
    policy, journal, resume = _supervision_from_args(args, store, chaos)
    suite = run_suite(
        profiles,
        schemes,
        args.length,
        config=_run_config(
            threads=threads,
            telemetry=_telemetry_from_args(args),
            chaos=chaos,
            sampling=_sampling_from_args(args),
        ),
        jobs=args.jobs,
        store=store,
        progress=True,
        policy=policy,
        journal=journal,
        resume=resume,
        backend=args.backend,
    )
    _export_telemetry(
        args,
        [
            (f"{profile.name}/{scheme.value}", suite.get(profile.name, scheme))
            for profile in profiles
            for scheme in schemes
        ],
    )
    rows = []
    for profile in profiles:
        base = suite.get(profile.name, SchemeKind.UNSAFE)
        row = [profile.name]
        for scheme in schemes:
            result = suite.get(profile.name, scheme)
            if result is None:  # this cell exhausted its retries
                row.append("n/a")
            elif scheme is SchemeKind.UNSAFE or base is None:
                row.append(format_ipc(result, digits=2))
            else:
                row.append(f"{result.ipc / base.ipc:.3f}")
        rows.append(row)
    headers = ["benchmark"] + [
        "IPC" if s is SchemeKind.UNSAFE else s.value for s in schemes
    ]
    print(format_table(headers, rows))
    out = suite.save(Path("results") / f"suite_{args.suite}.json")
    print(f"\n{suite.summary()}  ->  {out}", file=sys.stderr)
    _warn_unconverged(suite)
    return _report_failures(suite, chaos)


def cmd_leakage(args: argparse.Namespace) -> int:
    from repro.analysis.clueless import Clueless

    profile = _apply_seed(_resolve(args.benchmark), args.seed)
    report = Clueless().run(build_trace(profile, args.length).trace())
    rows = [
        ["footprint (words)", str(report.footprint_words)],
        ["DIFT leaked", f"{report.dift_leaked_words} ({report.dift_fraction:.1%})"],
        [
            "load-pair leaked",
            f"{report.pair_leaked_words} ({report.pair_fraction:.1%})",
        ],
        ["pairs / DIFT", f"{report.pair_coverage:.1%}"],
        ["peak DIFT leaked", str(report.dift_peak_words)],
    ]
    print(f"{profile.label}  length={args.length}\n")
    print(format_table(["metric", "value"], rows))
    return 0


def _run_sweep(args, variants) -> int:
    profile = _apply_seed(_resolve(args.benchmark), args.seed)
    cache = TraceCache()
    # Under --sampling every variant shares the same trace (and so the
    # same functional warm images) — the scheme/param sweep only re-runs
    # the short detailed measurement units.
    sampling = _sampling_from_args(args)
    unsafe = run_benchmark(
        profile,
        SchemeKind.UNSAFE,
        args.length,
        config=_run_config(cache=cache, sampling=sampling),
    )
    rows = []
    for label, params in variants:
        result = run_benchmark(
            profile,
            SchemeKind.STT_RECON,
            args.length,
            config=_run_config(params=params, cache=cache, sampling=sampling),
        )
        rows.append(
            [
                label,
                f"{result.ipc / unsafe.ipc:.3f}",
                str(result.stats.reveal_hits),
                str(result.stats.lpt_conflicts),
            ]
        )
    print(f"{profile.label}  STT+ReCon  length={args.length}\n")
    print(
        format_table(["variant", "vs unsafe", "reveal hits", "LPT conflicts"], rows)
    )
    return 0


def cmd_save_trace(args: argparse.Namespace) -> int:
    from repro.isa.encoding import save_trace

    profile = _apply_seed(_resolve(args.benchmark), args.seed)
    trace = build_trace(profile, args.length).trace()
    save_trace(trace, args.path)
    print(f"wrote {len(trace)} micro-ops to {args.path}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.common.params import SystemParams
    from repro.isa.encoding import load_trace
    from repro.sim.system import System

    try:
        trace = load_trace(args.path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot load trace: {exc}")
    schemes = _parse_schemes(args.schemes)
    rows = []
    baseline_ipc = None
    for scheme in schemes:
        result = System(SystemParams(), [trace], scheme).run()
        ipc = result.ipc
        if baseline_ipc is None:
            baseline_ipc = ipc
        stats = result.aggregate
        rows.append(
            [
                scheme.value,
                str(result.cycles),
                f"{ipc:.3f}",
                f"{ipc / baseline_ipc:.3f}",
                str(stats.tainted_loads),
                str(stats.load_pairs_detected),
            ]
        )
    print(f"replay of {args.path}: {len(trace)} micro-ops\n")
    print(
        format_table(
            ["scheme", "cycles", "IPC", "vs first", "tainted", "pairs"], rows
        )
    )
    return 0


def cmd_telemetry(args: argparse.Namespace) -> int:
    """Summarize a Chrome trace-event JSON written by ``--trace``."""
    from repro.telemetry.export import (
        metrics_summary_rows,
        trace_summary_rows,
        validate_chrome_trace,
    )

    try:
        payload = json.loads(Path(args.path).read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot load trace: {exc}")
    try:
        validate_chrome_trace(payload)
    except ValueError as exc:
        raise SystemExit(f"invalid trace: {exc}")
    rows = trace_summary_rows(payload)
    total = sum(int(row[2]) for row in rows)
    print(f"{args.path}: {total} events, {len(rows)} kinds\n")
    print(format_table(["category", "kind", "count", "first", "last"], rows))
    metrics_path = getattr(args, "metrics", None)
    if metrics_path:
        try:
            metrics = json.loads(Path(metrics_path).read_text())
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot load metrics: {exc}")
        hist_rows = metrics_summary_rows(metrics)
        print(f"\n{metrics_path}: {len(hist_rows)} histograms\n")
        print(
            format_table(
                ["histogram", "samples", "mean", "p50", "p99"], hist_rows
            )
        )
    return 0


def cmd_redteam_matrix(args: argparse.Namespace) -> int:
    """Run the gadget x scheme matrix and assert every verdict."""
    from repro.redteam import run_matrix
    from repro.workloads.gadgets import MATRIX_SCHEMES, gadget_catalog

    gadgets = (
        [token.strip() for token in args.gadgets.split(",") if token.strip()]
        if args.gadgets
        else [case.name for case in gadget_catalog()]
    )
    schemes = (
        _parse_schemes(args.schemes) if args.schemes else list(MATRIX_SCHEMES)
    )
    try:
        result = run_matrix(gadgets=gadgets, schemes=schemes, jobs=args.jobs)
    except KeyError as exc:
        raise SystemExit(str(exc))

    headers = ["gadget"] + [scheme.value for scheme in schemes]
    rows = []
    for gadget in gadgets:
        row = [gadget]
        for scheme in schemes:
            cell = result.cell(gadget, scheme)
            if cell is None:
                row.append("n/a")
            else:
                row.append(
                    cell.verdict.value if cell.ok else f"{cell.verdict.value}!"
                )
        rows.append(row)
    print(format_table(headers, rows))
    print(
        f"\n{len(result.cells)} cells, {len(result.mismatches)} mismatches, "
        f"{len(result.failed_cells)} failed  [{result.wall_time_s:.1f}s]",
        file=sys.stderr,
    )

    exit_code = 0
    for cell in result.mismatches:
        print(
            f"verdict mismatch: {cell.gadget}/{cell.scheme.value} "
            f"expected {cell.expected.value}, got {cell.verdict.value}",
            file=sys.stderr,
        )
        exit_code = 1
    if result.failed_cells:
        exit_code = 1

    if args.expected:
        try:
            baseline = json.loads(Path(args.expected).read_text())
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot load expected matrix: {exc}")
        baseline = baseline.get("verdicts", baseline)
        for gadget, row in result.verdict_map().items():
            for scheme_value, verdict in row.items():
                want = baseline.get(gadget, {}).get(scheme_value)
                if want is not None and want != verdict:
                    print(
                        f"regression vs {args.expected}: {gadget}/{scheme_value} "
                        f"was {want}, now {verdict}",
                        file=sys.stderr,
                    )
                    exit_code = 1

    if not args.no_audit:
        from repro.redteam import audit_all

        for audit in audit_all(trials=args.trials):
            status = "ok" if audit.ok else "DIFFERS"
            print(
                f"audit {audit.scheme.value}: differing "
                f"{_differing_text(audit)} {status}",
                file=sys.stderr,
            )
            if not audit.ok:
                exit_code = 1

    if args.out:
        out = Path(args.out)
        result.save(out)
        print(f"matrix -> {out}", file=sys.stderr)
    return exit_code


def _differing_text(audit) -> str:
    """``name a->b, ...`` for an audit's differing features, or ``none``."""
    if not audit.differing:
        return "none"
    return ", ".join(
        f"{name} {a:.12g}->{b:.12g}"
        for name, (a, b) in sorted(audit.differing.items())
    )


def cmd_redteam_audit(args: argparse.Namespace) -> int:
    """Audit protection metadata for secret-dependence (matched runs must
    agree on every metadata feature)."""
    from repro.redteam import PROTECTED_SCHEMES, audit_scheme, control_audit

    schemes = (
        _parse_schemes(args.schemes) if args.schemes else list(PROTECTED_SCHEMES)
    )
    rows = []
    exit_code = 0
    for scheme in schemes:
        try:
            audit = audit_scheme(scheme, args.gadget, trials=args.trials)
        except (KeyError, ValueError) as exc:
            raise SystemExit(str(exc))
        rows.append(
            [scheme.value, _differing_text(audit), "ok" if audit.ok else "DIFFERS"]
        )
        if not audit.ok:
            exit_code = 1
    control = control_audit(trials=args.trials)
    rows.append(
        [
            "unsafe (control)",
            _differing_text(control),
            "channel found" if not control.ok else "CONTROL FAILED",
        ]
    )
    if control.ok:  # the control must detect the planted channel
        exit_code = 1
    print(format_table(["scheme", "differing (A->B)", "status"], rows))
    return exit_code


def cmd_sweep_lpt(args: argparse.Namespace) -> int:
    from repro.sim.sweep import lpt_size_variants

    return _run_sweep(args, lpt_size_variants())


def cmd_sweep_levels(args: argparse.Namespace) -> int:
    from repro.sim.sweep import recon_level_variants

    return _run_sweep(args, recon_level_variants())


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.sim.chaos import parse_service_chaos
    from repro.sim.service import serve

    state_dir = args.state_dir
    if state_dir is not None and state_dir.lower() in ("off", "none", ""):
        state_dir = None
    token = args.token
    if token is None:
        token = os.environ.get("REPRO_SERVE_TOKEN") or None
    chaos_spec = args.chaos
    if chaos_spec is None:
        chaos_spec = os.environ.get("REPRO_SERVE_CHAOS")
    serve(
        args.host,
        args.port,
        jobs=args.jobs,
        backend=args.backend,
        store=not args.no_store,
        max_concurrent=args.max_concurrent,
        state_dir=state_dir,
        max_queued=args.max_queued,
        token=token,
        chaos=parse_service_chaos(chaos_spec),
    )
    return 0


def _parent_parsers():
    """The shared option groups, as ``parents=`` parsers.

    Each parser carries one concern; subcommands compose exactly the
    groups they honour, so ``--help`` never advertises a flag a command
    would silently ignore.
    """
    workload = argparse.ArgumentParser(add_help=False)
    workload.add_argument(
        "--length",
        type=int,
        default=default_trace_length(12_000),
        help="trace length in micro-ops",
    )
    workload.add_argument("--seed", type=int, default=None, help="override seed")

    schemes = argparse.ArgumentParser(add_help=False)
    schemes.add_argument(
        "--schemes",
        default=",".join(s.value for s in _DEFAULT_SCHEMES),
        help="comma-separated scheme list",
    )

    execution = argparse.ArgumentParser(add_help=False)
    execution.add_argument("--threads", type=int, default=1)
    execution.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: $REPRO_JOBS or 1; 0 = all cores)",
    )
    execution.add_argument(
        "--backend",
        default=None,
        choices=list(BACKEND_NAMES),
        help="execution substrate (default: $REPRO_BACKEND, else inline "
        "for --jobs 1 and process otherwise; see docs/backends.md)",
    )
    execution.add_argument(
        "--no-store",
        action="store_true",
        help="do not read or write the persistent result store",
    )

    telemetry = argparse.ArgumentParser(add_help=False)
    telemetry.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="collect telemetry and write a Chrome trace-event JSON "
        "(plus Konata and leakage-CSV views) to PATH",
    )
    telemetry.add_argument(
        "--trace-filter",
        default=None,
        metavar="CATS",
        help="comma list of event categories to collect "
        "(pipeline,cache,coherence,recon,security,shadow,mem_txn; "
        "default all)",
    )
    telemetry.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the telemetry metrics registry as JSON to PATH",
    )

    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument(
        "--sampling",
        default=None,
        metavar="SPEC",
        help="statistically sampled simulation: 'on' for defaults or a "
        "spec like 'ci=0.02,conf=0.95,min=4,max=8,unit=250' "
        "(fields: ci,conf,min,max,unit,warm,warmup,bias; "
        "default: exact simulation)",
    )

    robustness = argparse.ArgumentParser(add_help=False)
    robustness.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-run wall-clock budget; an expired run is cancelled "
        "and retried (requires --jobs >= 2 to preempt)",
    )
    robustness.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="extra attempts for a failing run before it is reported "
        "as a failure (default 2 when supervision is active)",
    )
    robustness.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted sweep: finished runs come from "
        "the result store, exhausted ones replay from the failure "
        "journal kept next to it",
    )
    robustness.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="deterministic fault injection, e.g. "
        "'seed=7,crash=0.2,hang=0.1,corrupt=0.1,attempts=1' "
        "(fields: seed,crash,hang,corrupt,oom,hang_s,attempts)",
    )

    return workload, schemes, execution, telemetry, sampling, robustness


def build_parser() -> argparse.ArgumentParser:
    """The grouped command tree (``run`` / ``sweep`` / ``telemetry``)."""
    (
        workload,
        schemes,
        execution,
        telemetry,
        sampling,
        robustness,
    ) = _parent_parsers()
    grid_parents = [workload, schemes, execution, telemetry, sampling, robustness]

    parser = argparse.ArgumentParser(
        prog="repro", description="ReCon (MICRO 2023) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks").set_defaults(func=cmd_list)

    p_run = sub.add_parser(
        "run", help="run simulations (one / suite / replay / leakage)"
    )
    run_sub = p_run.add_subparsers(dest="run_command", required=True)

    p_one = run_sub.add_parser(
        "one", help="run one benchmark under schemes", parents=grid_parents
    )
    p_one.add_argument("benchmark", help="suite/name, e.g. spec2017/mcf")
    p_one.set_defaults(func=cmd_run)

    p_suite = run_sub.add_parser(
        "suite", help="run a whole suite", parents=grid_parents
    )
    p_suite.add_argument("suite", help="spec2017 | spec2006 | parsec")
    p_suite.set_defaults(func=cmd_suite)

    p_replay = run_sub.add_parser(
        "replay", help="run a saved trace file", parents=[schemes]
    )
    p_replay.add_argument("path", help="trace file from save-trace")
    p_replay.set_defaults(func=cmd_replay)

    p_leak = run_sub.add_parser(
        "leakage",
        help="Clueless leakage analysis",
        parents=[workload, schemes],
    )
    p_leak.add_argument("benchmark", help="suite/name, e.g. spec2017/mcf")
    p_leak.set_defaults(func=cmd_leakage)

    p_sweep = sub.add_parser(
        "sweep", help="sensitivity sweeps (lpt / levels)"
    )
    sweep_sub = p_sweep.add_subparsers(dest="sweep_command", required=True)

    p_lpt = sweep_sub.add_parser(
        "lpt",
        help="LPT size sensitivity",
        parents=[workload, schemes, sampling],
    )
    p_lpt.add_argument("benchmark", help="suite/name, e.g. spec2017/mcf")
    p_lpt.set_defaults(func=cmd_sweep_lpt)

    p_lvl = sweep_sub.add_parser(
        "levels",
        help="ReCon cache-level sweep",
        parents=[workload, schemes, sampling],
    )
    p_lvl.add_argument("benchmark", help="suite/name, e.g. spec2017/mcf")
    p_lvl.set_defaults(func=cmd_sweep_levels)

    p_tel = sub.add_parser(
        "telemetry", help="inspect collected telemetry (summarize)"
    )
    tel_sub = p_tel.add_subparsers(dest="telemetry_command", required=True)

    p_sum = tel_sub.add_parser(
        "summarize", help="summarize a Chrome trace written by --trace"
    )
    p_sum.add_argument("path", help="trace JSON file from --trace")
    p_sum.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="also summarize a metrics JSON from --metrics-out "
        "(histograms incl. MSHR occupancy and NoC queue depth)",
    )
    p_sum.set_defaults(func=cmd_telemetry)

    p_red = sub.add_parser(
        "redteam", help="adversarial leakage harness (matrix / audit)"
    )
    red_sub = p_red.add_subparsers(dest="redteam_command", required=True)

    p_matrix = red_sub.add_parser(
        "matrix", help="run the gadget x scheme verdict matrix"
    )
    p_matrix.add_argument(
        "--gadgets",
        default=None,
        help="comma list of gadget names (default: whole catalog)",
    )
    p_matrix.add_argument(
        "--schemes",
        default=None,
        help="comma list of schemes (default: the matrix columns)",
    )
    p_matrix.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: $REPRO_JOBS or 1; 0 = all cores)",
    )
    p_matrix.add_argument(
        "--out",
        default=str(Path("results") / "BENCH_gadgets.json"),
        metavar="PATH",
        help="write the verdict-matrix JSON artifact (default: %(default)s)",
    )
    p_matrix.add_argument(
        "--expected",
        default=None,
        metavar="PATH",
        help="committed verdict matrix to diff against; any changed "
        "verdict fails the command",
    )
    p_matrix.add_argument(
        "--no-audit",
        action="store_true",
        help="skip the metadata matched-pair audit after the matrix",
    )
    p_matrix.add_argument(
        "--trials",
        type=int,
        default=4,
        help="matched trial pairs per audited scheme (default: %(default)s)",
    )
    p_matrix.set_defaults(func=cmd_redteam_matrix)

    p_audit = red_sub.add_parser(
        "audit", help="metadata matched-pair audit of the protected schemes"
    )
    p_audit.add_argument(
        "--schemes",
        default=None,
        help="comma list of schemes (default: all protected schemes)",
    )
    p_audit.add_argument(
        "--gadget",
        default="v1_bounds_bypass",
        help="secret-tunable gadget to audit with (default: %(default)s)",
    )
    p_audit.add_argument(
        "--trials",
        type=int,
        default=6,
        help="matched trial pairs per scheme (default: %(default)s)",
    )
    p_audit.set_defaults(func=cmd_redteam_audit)

    p_save = sub.add_parser(
        "save-trace", help="export a workload trace file", parents=[workload]
    )
    p_save.add_argument("benchmark", help="suite/name, e.g. spec2017/mcf")
    p_save.add_argument("path", help="output trace file")
    p_save.set_defaults(func=cmd_save_trace)

    p_serve = sub.add_parser(
        "serve",
        help="HTTP sweep service: submit suites, poll jobs, stream progress",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8712)
    p_serve.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="default worker processes per job (default: $REPRO_JOBS or 1; "
        "0 = all cores)",
    )
    p_serve.add_argument(
        "--backend",
        default=None,
        choices=list(BACKEND_NAMES),
        help="default execution substrate for submitted jobs "
        "(default: $REPRO_BACKEND, else jobs-based; see docs/backends.md)",
    )
    p_serve.add_argument(
        "--no-store",
        action="store_true",
        help="do not read or write the persistent result store",
    )
    p_serve.add_argument(
        "--max-concurrent",
        type=int,
        default=1,
        help="worker threads interleaving suite cells (default 1)",
    )
    p_serve.add_argument(
        "--state-dir",
        default="results/.serve",
        help="crash-safe job ledger directory; submitted jobs survive a "
        "service restart ('off' disables durability; default "
        "results/.serve)",
    )
    p_serve.add_argument(
        "--max-queued",
        type=int,
        default=8,
        help="open (queued+running) jobs admitted before submits get "
        "429 + Retry-After (default 8)",
    )
    p_serve.add_argument(
        "--token",
        default=None,
        help="static bearer token required on every request except the "
        "health probes (default: $REPRO_SERVE_TOKEN; unset = no auth)",
    )
    p_serve.add_argument(
        "--chaos",
        default=None,
        help="service-layer fault injection spec, e.g. "
        "'seed=7,drop=0.3,kill_after_cells=2' "
        "(default: $REPRO_SERVE_CHAOS; see docs/robustness.md)",
    )
    p_serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: Sequence[str] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    if hasattr(args, "jobs"):
        try:
            resolve_jobs(args.jobs)
        except ValueError as exc:
            sys.exit(str(exc))
    return args.func(args)
