"""Reporting helpers: normalized metrics and plain-text tables.

The figure benches print the same *rows/series* the paper's figures plot;
these helpers compute the normalized quantities (IPC relative to the
unsafe baseline, overheads, overhead reductions) and render aligned text
tables.

The grid-shaped functions take any mapping from ``(benchmark, scheme)``
to :class:`~repro.sim.runner.RunResult` — in particular the
:class:`~repro.sim.engine.SuiteResult` returned by ``run_suite`` /
``run_grid``.
"""

from __future__ import annotations

import math
import warnings
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.common.types import SchemeKind
from repro.sim.runner import RunResult

__all__ = [
    "geomean",
    "normalized_ipc",
    "overhead",
    "overhead_reduction",
    "failure_rows",
    "format_ipc",
    "format_table",
    "suite_normalized_rows",
]


def format_ipc(result, digits: int = 3) -> str:
    """Render a run's IPC, with its ± CI half-width when estimated.

    ``result`` is anything exposing ``ipc`` and (optionally) a
    ``sampling`` estimate — a :class:`~repro.sim.runner.RunResult`, an
    :class:`~repro.api.RunRecord`, or a raw float.  Exact runs render as
    ``"0.812"``; sampled runs as ``"0.812±0.009"`` so a table never
    presents an estimate as an exact measurement.
    """
    if isinstance(result, (int, float)):
        return f"{result:.{digits}f}"
    ipc = result.ipc
    estimate = getattr(result, "sampling", None)
    if estimate is None:
        return f"{ipc:.{digits}f}"
    return f"{ipc:.{digits}f}±{estimate.ipc_ci:.{digits}f}"


def geomean(values: Iterable[float]) -> float:
    """Geometric mean over the positive inputs (0.0 when none remain).

    Zero or negative values have no geometric mean; they typically mean
    a run produced no commits (IPC 0) or a baseline was missing.  Rather
    than aborting a whole suite table for one degenerate cell, they are
    skipped with a ``RuntimeWarning`` naming how many were dropped, and
    the mean is taken over the remaining values.
    """
    values = [v for v in values]
    if not values:
        return 0.0
    positives = [v for v in values if v > 0]
    if len(positives) != len(values):
        warnings.warn(
            f"geomean: skipped {len(values) - len(positives)} non-positive "
            f"value(s) of {len(values)}",
            RuntimeWarning,
            stacklevel=2,
        )
    if not positives:
        return 0.0
    return math.exp(sum(math.log(v) for v in positives) / len(positives))


def normalized_ipc(
    results: Mapping[Tuple[str, SchemeKind], RunResult],
    name: str,
    scheme: SchemeKind,
    baseline: SchemeKind = SchemeKind.UNSAFE,
) -> float:
    """IPC of (name, scheme) relative to (name, baseline)."""
    base = results[(name, baseline)].ipc
    if base == 0:
        return 0.0
    return results[(name, scheme)].ipc / base


def overhead(normalized: float) -> float:
    """Performance overhead of a scheme given its normalized IPC."""
    return 1.0 - normalized


def overhead_reduction(base_overhead: float, optimized_overhead: float) -> float:
    """How much of the base scheme's overhead the optimization removed.

    This is the paper's headline metric, e.g. "ReCon reduces the loss by
    45.1%": (base - optimized) / base.
    """
    if base_overhead <= 0:
        return 0.0
    return (base_overhead - optimized_overhead) / base_overhead


def suite_normalized_rows(
    results: Mapping[Tuple[str, SchemeKind], RunResult],
    names: Sequence[str],
    schemes: Sequence[SchemeKind],
    baseline: SchemeKind = SchemeKind.UNSAFE,
) -> List[List[str]]:
    """Rows of normalized IPC per benchmark plus a geomean row.

    A cell whose run (or baseline run) is missing — typically a
    supervised suite where that cell exhausted its retries and became a
    failure record — renders as ``n/a`` and is excluded from the
    geomean, so one sick cell degrades its own entry, not the table.
    """
    rows: List[List[str]] = []
    columns: Dict[SchemeKind, List[float]] = {s: [] for s in schemes}
    for name in names:
        row = [name]
        for scheme in schemes:
            if (
                results.get((name, scheme)) is None
                or results.get((name, baseline)) is None
            ):
                row.append("n/a")
                continue
            value = normalized_ipc(results, name, scheme, baseline)
            columns[scheme].append(value)
            row.append(f"{value:.3f}")
        rows.append(row)
    mean_row = ["geomean"]
    for scheme in schemes:
        positives = [v for v in columns[scheme] if v > 0]
        if positives:
            mean_row.append(f"{geomean(positives):.3f}")
        else:
            # No cell produced a usable ratio (e.g. every baseline run
            # committed nothing): a number here would be fiction.
            mean_row.append("n/a")
    rows.append(mean_row)
    return rows


def failure_rows(failures: Sequence) -> List[List[str]]:
    """Rows describing failed cells (bench, scheme, error, attempts).

    ``failures`` is a sequence of
    :class:`~repro.sim.supervisor.RunFailure` (``SuiteResult.failures``);
    pair with :func:`format_table`.
    """
    rows = []
    for failure in failures:
        message = failure.message.splitlines()[0] if failure.message else ""
        if len(message) > 60:
            message = message[:57] + "..."
        rows.append(
            [
                failure.bench,
                failure.scheme.value,
                failure.error_type,
                str(failure.attempts),
                message,
            ]
        )
    return rows


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render an aligned plain-text table."""
    table = [list(headers)] + [list(r) for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(table):
        line = "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        lines.append(line.rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
