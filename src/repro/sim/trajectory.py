"""Bench-trajectory aggregation: one summary point per CI run.

The CI benchmark jobs each emit a standalone artifact —
``results/BENCH_hotpath.json`` (engine throughput cells),
``results/BENCH_gadgets.json`` (red-team verdict matrix), and
``results/BENCH_sampling.json`` (sampled-vs-exact accuracy).  Those files
answer "how fast / how safe is this commit", but not "which commit made
it slower": each run overwrites the last.  This module folds every
``BENCH_*.json`` in a results directory into a single **trajectory
point** — suite throughput, verdict counts, git sha, timestamp — and
appends it to ``results/BENCH_trajectory.json``, so downloading one
artifact shows the whole perf/safety history at a glance.

The trajectory file is a version-tagged envelope::

    {"version": 1,
     "points": [{"sha": "...", "timestamp": ...,
                 "hotpath": {...}, "gadgets": {...},
                 "sources": ["BENCH_hotpath.json", ...]}, ...]}

Re-aggregating the same sha replaces its point instead of appending, so
a re-run CI job never duplicates history.  ``scripts/aggregate_bench.py``
is the CLI wrapper the workflow invokes.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

__all__ = [
    "TRAJECTORY_NAME",
    "aggregate_point",
    "load_trajectory",
    "update_trajectory",
]

TRAJECTORY_NAME = "BENCH_trajectory.json"

_TRAJECTORY_VERSION = 1


def resolve_sha(repo_root: Optional[Path] = None) -> Optional[str]:
    """The commit being measured: ``GITHUB_SHA``, else ``git rev-parse``."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(repo_root) if repo_root else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _geomean(values: List[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    product = 1.0
    for value in positive:
        product *= value
    return product ** (1.0 / len(positive))


def _summarize_hotpath(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Throughput per cell plus suite-level aggregates."""
    cells = payload.get("cells", {})
    summary_cells = {
        name: {
            key: cell.get(key)
            for key in (
                "untraced_uops_per_sec",
                "traced_uops_per_sec",
                "ratio",
            )
            if key in cell
        }
        for name, cell in cells.items()
        if isinstance(cell, dict)
    }
    untraced = [
        c["untraced_uops_per_sec"]
        for c in summary_cells.values()
        if isinstance(c.get("untraced_uops_per_sec"), (int, float))
    ]
    ratios = [
        c["ratio"]
        for c in summary_cells.values()
        if isinstance(c.get("ratio"), (int, float))
    ]
    return {
        "length": payload.get("length"),
        "cells": summary_cells,
        "mean_untraced_uops_per_sec": (
            round(sum(untraced) / len(untraced)) if untraced else 0
        ),
        "geomean_ratio": round(_geomean(ratios), 3) if ratios else 0.0,
    }


def _summarize_sampling(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Sampled-vs-exact accuracy and speedup over the sampling bench cells.

    Reads ``BENCH_sampling.json`` (see ``benchmarks/bench_sampling.py``):
    prefers the bench's own ``summary`` block, recomputing the counts
    from ``cells`` when a partial artifact carries cells but no summary.
    """
    summary = payload.get("summary")
    if not isinstance(summary, dict):
        summary = {}
    cells = payload.get("cells", {})
    if not isinstance(cells, dict):
        cells = {}
    within = [
        bool(cell.get("within_ci"))
        for cell in cells.values()
        if isinstance(cell, dict)
    ]
    cuts = [
        cell["cut"]
        for cell in cells.values()
        if isinstance(cell, dict)
        and isinstance(cell.get("cut"), (int, float))
    ]
    return {
        "length": payload.get("length"),
        "spec": payload.get("sampling"),
        "cells": summary.get("cells", len(within)),
        "within_ci": summary.get("within_ci", sum(within)),
        "min_cut": summary.get(
            "min_cut", round(min(cuts), 2) if cuts else 0.0
        ),
        "geomean_cut": summary.get(
            "geomean_cut", round(_geomean(list(cuts)), 2) if cuts else 0.0
        ),
    }


def _summarize_gadgets(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Verdict counts over the red-team matrix cells."""
    cells = payload.get("cells", [])
    verdicts: Dict[str, int] = {}
    ok = 0
    for cell in cells:
        if not isinstance(cell, dict):
            continue
        verdict = str(cell.get("verdict", "unknown"))
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
        if cell.get("ok"):
            ok += 1
    return {"cells": len(cells), "ok": ok, "verdicts": verdicts}


def aggregate_point(
    results_dir: Path,
    *,
    sha: Optional[str] = None,
    timestamp: Optional[float] = None,
) -> Dict[str, Any]:
    """One trajectory point from every ``BENCH_*.json`` in ``results_dir``.

    Unreadable or non-JSON bench files are skipped (listed under
    ``"skipped"``) rather than failing the aggregation — a torn artifact
    should not erase the rest of the point.  A missing or empty results
    directory yields a stub point (``sources: []``) so the trajectory
    file always exists downstream.
    """
    results_dir = Path(results_dir)
    point: Dict[str, Any] = {
        "sha": sha if sha is not None else resolve_sha(results_dir.parent),
        "timestamp": timestamp if timestamp is not None else time.time(),
        "sources": [],
        "skipped": [],
    }
    paths = (
        sorted(results_dir.glob("BENCH_*.json"))
        if results_dir.is_dir()
        else []
    )
    for path in paths:
        if path.name == TRAJECTORY_NAME:
            continue
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            point["skipped"].append(path.name)
            continue
        point["sources"].append(path.name)
        if path.name == "BENCH_hotpath.json":
            point["hotpath"] = _summarize_hotpath(payload)
        elif path.name == "BENCH_gadgets.json":
            point["gadgets"] = _summarize_gadgets(payload)
        elif path.name == "BENCH_sampling.json":
            point["sampling"] = _summarize_sampling(payload)
        else:  # future bench artifacts ride along un-summarized
            point.setdefault("extra", {})[path.name] = {
                "keys": sorted(payload)[:16]
                if isinstance(payload, dict)
                else type(payload).__name__
            }
    if not point["skipped"]:
        del point["skipped"]
    return point


def load_trajectory(path: Path) -> Dict[str, Any]:
    """The trajectory envelope at ``path``; a fresh one when absent/torn."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return {"version": _TRAJECTORY_VERSION, "points": []}
    if not isinstance(payload, dict) or not isinstance(
        payload.get("points"), list
    ):
        return {"version": _TRAJECTORY_VERSION, "points": []}
    payload.setdefault("version", _TRAJECTORY_VERSION)
    return payload


def update_trajectory(
    results_dir: Path,
    out_path: Optional[Path] = None,
    *,
    sha: Optional[str] = None,
    timestamp: Optional[float] = None,
) -> Path:
    """Append (or replace, same sha) this run's point; returns the path."""
    results_dir = Path(results_dir)
    out_path = (
        Path(out_path) if out_path is not None else results_dir / TRAJECTORY_NAME
    )
    point = aggregate_point(results_dir, sha=sha, timestamp=timestamp)
    trajectory = load_trajectory(out_path)
    points = [
        existing
        for existing in trajectory["points"]
        if point["sha"] is None or existing.get("sha") != point["sha"]
    ]
    points.append(point)
    trajectory["points"] = points
    # Torn-proof: fsync'd temp + atomic rename (plus directory fsync),
    # so a crash mid-aggregation never truncates the accumulated
    # history the next CI run appends to.
    from repro.sim.ledger import durable_write

    out_path.parent.mkdir(parents=True, exist_ok=True)
    durable_write(
        out_path, json.dumps(trajectory, indent=1, sort_keys=True) + "\n"
    )
    return out_path
