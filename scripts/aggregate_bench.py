#!/usr/bin/env python
"""Fold this run's BENCH_*.json artifacts into the bench trajectory.

CI runs this after the benchmark jobs so every pipeline uploads one
``results/BENCH_trajectory.json`` carrying the perf/safety history:
hot-path throughput (untraced uops/s, untraced/traced ratio), red-team verdict
counts, and the git sha each point was measured at.  See
:mod:`repro.sim.trajectory` for the file format.

Usage::

    PYTHONPATH=src python scripts/aggregate_bench.py [--results-dir results]
        [--out results/BENCH_trajectory.json] [--sha <commit>]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.sim.trajectory import update_trajectory  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results-dir",
        type=Path,
        default=Path("results"),
        help="directory holding BENCH_*.json artifacts (default: results)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="trajectory file to update "
        "(default: <results-dir>/BENCH_trajectory.json)",
    )
    parser.add_argument(
        "--sha",
        default=None,
        help="commit to stamp the point with "
        "(default: $GITHUB_SHA, else git rev-parse HEAD)",
    )
    args = parser.parse_args(argv)
    # Tolerant by design: a missing results dir, or missing/partial
    # BENCH files, still produce a (possibly stub) trajectory point —
    # a torn artifact must never break the aggregation step of CI.
    out = update_trajectory(args.results_dir, args.out, sha=args.sha)
    trajectory = json.loads(out.read_text())
    latest = trajectory["points"][-1]
    sha = (latest.get("sha") or "unknown")[:12]
    hotpath = latest.get("hotpath", {})
    gadgets = latest.get("gadgets", {})
    line = (
        f"{out}: {len(trajectory['points'])} point(s); latest sha={sha} "
        f"mean {hotpath.get('mean_untraced_uops_per_sec', 0)} uops/s, "
        f"gadgets {gadgets.get('ok', 0)}/{gadgets.get('cells', 0)} ok"
    )
    sampled = latest.get("sampling")
    if sampled:
        line += (
            f", sampling {sampled.get('within_ci', 0)}"
            f"/{sampled.get('cells', 0)} within CI "
            f"at {sampled.get('min_cut', 0)}x+ cut"
        )
    if not latest.get("sources"):
        line += " (stub point: no BENCH_*.json artifacts found)"
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
