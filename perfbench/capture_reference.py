"""Regenerate ``reference.json``: every grid-workload cell at the default seed.

Run from the repository root::

    python3 perfbench/capture_reference.py

It simulates the three grids in full (a few minutes) and pins each
cell's simulated cycles, committed uops and the StatSet counters in
``grid.COUNTERS``.  Regenerate only when a change is meant to alter
simulated results, and say so in the change.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

common.bootstrap()

from perfbench import grid  # noqa: E402


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=common.ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    payload = {"commit": _commit(), "seed": grid.DEFAULT_SEED, "grids": {}}
    with common.work_dir() as work:
        for name, spec in grid.GRIDS.items():
            total = len(spec.suite()) * len(grid.SCHEMES)
            result = grid.run(spec, grid.DEFAULT_SEED, work / name, cells=total)
            broken = [f"{c.key}: {c.error}" for c in result.cells if c.error]
            if broken:
                print("\n".join(broken), file=sys.stderr)
                return 1
            payload["grids"][name] = {
                "length": spec.length,
                "threads": spec.threads,
                "sampled": spec.sampled,
                "cells": {c.key: grid.reference_entry(c) for c in result.cells},
            }
            print(f"{name}: {total} cells in {result.wall_s:.1f}s", flush=True)
    grid.REFERENCE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
