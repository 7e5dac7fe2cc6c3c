"""Regenerate the sampled-estimate golden.

Runs the cells in ``tests/sampling/golden_driver.py`` (the twelve
``benchmarks/bench_sampling.py`` cells and one 4-thread PARSEC cell)
with default sampling knobs and writes every estimate field, the cycles
and every counter to ``tests/data/sampled_estimates_golden.json``.

Only regenerate it in a change that means to move sampled numbers,
following ROADMAP item 1's golden-move protocol; never to turn a
failing ``tests/sampling/test_sampled_golden.py`` green.

Usage::

    PYTHONPATH=src python scripts/capture_sampled_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))

from tests.sampling.golden_driver import GOLDEN_PATH, capture_golden  # noqa: E402


def main() -> int:
    payload = capture_golden()
    out = REPO / GOLDEN_PATH
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    for label, cell in payload["cells"].items():
        estimate = cell["estimate"]
        print(
            f"  {label:38s} ipc {estimate['ipc']:.6f}"
            f" ±{estimate['ipc_ci']:.6f} n={estimate['samples']}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
