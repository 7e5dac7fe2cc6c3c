"""Capture the pipeline parity goldens.

Writes the two goldens pinned by ``tests/core/test_hotpath_parity.py``:

* ``tests/data/pipeline_stats_golden.json`` — cycles and every StatSet
  field of the 17 ``CELLS`` in ``tests/core/hotpath_driver.py``;
* ``tests/data/pipeline_reference_golden.json`` — the same record for
  every ``REFERENCE_CELLS`` cell, plus event-stream and metrics digests
  of the traced ``TRACED_CELLS``.

Both were captured from the reference cycle loop, before the optimized
loop replaced it; the parity suite replays the cells on the current
loop and fails on any drift.  Re-capture only for an intended change of
simulated behaviour, and say so in the change log::

    PYTHONPATH=src:. python scripts/capture_pipeline_golden.py
"""

from __future__ import annotations

import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))

from tests.core.hotpath_driver import (  # noqa: E402
    GOLDEN_PATH,
    REFERENCE_GOLDEN_PATH,
    run_cells,
    run_reference_cells,
)


def _write(path: str, payload: dict) -> None:
    out = REPO / path
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")


def main() -> int:
    _write(
        GOLDEN_PATH,
        {
            "description": (
                "Pipeline-stats golden: cycles and StatSet fields captured on "
                "the reference (pure-Python, pre-optimization) cycle loop."
            ),
            "runs": run_cells(),
        },
    )
    payload = run_reference_cells()
    payload["description"] = (
        "Reference-loop golden: cycles and StatSet fields of the former "
        "live A/B cells (runs) and telemetry event/metrics digests of "
        "traced cells (traced), captured on the reference cycle loop."
    )
    _write(REFERENCE_GOLDEN_PATH, payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
