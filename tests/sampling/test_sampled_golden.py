"""Sampled estimates stay byte-identical to their checked-in capture.

``tests/data/sampled_estimates_golden.json`` holds every
``SampledEstimate`` field, the cycles and every counter of the cells in
:mod:`tests.sampling.golden_driver`, captured in bench order with one
trace cache per benchmark.  The replay here uses one trace cache for
every cell and visits them in diagonal order (every benchmark comes
between two schemes of one row), so it also checks that what a row's
schemes share on the cache entry does not depend on cell order.
Regenerate with ``scripts/capture_sampled_golden.py`` only in a change
that means to move sampled numbers.
"""

import json
from pathlib import Path

import pytest

from repro.sim import TraceCache

from tests.sampling.golden_driver import (
    CELLS,
    GOLDEN_PATH,
    SPEC_BENCHES,
    SPEC_SCHEMES,
    cell_label,
    cell_record,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def golden():
    return json.loads((REPO_ROOT / GOLDEN_PATH).read_text())


def _diagonal(cells):
    """The SPEC cells in diagonal rounds, then the rest in order."""
    spec = {(cell[1], cell[4]): cell for cell in cells if cell[0] == "spec2017"}
    order = [
        spec[(bench, SPEC_SCHEMES[(i + r) % len(SPEC_SCHEMES)])]
        for r in range(len(SPEC_SCHEMES))
        for i, bench in enumerate(SPEC_BENCHES)
    ]
    return order + [cell for cell in cells if cell[0] != "spec2017"]


def test_golden_covers_every_cell(golden):
    assert sorted(golden["cells"]) == sorted(map(cell_label, CELLS))
    assert len(_diagonal(CELLS)) == len(CELLS)


def test_sampled_cells_match_golden(golden):
    cache = TraceCache()
    mismatched = {}
    for cell in _diagonal(CELLS):
        label = cell_label(cell)
        # Through JSON, so floats compare as the capture wrote them.
        record = json.loads(json.dumps(cell_record(cell, cache)))
        if record != golden["cells"][label]:
            mismatched[label] = record
    assert not mismatched, "sampled cells moved: %s" % sorted(mismatched)
