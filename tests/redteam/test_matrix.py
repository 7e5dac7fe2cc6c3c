"""The gadget x scheme verdict matrix, asserted cell by cell.

This is the PR's acceptance gate in executable form:

* the unsafe baseline transmits every gadget's payload speculatively;
* NDA and STT leak nothing (and never even transmit speculatively on a
  cold line);
* NDA+ReCon / STT+ReCon transmit *already-public* pointers (benign, by
  Clueless DIFT over the architectural prefix) while still leaking no
  never-revealed secret;
* DoM transmits nothing on the cold-line transmitters.

The full matrix runs once per session (it is ~1 s of simulation) and
every test asserts against the shared result.
"""

import json

import pytest

from repro.common.types import SchemeKind
from repro.redteam import run_matrix
from repro.redteam.harness import CellOutcome
from repro.workloads.gadgets import CATALOG, MATRIX_SCHEMES, Verdict


@pytest.fixture(scope="module")
def matrix():
    return run_matrix()


class TestVerdictMatrix:
    def test_every_cell_matches_the_catalog(self, matrix):
        assert not matrix.failed_cells
        for cell in matrix.cells:
            assert cell.verdict is cell.expected, (
                f"{cell.gadget}/{cell.scheme.value}: expected "
                f"{cell.expected.value}, got {cell.verdict.value}"
            )
        assert matrix.ok
        assert len(matrix.cells) == len(CATALOG) * len(MATRIX_SCHEMES)

    def test_unsafe_transmits_every_gadget(self, matrix):
        for case in CATALOG:
            cell = matrix.cell(case.name, SchemeKind.UNSAFE)
            assert cell.transmitted, case.name
            assert cell.observed_speculative, case.name

    def test_nda_and_stt_never_leak(self, matrix):
        for case in CATALOG:
            for scheme in (SchemeKind.NDA, SchemeKind.STT):
                cell = matrix.cell(case.name, scheme)
                assert cell.verdict is Verdict.PROTECTED, (case.name, scheme)
                assert not cell.transmitted, (case.name, scheme)

    def test_recon_lifts_only_for_public_words(self, matrix):
        """ReCon's whole point: transmit revealed pointers, nothing else."""
        for case in CATALOG:
            for scheme in (SchemeKind.NDA_RECON, SchemeKind.STT_RECON):
                cell = matrix.cell(case.name, scheme)
                assert cell.verdict is not Verdict.LEAK, (case.name, scheme)
                if cell.transmitted:
                    # Anything transmitted must be architecturally public.
                    assert cell.secret_arch_leaked, (case.name, scheme)
                    assert cell.reveal_hits > 0, (case.name, scheme)

    def test_recon_benign_cells_exist(self, matrix):
        """The lift is real, not vacuous: the reveal gadgets transmit."""
        for name in (
            "reveal_rederef",
            "implicit_branch_revealed",
            "multicore_secret_sharing",
        ):
            for scheme in (SchemeKind.NDA_RECON, SchemeKind.STT_RECON):
                cell = matrix.cell(name, scheme)
                assert cell.verdict is Verdict.BENIGN, (name, scheme)
                assert cell.transmitted, (name, scheme)

    def test_dom_never_transmits_cold_lines(self, matrix):
        for case in CATALOG:
            cell = matrix.cell(case.name, SchemeKind.DOM)
            assert cell.verdict is Verdict.PROTECTED, case.name


class TestCommittedExpectations:
    def test_matrix_matches_committed_expected_file(self, matrix, request):
        """CI's regression gate: the live verdicts equal the committed
        matrix (``tests/data/redteam_expected_matrix.json``)."""
        path = request.config.rootpath / "tests" / "data"
        expected = json.loads(
            (path / "redteam_expected_matrix.json").read_text()
        )
        assert matrix.verdict_map() == expected["verdicts"]


class TestMatrixResultPlumbing:
    def test_cell_lookup_and_outcome_shape(self, matrix):
        cell = matrix.cell("v1_bounds_bypass", SchemeKind.UNSAFE)
        assert isinstance(cell, CellOutcome)
        assert cell.ok
        payload = cell.as_dict()
        assert payload["verdict"] == "leak"
        assert payload["ok"] is True
        assert matrix.cell("no_such_gadget", SchemeKind.UNSAFE) is None

    def test_artifact_roundtrip(self, matrix, tmp_path):
        out = tmp_path / "BENCH_gadgets.json"
        matrix.save(out)
        payload = json.loads(out.read_text())
        assert payload["version"] == 2
        assert payload["summary"]["ok"] is True
        assert payload["summary"]["cells"] == len(matrix.cells)
        assert payload["summary"]["mismatches"] == 0
        assert "event_counts" not in payload
        assert payload["verdicts"] == matrix.verdict_map()
        assert len(payload["cells"]) == len(matrix.cells)

    def test_parallel_execution_agrees(self):
        """Worker processes rebuild gadget traces and reach the same
        verdicts as the in-process run."""
        partial = run_matrix(
            gadgets=["v1_bounds_bypass", "multicore_secret_sharing"],
            jobs=2,
        )
        assert partial.ok
        assert len(partial.cells) == 2 * len(MATRIX_SCHEMES)
