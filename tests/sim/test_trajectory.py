"""Tests for the bench-trajectory aggregator (CI perf/safety history)."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.sim.trajectory import (
    TRAJECTORY_NAME,
    aggregate_point,
    load_trajectory,
    update_trajectory,
)

SCRIPT = (
    Path(__file__).resolve().parent.parent.parent
    / "scripts"
    / "aggregate_bench.py"
)


def _script_main():
    spec = importlib.util.spec_from_file_location("aggregate_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def _write_bench_files(results_dir):
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "BENCH_hotpath.json").write_text(
        json.dumps(
            {
                "length": 20000,
                "cells": {
                    "spec2017/mcf/unsafe": {
                        "untraced_uops_per_sec": 60000,
                        "traced_uops_per_sec": 40000,
                        "ratio": 1.5,
                        "phases": {"dispatch": 0.1},
                    },
                    "spec2017/mcf/stt+recon": {
                        "untraced_uops_per_sec": 45000,
                        "traced_uops_per_sec": 30000,
                        "ratio": 1.5,
                        "phases": {"dispatch": 0.1},
                    },
                },
            }
        )
    )
    (results_dir / "BENCH_gadgets.json").write_text(
        json.dumps(
            {
                "cells": [
                    {"verdict": "leak", "ok": True},
                    {"verdict": "protected", "ok": True},
                    {"verdict": "protected", "ok": False},
                ]
            }
        )
    )


class TestAggregatePoint:
    def test_summarizes_hotpath_and_gadgets(self, tmp_path):
        _write_bench_files(tmp_path)
        point = aggregate_point(tmp_path, sha="abc123", timestamp=5.0)
        assert point["sha"] == "abc123"
        assert point["timestamp"] == 5.0
        assert point["sources"] == [
            "BENCH_gadgets.json",
            "BENCH_hotpath.json",
        ]
        hotpath = point["hotpath"]
        assert hotpath["mean_untraced_uops_per_sec"] == 52500
        assert hotpath["geomean_ratio"] == 1.5
        # Per-cell phases are deliberately dropped: the trajectory keeps
        # the throughput headline, not the whole profile.
        assert "phases" not in hotpath["cells"]["spec2017/mcf/unsafe"]
        assert point["gadgets"] == {
            "cells": 3,
            "ok": 2,
            "verdicts": {"leak": 1, "protected": 2},
        }

    def test_torn_artifact_is_skipped_not_fatal(self, tmp_path):
        _write_bench_files(tmp_path)
        (tmp_path / "BENCH_hotpath.json").write_text('{"cells": {tor')
        point = aggregate_point(tmp_path, sha="abc", timestamp=0.0)
        assert point["skipped"] == ["BENCH_hotpath.json"]
        assert "hotpath" not in point
        assert point["gadgets"]["cells"] == 3


class TestSamplingSummary:
    def _sampling_payload(self, with_summary=True):
        payload = {
            "length": 12000,
            "sampling": "ci=0.02,conf=0.95",
            "cells": {
                "mcf/unsafe": {"within_ci": True, "cut": 5.0},
                "mcf/stt": {"within_ci": True, "cut": 6.2},
                "gcc/unsafe": {"within_ci": False, "cut": 5.5},
            },
        }
        if with_summary:
            payload["summary"] = {
                "cells": 3,
                "within_ci": 2,
                "min_cut": 5.0,
                "geomean_cut": 5.55,
            }
        return payload

    def test_prefers_bench_summary_block(self, tmp_path):
        tmp_path.mkdir(exist_ok=True)
        (tmp_path / "BENCH_sampling.json").write_text(
            json.dumps(self._sampling_payload())
        )
        point = aggregate_point(tmp_path, sha="abc", timestamp=0.0)
        assert point["sources"] == ["BENCH_sampling.json"]
        assert point["sampling"] == {
            "length": 12000,
            "spec": "ci=0.02,conf=0.95",
            "cells": 3,
            "within_ci": 2,
            "min_cut": 5.0,
            "geomean_cut": 5.55,
        }

    def test_recomputes_from_cells_without_summary(self, tmp_path):
        (tmp_path / "BENCH_sampling.json").write_text(
            json.dumps(self._sampling_payload(with_summary=False))
        )
        point = aggregate_point(tmp_path, sha="abc", timestamp=0.0)
        sampling = point["sampling"]
        assert sampling["cells"] == 3
        assert sampling["within_ci"] == 2
        assert sampling["min_cut"] == 5.0
        assert sampling["geomean_cut"] == pytest.approx(5.55, abs=0.01)

    def test_empty_sampling_artifact_yields_zero_counts(self, tmp_path):
        (tmp_path / "BENCH_sampling.json").write_text("{}")
        point = aggregate_point(tmp_path, sha="abc", timestamp=0.0)
        assert point["sampling"] == {
            "length": None,
            "spec": None,
            "cells": 0,
            "within_ci": 0,
            "min_cut": 0.0,
            "geomean_cut": 0.0,
        }


class TestMissingArtifacts:
    def test_missing_results_dir_yields_stub_point(self, tmp_path):
        point = aggregate_point(
            tmp_path / "does-not-exist", sha="abc", timestamp=0.0
        )
        assert point["sources"] == []
        assert "hotpath" not in point
        assert "sampling" not in point

    def test_empty_results_dir_yields_stub_point(self, tmp_path):
        point = aggregate_point(tmp_path, sha="abc", timestamp=0.0)
        assert point["sources"] == []

    def test_update_trajectory_creates_parent_dirs(self, tmp_path):
        out = tmp_path / "deep" / "nested" / "BENCH_trajectory.json"
        update_trajectory(
            tmp_path / "missing-results", out, sha="abc", timestamp=0.0
        )
        trajectory = load_trajectory(out)
        assert [p["sha"] for p in trajectory["points"]] == ["abc"]
        assert trajectory["points"][0]["sources"] == []


class TestAggregateScript:
    """scripts/aggregate_bench.py must never fail on missing artifacts."""

    def test_missing_results_dir_emits_stub(self, tmp_path, capsys):
        main = _script_main()
        results = tmp_path / "results"  # never created
        assert main(["--results-dir", str(results), "--sha", "deadbeef"]) == 0
        out = capsys.readouterr().out
        assert "stub point: no BENCH_*.json artifacts found" in out
        trajectory = load_trajectory(results / TRAJECTORY_NAME)
        assert len(trajectory["points"]) == 1
        assert trajectory["points"][0]["sources"] == []

    def test_partial_artifacts_summarized(self, tmp_path, capsys):
        main = _script_main()
        _write_bench_files(tmp_path)
        (tmp_path / "BENCH_sampling.json").write_text(
            json.dumps(
                {
                    "summary": {
                        "cells": 12,
                        "within_ci": 12,
                        "min_cut": 5.01,
                        "geomean_cut": 5.4,
                    }
                }
            )
        )
        (tmp_path / "BENCH_torn.json").write_text("{ torn")
        assert main(["--results-dir", str(tmp_path), "--sha", "cafe"]) == 0
        out = capsys.readouterr().out
        assert "sampling 12/12 within CI at 5.01x+ cut" in out
        assert "stub point" not in out
        trajectory = load_trajectory(tmp_path / TRAJECTORY_NAME)
        point = trajectory["points"][-1]
        assert point["skipped"] == ["BENCH_torn.json"]
        assert point["sampling"]["within_ci"] == 12


class TestUpdateTrajectory:
    def test_appends_points_across_shas(self, tmp_path):
        _write_bench_files(tmp_path)
        out = update_trajectory(tmp_path, sha="aaa", timestamp=1.0)
        assert out.name == TRAJECTORY_NAME
        update_trajectory(tmp_path, sha="bbb", timestamp=2.0)
        trajectory = load_trajectory(out)
        assert [p["sha"] for p in trajectory["points"]] == ["aaa", "bbb"]

    def test_same_sha_replaces_instead_of_duplicating(self, tmp_path):
        _write_bench_files(tmp_path)
        update_trajectory(tmp_path, sha="aaa", timestamp=1.0)
        out = update_trajectory(tmp_path, sha="aaa", timestamp=2.0)
        trajectory = load_trajectory(out)
        assert len(trajectory["points"]) == 1
        assert trajectory["points"][0]["timestamp"] == 2.0

    def test_trajectory_file_is_not_reaggregated(self, tmp_path):
        # The output file matches BENCH_*.json but must never be
        # consumed as an input on the next run.
        _write_bench_files(tmp_path)
        update_trajectory(tmp_path, sha="aaa", timestamp=1.0)
        point = aggregate_point(tmp_path, sha="bbb", timestamp=2.0)
        assert TRAJECTORY_NAME not in point["sources"]

    def test_torn_trajectory_file_starts_fresh(self, tmp_path):
        _write_bench_files(tmp_path)
        out = tmp_path / TRAJECTORY_NAME
        out.write_text('{"points": tor')
        update_trajectory(tmp_path, sha="aaa", timestamp=1.0)
        assert len(load_trajectory(out)["points"]) == 1
