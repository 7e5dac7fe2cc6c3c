"""Unit tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.sim.supervisor import SuiteJournal


@pytest.fixture(autouse=True)
def _isolated_store(tmp_path, monkeypatch):
    """Keep CLI runs from touching the repo's real result store."""
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "cli-store"))


class TestList:
    def test_lists_benchmarks(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "spec2017/mcf" in out
        assert "parsec/canneal" in out


class TestRun:
    def test_run_prints_scheme_table(self, capsys):
        code = main(
            ["run", "one", "spec2017/gcc", "--length", "800", "--schemes",
             "unsafe,stt,stt+recon"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stt+recon" in out
        assert "vs unsafe" in out

    def test_unknown_benchmark_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "one", "spec2017/doom", "--length", "500"])

    def test_malformed_label_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "one", "mcf", "--length", "500"])

    def test_unknown_scheme_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "one", "spec2017/gcc", "--schemes", "quantum"])

    def test_seed_override(self, capsys):
        assert main(
            ["run", "one", "spec2017/gcc", "--length", "600", "--seed", "7",
             "--schemes", "unsafe"]
        ) == 0


class TestSuite:
    def test_suite_table_jobs_and_store(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        args = [
            "run", "suite", "spec2017", "--length", "600", "--schemes",
            "unsafe,stt", "--jobs", "2",
        ]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "benchmark" in captured.out
        assert "mcf" in captured.out
        assert "store hits 0/" in captured.err
        assert (tmp_path / "results" / "suite_spec2017.json").exists()
        # Second invocation is served from the persistent store.
        assert main(args) == 0
        captured = capsys.readouterr()
        runs = len(captured.out.strip().splitlines()) - 2  # header + rule
        assert f"store hits {runs * 2}/{runs * 2}" in captured.err

    def test_suite_no_store_skips_memoization(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        args = [
            "run", "suite", "spec2017", "--length", "600", "--schemes", "unsafe",
            "--no-store",
        ]
        assert main(args) == 0
        assert main(args) == 0
        assert "store hits 0/" in capsys.readouterr().err

    def test_unknown_suite_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "suite", "spec2095", "--length", "500"])

    def test_invalid_jobs_env_exits_cleanly(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        with pytest.raises(SystemExit):
            main(["run", "suite", "spec2017", "--length", "500", "--schemes", "unsafe"])


class TestBackendFlag:
    def test_run_accepts_backend(self, capsys):
        code = main(
            ["run", "one", "spec2017/gcc", "--length", "600",
             "--schemes", "unsafe,stt", "--backend", "threads",
             "--no-store"]
        )
        assert code == 0
        assert "unsafe" in capsys.readouterr().out

    def test_unknown_backend_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "one", "spec2017/gcc", "--backend", "abacus"])

    def test_negative_jobs_exits_cleanly(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "one", "spec2017/gcc", "--jobs", "-2"])
        assert "jobs must be >= 0" in str(exc_info.value)

    def test_serve_parser_wires_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "9000", "--backend", "queue", "--jobs", "2"]
        )
        assert args.port == 9000
        assert args.backend == "queue"
        assert args.jobs == 2
        assert args.max_concurrent == 1
        assert args.host == "127.0.0.1"


class TestRobustnessFlags:
    def test_chaos_suite_completes_and_reports_failures(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        # Permanent simulated-OOM chaos: some cells must fail, yet the
        # command completes, tables n/a cells, and (because failures are
        # the chaos harness's expected output) still exits 0.
        code = main(
            [
                "run", "suite", "spec2017", "--length", "600",
                "--schemes", "unsafe,stt",
                "--chaos", "seed=2,oom=0.6",
                "--retries", "1",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "n/a" in captured.out
        assert "MemoryError" in captured.err
        assert "fault_exhausted" in captured.err
        assert (tmp_path / "results" / "suite_spec2017.json").exists()

    def test_chaos_leaves_the_result_store_untouched(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        assert main(
            [
                "run", "one", "spec2017/gcc", "--length", "600",
                "--schemes", "unsafe", "--chaos", "seed=1",
            ]
        ) == 0
        store_root = tmp_path / "store"
        entries = (
            list(store_root.glob("*/*.json")) if store_root.is_dir() else []
        )
        assert entries == []

    def test_real_failures_exit_nonzero_chaos_failures_exit_zero(
        self, capsys
    ):
        from repro.cli import _report_failures
        from repro.sim import ChaosConfig, RunFailure, SuiteResult
        from repro.common import SchemeKind

        failure = RunFailure(
            bench="mcf", scheme=SchemeKind.STT, seed=0, key=None,
            error_type="MemoryError", message="boom", traceback="",
            attempts=3, worker_pid=None, wall_time_s=0.1,
        )
        failed = SuiteResult({}, failures=[failure])
        # A genuine sweep with dead cells must fail the command...
        assert _report_failures(failed, chaos=None) == 1
        # ...but the same outcome under --chaos is the harness working.
        assert _report_failures(failed, chaos=ChaosConfig(oom=1.0)) == 0
        assert _report_failures(SuiteResult({}), chaos=None) == 0
        assert "MemoryError" in capsys.readouterr().err

    def test_bad_chaos_spec_exits_cleanly(self):
        with pytest.raises(SystemExit):
            main(["run", "one", "spec2017/gcc", "--chaos", "bogus=1"])

    def test_resume_reuses_checkpoints(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        args = [
            "run", "suite", "spec2017", "--length", "600", "--schemes", "unsafe",
            "--retries", "2",
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        err = capsys.readouterr().err
        # Every cell journaled+stored by the first sweep is a store hit.
        assert "store hits 0/" not in err

    def test_fresh_sweep_clears_stale_journal(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        args = [
            "run", "suite", "spec2017", "--length", "600", "--schemes", "unsafe",
            "--retries", "1",
        ]
        # Seed stale failures under the sweep's own run keys (chaos is
        # not part of a key): every cell exhausts its attempts.
        assert main(args + ["--chaos", "oom=1.0"]) == 0
        journal = SuiteJournal(tmp_path / "store" / "journal.jsonl")
        assert journal.load()
        capsys.readouterr()
        assert main(args) == 0  # no --resume: the stale failures...
        assert "FAILED" not in capsys.readouterr().err  # ...do not replay
        assert not journal.path.exists()  # ...nor stay: nothing failed

class TestSamplingFlag:
    def test_run_sampled_prints_ci(self, capsys):
        code = main(
            ["run", "one", "spec2017/mcf", "--length", "1200", "--schemes",
             "unsafe", "--sampling", "on"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "±" in out  # estimated IPCs render as value±ci

    def test_run_exact_has_no_ci(self, capsys):
        assert main(
            ["run", "one", "spec2017/mcf", "--length", "800", "--schemes", "unsafe"]
        ) == 0
        captured = capsys.readouterr()
        assert "±" not in captured.out
        assert "converge" not in captured.err

    def test_unconverged_cells_warn_once(self, capsys):
        # Two units cannot meet a 0.1% interval: neither cell converges.
        assert main(
            ["run", "one", "spec2017/mcf", "--length", "1200", "--schemes",
             "unsafe,stt", "--sampling", "ci=0.001,min=2,max=2"]
        ) == 0
        warnings = [
            line for line in capsys.readouterr().err.splitlines()
            if "did not converge" in line
        ]
        assert warnings == [
            "warning: 2 sampled cell(s) did not converge to the target CI: "
            "mcf/unsafe, mcf/stt"
        ]

    def test_bad_sampling_spec_exits_cleanly(self):
        with pytest.raises(SystemExit):
            main(
                ["run", "one", "spec2017/mcf", "--length", "800",
                 "--sampling", "zorp=1"]
            )

    def test_sampling_conflicts_with_trace(self, tmp_path):
        with pytest.raises(SystemExit, match="telemetry"):
            main(
                ["run", "one", "spec2017/mcf", "--length", "800", "--sampling",
                 "on", "--trace", str(tmp_path / "trace.json")]
            )

    def test_suite_accepts_sampling(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(
            ["run", "suite", "spec2017", "--length", "800", "--schemes",
             "unsafe,stt", "--sampling", "ci=0.05,conf=0.9", "--no-store"]
        ) == 0
        out = capsys.readouterr().out
        assert "±" in out

    def test_sweep_accepts_sampling(self, capsys):
        assert main(
            ["sweep", "lpt", "spec2017/mcf", "--length", "800",
             "--sampling", "on"]
        ) == 0


class TestLeakage:
    def test_leakage_report(self, capsys):
        assert main(["run", "leakage", "spec2017/mcf", "--length", "1200"]) == 0
        out = capsys.readouterr().out
        assert "DIFT leaked" in out
        assert "pairs / DIFT" in out


class TestSweeps:
    def test_sweep_lpt(self, capsys):
        assert main(["sweep", "lpt", "spec2017/gcc", "--length", "800"]) == 0
        out = capsys.readouterr().out
        assert "LPT/64" in out

    def test_sweep_levels(self, capsys):
        assert main(["sweep", "levels", "spec2017/gcc", "--length", "800"]) == 0
        out = capsys.readouterr().out
        assert "L1+L2" in out


class TestTraceWorkflow:
    def test_save_and_replay(self, capsys, tmp_path):
        path = str(tmp_path / "t.trace")
        assert main(["save-trace", "spec2017/gcc", path, "--length", "600"]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert main(["run", "replay", path, "--schemes", "unsafe,stt+recon"]) == 0
        out = capsys.readouterr().out
        assert "stt+recon" in out
        assert "pairs" in out

    def test_replay_missing_file_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "replay", "/nonexistent.trace"])

    def test_spt_scheme_available(self, capsys):
        assert main(
            ["run", "one", "spec2017/gcc", "--length", "600", "--schemes",
             "unsafe,stt+spt"]
        ) == 0
        assert "stt+spt" in capsys.readouterr().out


class TestGroupedCommands:
    """The run/sweep/telemetry groups; pre-grouping spellings are gone."""

    def test_run_one_new_form(self, capsys, recwarn):
        code = main(
            ["run", "one", "spec2017/gcc", "--length", "600",
             "--schemes", "unsafe"]
        )
        assert code == 0
        assert "unsafe" in capsys.readouterr().out
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]

    def test_new_forms_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["run", "suite", "spec2017"])
        assert args.suite == "spec2017"
        args = parser.parse_args(["run", "replay", "x.trace"])
        assert args.path == "x.trace"
        args = parser.parse_args(["run", "leakage", "spec2017/gcc"])
        assert args.benchmark == "spec2017/gcc"
        args = parser.parse_args(["sweep", "lpt", "spec2017/mcf"])
        assert args.benchmark == "spec2017/mcf"
        args = parser.parse_args(["sweep", "levels", "spec2017/mcf"])
        assert args.benchmark == "spec2017/mcf"
        args = parser.parse_args(["telemetry", "summarize", "t.json"])
        assert args.path == "t.json"

    @pytest.mark.parametrize(
        "argv",
        [
            ["suite", "spec2017"],
            ["replay", "x.trace"],
            ["leakage", "spec2017/gcc"],
            ["sweep-lpt", "spec2017/gcc"],
            ["sweep-levels", "spec2017/gcc"],
            ["run", "spec2017/gcc"],
            ["telemetry", "t.json"],
        ],
    )
    def test_pre_grouping_spellings_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_telemetry_summarize_new_form_does_not_warn(self, recwarn):
        with pytest.raises(SystemExit):
            main(["telemetry", "summarize", "/nonexistent.json"])
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]

    def test_trace_filter_help_names_every_category(self):
        import argparse
        import re

        from repro.cli import build_parser
        from repro.telemetry.events import ALL_CATEGORIES

        def actions(parser):
            for action in parser._actions:
                yield action
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from actions(sub)

        helps = {
            action.help
            for action in actions(build_parser())
            if "--trace-filter" in action.option_strings
        }
        assert len(helps) == 1
        listed = re.search(r"\(([a-z_,]+);", helps.pop()).group(1)
        assert sorted(listed.split(",")) == sorted(ALL_CATEGORIES)


class TestRedteam:
    def test_matrix_prints_verdicts_and_saves_artifact(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_gadgets.json"
        code = main(
            ["redteam", "matrix", "--gadgets",
             "v1_bounds_bypass,reveal_rederef", "--no-audit",
             "--out", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "v1_bounds_bypass" in out
        assert "leak" in out and "protected" in out and "benign" in out
        payload = json.loads(out_path.read_text())
        assert payload["summary"]["ok"] is True

    def test_matrix_regression_gate(self, capsys, tmp_path):
        """A committed matrix with a different verdict fails the run."""
        baseline = {
            "verdicts": {"v1_bounds_bypass": {"unsafe": "protected"}}
        }
        expected = tmp_path / "expected.json"
        expected.write_text(json.dumps(baseline))
        code = main(
            ["redteam", "matrix", "--gadgets", "v1_bounds_bypass",
             "--schemes", "unsafe", "--no-audit",
             "--out", str(tmp_path / "out.json"),
             "--expected", str(expected)]
        )
        assert code == 1
        assert "regression" in capsys.readouterr().err

    def test_matrix_matches_committed_expected_matrix(self, capsys, tmp_path):
        expected = (
            Path(__file__).resolve().parents[1]
            / "data" / "redteam_expected_matrix.json"
        )
        code = main(
            ["redteam", "matrix", "--gadgets", "v1_indexed", "--no-audit",
             "--out", str(tmp_path / "out.json"),
             "--expected", str(expected)]
        )
        assert code == 0
        capsys.readouterr()

    def test_matrix_unknown_gadget_exits(self):
        with pytest.raises(SystemExit):
            main(["redteam", "matrix", "--gadgets", "heartbleed",
                  "--no-audit"])

    def test_audit_table(self, capsys):
        code = main(
            ["redteam", "audit", "--schemes", "stt+recon", "--trials", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stt+recon" in out
        assert "channel found" in out  # the unsafe control row
