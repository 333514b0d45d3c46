"""Tests for the ``scenarios`` CLI subcommand family."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestScenariosList:
    def test_lists_all_bench_scenarios_with_cell_counts(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in (
            "e1_sweep",
            "e2_congest",
            "e3_bipartite",
            "e4_token_dropping",
            "e5_defective",
            "e6_round_scaling",
            "e7_logstar",
            "e8_linial",
            "e9_slack",
            "e10_ablation",
            "e11_classic_reductions",
        ):
            assert name in out
        # Cell counts are shown (e10 has 11 cells).
        line = next(l for l in out.splitlines() if l.startswith("e10_ablation"))
        assert " 11 " in line

    def test_tag_filter(self, capsys):
        assert main(["scenarios", "list", "--tag", "perf"]) == 0
        out = capsys.readouterr().out
        assert "e1_large" in out
        assert "e9_slack" not in out


class TestScenariosRun:
    def test_run_writes_store_and_resume_skips(self, tmp_path, capsys):
        out_path = str(tmp_path / "e4.jsonl")
        assert main(["scenarios", "run", "e4_token_dropping", "--out", out_path]) == 0
        first = capsys.readouterr().out
        assert "5 executed, 0 cached" in first
        rows = [json.loads(line) for line in open(out_path, encoding="utf-8")]
        assert len(rows) == 5
        assert all(row["result"]["verified"] for row in rows)
        # Resume: zero cells execute the second time.
        assert main(
            ["scenarios", "run", "e4_token_dropping", "--resume", "--out", out_path]
        ) == 0
        second = capsys.readouterr().out
        assert "0 executed, 5 cached" in second

    def test_run_quick_subset(self, tmp_path, capsys):
        out_path = str(tmp_path / "e8v.jsonl")
        assert main(
            ["scenarios", "run", "e8_values", "--quick", "--no-progress", "--out", out_path]
        ) == 0
        assert "1 executed" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag", ["--scan-path", "--send-plane", "--receive-plane", "--repair-path"]
    )
    def test_run_rejects_unknown_knob_values(self, flag, tmp_path, capsys):
        argv = ["scenarios", "run", "e8_values", flag, "bogus", "--out", str(tmp_path / "x")]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


class TestScenariosReportAndDiff:
    @pytest.fixture()
    def two_stores(self, tmp_path, capsys):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        main(["scenarios", "run", "e9_degree_reduction", "--no-progress", "--out", a])
        main(["scenarios", "run", "e9_degree_reduction", "--no-progress", "--out", b])
        capsys.readouterr()
        return a, b

    def test_report(self, two_stores, capsys):
        a, _b = two_stores
        assert main(["scenarios", "report", a]) == 0
        out = capsys.readouterr().out
        assert "e9_degree_reduction" in out
        assert "1 verified" in out

    def test_diff_identical(self, two_stores, capsys):
        a, b = two_stores
        assert main(["scenarios", "diff", a, b]) == 0
        assert "identical modulo timing" in capsys.readouterr().out

    def test_diff_detects_result_change(self, two_stores, capsys):
        a, b = two_stores
        rows = [json.loads(line) for line in open(b, encoding="utf-8")]
        rows[0]["result"]["colored"] += 1
        with open(b, "w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row, sort_keys=True) + "\n")
        assert main(["scenarios", "diff", a, b]) == 1
        assert "rows differ" in capsys.readouterr().out

    def test_report_missing_store(self, tmp_path, capsys):
        assert main(["scenarios", "report", str(tmp_path / "none.jsonl")]) == 1


class TestScenariosRunHardening:
    @pytest.fixture()
    def chaos_scenario(self):
        from repro.runtime import registry
        from repro.runtime.spec import RetryPolicy, spec

        name = "cli_chaos_unit"
        registry.register(
            spec(
                name,
                "CLI chaos probes",
                "chaos_probe",
                [{"mode": "ok", "payload": 1}, {"mode": "raise"}, {"mode": "ok", "payload": 2}],
                retry=RetryPolicy(max_retries=0, backoff_seconds=0.0),
            ),
            replace=True,
        )
        yield name
        registry.REGISTRY._specs.pop(name, None)

    def test_run_exits_nonzero_when_a_cell_errors(self, chaos_scenario, tmp_path, capsys):
        out_path = str(tmp_path / "chaos.jsonl")
        assert main(["scenarios", "run", chaos_scenario, "--out", out_path]) == 1
        captured = capsys.readouterr()
        assert "1 errored" in captured.out
        assert "quarantined" in captured.err
        # The sweep still completed: every cell has a row.
        rows = [json.loads(line) for line in open(out_path, encoding="utf-8")]
        assert len(rows) == 3

    def test_resume_still_nonzero_retry_errors_reattempts(
        self, chaos_scenario, tmp_path, capsys
    ):
        out_path = str(tmp_path / "chaos.jsonl")
        main(["scenarios", "run", chaos_scenario, "--out", out_path])
        capsys.readouterr()
        # Default resume skips the error row but still reports the sweep dirty.
        assert main(
            ["scenarios", "run", chaos_scenario, "--resume", "--out", out_path]
        ) == 1
        assert "0 executed, 3 cached, 1 errored" in capsys.readouterr().out
        # --retry-errors re-executes exactly the quarantined cell.
        assert main(
            [
                "scenarios", "run", chaos_scenario,
                "--resume", "--retry-errors", "--out", out_path,
            ]
        ) == 1
        assert "1 executed, 2 cached, 1 errored" in capsys.readouterr().out

    def test_retry_flag_overrides_spec_policy(self, chaos_scenario, tmp_path, capsys):
        out_path = str(tmp_path / "chaos.jsonl")
        main(
            [
                "scenarios", "run", chaos_scenario,
                "--retries", "2", "--no-progress", "--out", out_path,
            ]
        )
        capsys.readouterr()
        rows = [json.loads(line) for line in open(out_path, encoding="utf-8")]
        error = next(row for row in rows if row.get("status") == "error")
        assert error["error"]["attempts"] == 3

    def test_report_shows_error_rows_column(self, chaos_scenario, tmp_path, capsys):
        out_path = str(tmp_path / "chaos.jsonl")
        main(["scenarios", "run", chaos_scenario, "--no-progress", "--out", out_path])
        capsys.readouterr()
        assert main(["scenarios", "report", out_path]) == 0
        out = capsys.readouterr().out
        assert "1 error rows" in out
        assert "ERROR RuntimeError" in out

    def test_fsync_flag_accepted(self, tmp_path, capsys):
        out_path = str(tmp_path / "e8v.jsonl")
        assert main(
            [
                "scenarios", "run", "e8_values",
                "--quick", "--fsync", "--no-progress", "--out", out_path,
            ]
        ) == 0


class TestScenariosCompact:
    def test_compact_drops_superseded_rows(self, tmp_path, capsys):
        out_path = str(tmp_path / "e4.jsonl")
        # Two non-resume runs double every row; compact keeps one per key.
        main(["scenarios", "run", "e4_token_dropping", "--no-progress", "--out", out_path])
        main(["scenarios", "run", "e4_token_dropping", "--no-progress", "--out", out_path])
        capsys.readouterr()
        assert main(["scenarios", "compact", out_path]) == 0
        assert "10 rows -> 5 rows (5 superseded removed)" in capsys.readouterr().out
        rows = [json.loads(line) for line in open(out_path, encoding="utf-8")]
        assert len(rows) == 5


class TestLegacyCliUnchanged:
    def test_algorithm_run_still_works(self, capsys):
        assert main(["--algorithm", "local", "--family", "cycle", "--n", "12"]) == 0
        assert "local-list-coloring" in capsys.readouterr().out
