"""The runtime determinism matrix and the resume/caching contract.

The ISSUE-level guarantee under test: the same scenario run with
``workers=1``, ``workers=4`` and ``--resume`` after a simulated
interrupt produces byte-identical JSONL result rows (modulo the timing
fields), and a repeated ``--resume`` run executes zero cells.
"""

from __future__ import annotations

import json

import pytest

from repro.runtime import get, run_scenario
from repro.runtime.spec import Cell, Knobs, spec
from repro.runtime.store import (
    ResultStore,
    diff_rows,
    strip_timing,
)
from repro.runtime.workloads import RUNNERS

#: A cheap real scenario for the matrix (5 token-dropping cells, ~10 ms).
MATRIX_SCENARIO = "e4_token_dropping"


def _strip_all(rows):
    return [strip_timing(row) for row in rows]


class TestDeterminismMatrix:
    @pytest.fixture(scope="class")
    def serial_rows(self):
        return run_scenario(get(MATRIX_SCENARIO), workers=1).rows

    def test_serial_rerun_is_bit_identical(self, serial_rows):
        again = run_scenario(get(MATRIX_SCENARIO), workers=1).rows
        assert _strip_all(again) == _strip_all(serial_rows)

    def test_workers4_matches_serial(self, serial_rows):
        parallel = run_scenario(get(MATRIX_SCENARIO), workers=4).rows
        assert _strip_all(parallel) == _strip_all(serial_rows)
        assert diff_rows(parallel, serial_rows) == []

    def test_workers2_jsonl_bytes_match_serial_modulo_timing(self, tmp_path, serial_rows):
        store = ResultStore(str(tmp_path / "w2.jsonl"))
        run_scenario(get(MATRIX_SCENARIO), workers=2, store=store)
        on_disk = store.rows()
        assert not diff_rows(on_disk, serial_rows)
        # Rows are persisted in deterministic cell order, so even the
        # line order matches the serial execution order.
        assert [row["cell_index"] for row in on_disk] == [
            row["cell_index"] for row in serial_rows
        ]

    def test_resume_after_interrupt_completes_identically(self, tmp_path, serial_rows):
        path = str(tmp_path / "interrupted.jsonl")
        store = ResultStore(path)
        run_scenario(get(MATRIX_SCENARIO), workers=1, store=store)
        # Simulate an interrupt: keep the first two rows and a torn
        # trailing write (half a JSON line, no newline).
        lines = open(path, encoding="utf-8").read().splitlines()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:2]) + "\n")
            handle.write(lines[2][: len(lines[2]) // 2])
        resumed = run_scenario(get(MATRIX_SCENARIO), workers=1, resume=True, store=store)
        assert resumed.skipped == 2
        assert resumed.executed == len(serial_rows) - 2
        assert _strip_all(resumed.rows) == _strip_all(serial_rows)
        assert not diff_rows(store.rows(), serial_rows)

    def test_repeated_resume_executes_zero_cells(self, tmp_path, serial_rows):
        store = ResultStore(str(tmp_path / "full.jsonl"))
        run_scenario(get(MATRIX_SCENARIO), workers=1, store=store)
        again = run_scenario(get(MATRIX_SCENARIO), workers=1, resume=True, store=store)
        assert again.executed == 0
        assert again.skipped == len(serial_rows)
        assert _strip_all(again.rows) == _strip_all(serial_rows)

    def test_knob_change_invalidates_cache(self, tmp_path):
        store = ResultStore(str(tmp_path / "knobs.jsonl"))
        run_scenario(get(MATRIX_SCENARIO), workers=1, store=store, knobs=Knobs())
        rerun = run_scenario(
            get(MATRIX_SCENARIO),
            workers=1,
            resume=True,
            store=store,
            knobs=Knobs(scan_path="python"),
        )
        assert rerun.executed == len(rerun.rows)  # different keys -> no hits


class TestExecutorPlumbing:
    def test_quick_filter_restricts_cells(self):
        report = run_scenario(get("e8_values"), workers=1, quick=True)
        assert report.total == 1

    def test_rows_carry_cell_order_and_keys(self):
        report = run_scenario(get(MATRIX_SCENARIO), workers=1)
        indices = [row["cell_index"] for row in report.rows]
        assert indices == sorted(indices)
        assert len({row["key"] for row in report.rows}) == len(report.rows)

    def test_rows_are_json_serializable_canonical(self):
        report = run_scenario(get("e9_degree_reduction"), workers=1)
        for row in report.rows:
            json.dumps(row, sort_keys=True)

    def test_adhoc_spec_with_custom_runner(self, tmp_path):
        calls = []

        def demo_runner(ctx):
            calls.append(ctx.params["i"])
            return {"i": ctx.params["i"], "seed": ctx.seed, "verified": True}

        RUNNERS.setdefault("unit_demo_runner", demo_runner)
        try:
            demo = spec(
                "unit_demo_exec",
                "ad-hoc",
                "unit_demo_runner",
                [Cell(params={"i": i}) for i in range(3)],
            )
            store = ResultStore(str(tmp_path / "demo.jsonl"))
            report = run_scenario(demo, workers=1, store=store)
            assert calls == [0, 1, 2]
            assert [row["result"]["i"] for row in report.rows] == [0, 1, 2]
            seeds = {row["seed"] for row in report.rows}
            assert len(seeds) == 3  # derived seeds are distinct per cell
        finally:
            RUNNERS.pop("unit_demo_runner", None)


class TestStore:
    def test_corrupt_middle_line_is_an_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"key": "a"}\nnot json\n{"key": "b"}\n')
        with pytest.raises(ValueError, match="corrupt row"):
            ResultStore(str(path)).rows()

    def test_truncated_trailing_line_is_tolerated(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"key": "a"}\n{"key": "b"')
        store = ResultStore(str(path))
        assert list(store.rows_by_key()) == ["a"]

    def test_missing_file_is_empty(self, tmp_path):
        assert ResultStore(str(tmp_path / "absent.jsonl")).rows() == []

    def test_diff_reports_value_and_count_mismatches(self):
        a = [{"key": "k", "cell_index": 0, "result": {"x": 1}, "timing": {"w": 1}}]
        b = [{"key": "k", "cell_index": 0, "result": {"x": 2}, "timing": {"w": 9}}]
        extra = [{"key": "k2", "cell_index": 1, "result": {"x": 3}, "timing": {"w": 2}}]
        assert diff_rows(a, a) == []
        assert any("rows differ" in p for p in diff_rows(a, b))
        assert any("cell count" in p for p in diff_rows(a, a + extra))

    def test_diff_tolerates_duplicate_appended_rows(self):
        # Two non-resume runs append every row twice; the store is still
        # equivalent to a single run (last occurrence per key wins).
        row = {"key": "k", "cell_index": 0, "result": {"x": 1}, "timing": {"w": 1}}
        rerun = {"key": "k", "cell_index": 0, "result": {"x": 1}, "timing": {"w": 7}}
        assert diff_rows([row, rerun], [row]) == []

    def test_diff_ignore_knobs_matches_across_engine_settings(self):
        # Rows computed under different resolved knobs have different
        # cache keys; --ignore-knobs matches them by cell identity and
        # compares everything but timing/knobs/key.
        def row(key, knobs, x):
            return {
                "spec": "s",
                "version": "1",
                "cell_index": 0,
                "key": key,
                "params": {"n": 8},
                "seed": 1,
                "knobs": knobs,
                "result": {"x": x},
                "timing": {"w": 1},
            }

        numpy_rows = [row("ka", {"scan_path": "numpy", "repair_path": "incremental"}, 1)]
        python_rows = [row("kb", {"scan_path": "python", "repair_path": "recompute"}, 1)]
        # Plain diff sees disjoint keys; the knob-insensitive diff agrees.
        assert diff_rows(numpy_rows, python_rows)
        assert diff_rows(numpy_rows, python_rows, ignore_knobs=True) == []
        # A genuine result difference still fails under --ignore-knobs.
        drifted = [row("kb", {"scan_path": "python", "repair_path": "recompute"}, 2)]
        assert any(
            "rows differ" in p
            for p in diff_rows(numpy_rows, drifted, ignore_knobs=True)
        )
