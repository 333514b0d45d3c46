"""Unit tests for the experiment runner, tables and complexity fitting."""

from __future__ import annotations

import math

import pytest

from repro.analysis.complexity import loglog_slope
from repro.analysis.experiments import ExperimentRecord, run_algorithm_suite
from repro.analysis.tables import format_records, format_table
from repro.graphs import generators


class TestComplexityFitting:
    def test_loglog_slope_identifies_exponents(self):
        xs = [4, 8, 16, 32, 64, 128]
        assert loglog_slope(xs, [x ** 2 for x in xs]) == pytest.approx(2.0, abs=0.01)
        assert loglog_slope(xs, [x for x in xs]) == pytest.approx(1.0, abs=0.01)
        assert loglog_slope(xs, [math.log2(x) ** 2 for x in xs]) < 0.8

    def test_loglog_slope_requires_two_points(self):
        with pytest.raises(ValueError):
            loglog_slope([1], [1])

    def test_loglog_slope_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            loglog_slope([1, 2, 4], [1, 2])


class TestTables:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 234, "b": "z"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "234" in lines[3]

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_records(self):
        record = ExperimentRecord(
            experiment="E6", algorithm="demo", num_colors=5, bound=7.0, rounds=3, proper=True
        )
        text = format_records([record])
        assert "E6" in text and "demo" in text


class TestSuiteRunner:
    def test_run_suite_produces_proper_colorings(self):
        graph = generators.random_regular_graph(24, 4, seed=2)
        records = run_algorithm_suite(
            graph,
            experiment="unit",
            algorithms=("greedy-by-classes", "linear-in-delta", "randomized", "sequential"),
        )
        assert len(records) == 4
        assert all(r.proper for r in records)
        assert all(r.num_colors <= 2 * graph.max_degree - 1 + 1 for r in records)

    def test_run_suite_includes_core_algorithms(self):
        graph = generators.random_regular_graph(20, 4, seed=3)
        records = run_algorithm_suite(
            graph, experiment="unit", algorithms=("local-list-coloring", "congest-8eps")
        )
        names = {r.algorithm for r in records}
        assert names == {"local-list-coloring", "congest-8eps"}
        assert all(r.proper for r in records)

    def test_record_as_dict(self):
        record = ExperimentRecord(
            experiment="E1",
            algorithm="x",
            parameters={"delta": 4},
            num_colors=3,
            bound=7.0,
            rounds=9,
            proper=True,
            extra={"note": "ok"},
        )
        row = record.as_dict()
        assert row["delta"] == 4
        assert row["note"] == "ok"
        assert row["colors"] == 3
