"""Unit tests for execution metrics."""

from __future__ import annotations

from repro.distributed.metrics import ExecutionMetrics


class TestExecutionMetrics:
    def test_defaults(self):
        metrics = ExecutionMetrics()
        assert metrics.rounds == 0
        assert metrics.messages == 0
        assert metrics.congest_budget_bits is None
