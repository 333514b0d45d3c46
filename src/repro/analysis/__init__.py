"""Experiment runner, result tables and complexity fitting."""

from repro.analysis.experiments import ExperimentRecord, run_algorithm_suite
from repro.analysis.tables import format_records, format_table
from repro.analysis.complexity import loglog_slope

__all__ = [
    "ExperimentRecord",
    "run_algorithm_suite",
    "format_records",
    "format_table",
    "loglog_slope",
]
