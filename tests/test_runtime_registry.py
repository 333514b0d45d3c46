"""Registry coverage: every workload is a registered scenario.

Pins the acceptance contract of the runtime migration: all 11 E-series
workloads are registered scenarios with the expected cell counts, every
registered cell names a known runner, and the perf harness's regression
gate matches cells correctly.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.runtime import REGISTRY, get
from repro.runtime.workloads import RUNNERS

#: scenario name -> expected cell count (the E1..E11 bench workloads).
EXPECTED_BENCH = {
    "e1_sweep": 4,
    "e1_list": 2,
    "e2_congest": 5,
    "e3_bipartite": 4,
    "e4_token_dropping": 5,
    "e5_defective": 4,
    "e6_round_scaling": 4,
    "e7_logstar": 4,
    "e8_linial": 5,
    "e8_values": 1,
    "e9_slack": 3,
    "e9_degree_reduction": 1,
    "e10_ablation": 11,
    "e11_classic_reductions": 4,
}

#: The E-series prefixes that must each map to >= 1 registered scenario.
E_SERIES = [f"e{i}" for i in range(1, 12)]


class TestRegistryCoverage:
    def test_all_bench_scenarios_registered_with_cell_counts(self):
        for name, cells in EXPECTED_BENCH.items():
            spec = get(name)
            assert spec.cell_count() == cells, name

    def test_all_eleven_e_series_workloads_covered(self):
        names = REGISTRY.names()
        for prefix in E_SERIES:
            assert any(
                n == prefix or n.startswith(prefix + "_") for n in names
            ), f"no scenario registered for {prefix}"

    def test_every_spec_names_a_known_runner(self):
        for spec in REGISTRY.specs():
            assert spec.runner in RUNNERS, spec.name

    def test_perf_suite_registered(self):
        from repro.runtime.scenarios import PERF_SCENARIOS

        for _legacy, name in PERF_SCENARIOS:
            assert name in REGISTRY

    def test_unknown_scenario_lists_alternatives(self):
        with pytest.raises(KeyError, match="e1_sweep"):
            get("does_not_exist")

    def test_duplicate_registration_rejected(self):
        spec = get("e1_sweep")
        with pytest.raises(ValueError, match="already registered"):
            REGISTRY.register(spec)


class TestPerfGridDrift:
    """The perf harness's regression gate (``check_regressions``)."""

    def test_perf_gate_flags_only_real_regressions(self):
        # The CI perf-regression wall: per-scenario matched-cell totals
        # beyond the tolerance fail, everything else (noise, unmatched
        # cells, improvements) passes.
        repo_root = os.path.join(os.path.dirname(__file__), "..")
        sys.path.insert(0, os.path.abspath(repo_root))
        try:
            from benchmarks.run_benchmarks import check_regressions
        finally:
            sys.path.pop(0)

        committed = [
            {"scenario": "E6", "n": 128, "delta": 16, "wall_seconds": 0.010},
            {"scenario": "E6", "n": 128, "delta": 32, "wall_seconds": 0.030},
            {"scenario": "E8", "n": 256, "delta": 4, "wall_seconds": 0.002},
        ]
        fine = [
            {"scenario": "E6", "n": 128, "delta": 16, "wall_seconds": 0.015},
            {"scenario": "E6", "n": 128, "delta": 32, "wall_seconds": 0.040},
            {"scenario": "E8", "n": 256, "delta": 4, "wall_seconds": 0.001},
            {"scenario": "NEW", "n": 1, "delta": 1, "wall_seconds": 99.0},  # unmatched
        ]
        assert check_regressions(committed, fine, tolerance=2.0, log=None) == []
        regressed = [
            {"scenario": "E6", "n": 128, "delta": 16, "wall_seconds": 0.050},
            {"scenario": "E6", "n": 128, "delta": 32, "wall_seconds": 0.070},
            {"scenario": "E8", "n": 256, "delta": 4, "wall_seconds": 0.001},
        ]
        problems = check_regressions(committed, regressed, tolerance=2.0, log=None)
        assert len(problems) == 1 and problems[0].startswith("E6")

    def test_perf_gate_distinguishes_clients_cells(self):
        # The E13 concurrent-clients cell shares (scenario, n, delta)
        # with the kill/replay cell; the gate must match each against
        # its own committed twin (keyed by the clients count), not let
        # the dict collision pair the slow cell with the fast one.
        repo_root = os.path.join(os.path.dirname(__file__), "..")
        sys.path.insert(0, os.path.abspath(repo_root))
        try:
            from benchmarks.run_benchmarks import cell_key, check_regressions
        finally:
            sys.path.pop(0)

        kill = {"scenario": "E13", "n": 200, "delta": 6, "wall_seconds": 0.8}
        conc = {
            "scenario": "E13",
            "n": 200,
            "delta": 6,
            "clients": 4,
            "wall_seconds": 0.08,
        }
        assert cell_key(kill) != cell_key(conc)
        # Identical fresh rerun: must pass (the collision made this fail
        # at ~x5 because both fresh cells matched the fast committed one).
        assert check_regressions([kill, conc], [dict(kill), dict(conc)], 2.0, log=None) == []
        # A real concurrency regression (the gate totals per scenario,
        # so the slow cell must move the whole-scenario total past x2).
        slow_conc = dict(conc, wall_seconds=2.0)
        problems = check_regressions([kill, conc], [dict(kill), slow_conc], 2.0, log=None)
        assert len(problems) == 1 and problems[0].startswith("E13")
