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
from repro.runtime.spec import cell_seed
from repro.runtime.workloads import RUNNERS, CellContext

#: scenario name -> expected cell count (the E1..E11 bench workloads).
EXPECTED_BENCH = {
    "e1_sweep": 4,
    "e1_list": 2,
    "e2_congest": 5,
    "e3_bipartite": 4,
    "e4_token_dropping": 5,
    "e5_defective": 4,
    "e6_round_scaling": 6,
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


def _cheapest_quick_cell(runner_name):
    """The smallest quick cell, by (n or side, delta or degree), of any spec running it."""
    cells = [
        (spec, cell)
        for spec in REGISTRY.specs()
        if spec.runner == runner_name
        for _index, cell in spec.iter_cells(quick=True)
    ]

    def size(entry):
        params = entry[1].params
        return params.get("n", params.get("side", 0)), params.get("delta", params.get("degree", 0))

    return min(cells, key=size)


class TestRunnerEnvelope:
    """Every registered runner goes through the one setup/solve/verify skeleton."""

    @pytest.mark.parametrize("runner_name", sorted({s.runner for s in REGISTRY.specs()}))
    def test_quick_cell_is_verified_with_a_phase_split(self, runner_name):
        spec, cell = _cheapest_quick_cell(runner_name)
        result = RUNNERS[runner_name](
            CellContext(params=cell.params, seed=cell_seed(spec, cell), repeats=cell.repeats)
        )
        assert result["verified"] is True
        assert set(result["timing"]["phases"]) == {"setup", "solve", "verify"}
        assert result["timing"]["wall_seconds"] >= 0

    @pytest.mark.parametrize(
        "record_fields, message",
        [
            ({"num_colors": 5, "proper": False}, "improper greedy-by-classes"),
            ({"num_colors": 12, "proper": True}, "12 colors > bound 11"),
        ],
        ids=["improper", "over_bound"],
    )
    def test_e6_rejects_a_faulty_suite_record(self, monkeypatch, record_fields, message):
        # E6 checks every algorithm of the suite, not only the paper's two.
        from repro.analysis import experiments

        def faulty_suite(graph, experiment, parameters, seed):
            return [
                experiments.ExperimentRecord(
                    experiment, "greedy-by-classes", parameters, bound=11, rounds=1,
                    **record_fields,
                )
            ]

        monkeypatch.setattr(experiments, "run_algorithm_suite", faulty_suite)
        params = {"n": 48, "delta": 6, "graph_seed": 1, "rand_seed": 6}
        with pytest.raises(AssertionError, match=message):
            RUNNERS["round_scaling_suite"](CellContext(params=params, seed=0, repeats=1))

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda outputs: [None] + outputs[1:], "uncolored node"),
            (lambda outputs: [0] * len(outputs), "improper"),
        ],
        ids=["uncolored", "monochromatic"],
    )
    def test_e8_rejects_an_improper_linial_outcome(self, monkeypatch, spoil, message):
        # E8 checks the coloring, not only the CONGEST budget.
        from repro import api

        real = api.run_linial_network

        def spoiled_run(graph, network=None):
            outcome = real(graph, network=network)
            outcome.outputs = spoil(outcome.outputs)
            return outcome

        monkeypatch.setattr(api, "run_linial_network", spoiled_run)
        params = {"n": 64, "degree": 4, "id_space_factor": 8}
        with pytest.raises(AssertionError, match=message):
            RUNNERS["linial_audit"](CellContext(params=params, seed=0, repeats=1))

    def test_e4_rejects_a_move_without_a_phase(self, monkeypatch):
        # E4 runs the structural token-game check, not only the token cap.
        from repro.core import token_dropping

        real = token_dropping.run_token_dropping

        def tampered(game):
            result = real(game)
            result.arc_moves.pop(min(result.moved_arcs))
            return result

        monkeypatch.setattr(token_dropping, "run_token_dropping", tampered)
        params = {"variant": "layered", "layers": 6, "width": 16, "k": 8, "delta": 1}
        with pytest.raises(AssertionError, match="invalid token game"):
            RUNNERS["token_dropping"](CellContext(params=params, seed=0, repeats=1))

    def test_e5_recounts_the_defects_it_is_handed(self, monkeypatch):
        # The result reports every defect as 0 under λ's that make every
        # Definition 5.1 bound 0; only a recount off the colors sees the
        # same-colored neighbors.
        from repro.core import defective_edge_coloring as dec

        real = dec.generalized_defective_two_edge_coloring

        def tampered(*args, **kwargs):
            result = real(*args, **kwargs)
            result.lambdas = {e: 0.0 if c == dec.RED else 1.0 for e, c in result.colors.items()}
            result._defects = dict.fromkeys(result.colors, 0)
            return result

        monkeypatch.setattr(dec, "generalized_defective_two_edge_coloring", tampered)
        params = {"variant": "half", "side": 48, "delta": 12, "graph_seed": 17, "epsilon": 1.0}
        with pytest.raises(AssertionError, match="recount violations"):
            RUNNERS["defective_two_coloring"](CellContext(params=params, seed=0, repeats=1))

    def test_e10_recounts_the_orientation_in_degrees(self, monkeypatch):
        # Swapping two unequal in-degrees keeps their sum, so only a
        # recount off the orientation sees it.
        from repro.core import balanced_orientation

        real = balanced_orientation.compute_balanced_orientation

        def tampered(*args, **kwargs):
            result = real(*args, **kwargs)
            x = result.in_degrees
            i = next(v for v in range(len(x)) if x[v] != x[0])
            x[0], x[i] = x[i], x[0]
            return result

        monkeypatch.setattr(balanced_orientation, "compute_balanced_orientation", tampered)
        params = {"ablation": "orientation_nu", "nu": 0.05}
        with pytest.raises(AssertionError, match="in-degree recount"):
            RUNNERS["ablation"](CellContext(params=params, seed=0, repeats=1))

    def test_e9_checks_the_slack_invariant_on_its_instance(self, monkeypatch):
        # A proper partial coloring keeps the (degree+1) invariant on
        # (degree+1) lists, and this cell's pass colors every edge.  So
        # the tamper uncolors every even edge and cuts the instance's
        # shared palette to one color.
        import importlib

        # ``repro.core.list_edge_coloring`` is also a function re-exported
        # by ``repro.core``; the module itself holds the runner's import.
        list_edge_coloring = importlib.import_module("repro.core.list_edge_coloring")
        real = list_edge_coloring.partially_color_bipartite

        def tampered(graph, instance, parts, coloring):
            newly = real(graph, instance, parts, coloring=coloring)
            del instance.lists[next(iter(instance.edge_set))][1:]
            return {e: c for e, c in newly.items() if e % 2}

        monkeypatch.setattr(list_edge_coloring, "partially_color_bipartite", tampered)
        params = {"side": 48, "delta": 10, "graph_seed": 31}
        with pytest.raises(AssertionError, match="slack invariant broken"):
            RUNNERS["degree_reduction"](CellContext(params=params, seed=0, repeats=1))


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
