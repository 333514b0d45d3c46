"""Unit tests for generalized balanced edge orientations (Section 5)."""

from __future__ import annotations

import pytest

from repro.core import engine, parameters
from repro.core.balanced_orientation import compute_balanced_orientation
from repro.core.engine import NUMPY_SCAN_THRESHOLD, _np
from repro.distributed.rounds import RoundTracker
from repro.graphs import generators
from repro.verification.checkers import orientation_in_degrees


def zero_eta(graph, edge_set=None):
    edges = edge_set if edge_set is not None else graph.edges()
    return {e: 0.0 for e in edges}


class TestOrientationStructure:
    def test_every_edge_oriented(self, medium_bipartite):
        graph, bipartition = medium_bipartite
        result = compute_balanced_orientation(graph, bipartition, zero_eta(graph), epsilon=0.5)
        assert set(result.orientation.keys()) == set(graph.edges())
        for e, (tail, head) in result.orientation.items():
            u, v = graph.edge_endpoints(e)
            assert {tail, head} == {u, v}

    def test_in_degrees_consistent(self, medium_bipartite):
        graph, bipartition = medium_bipartite
        result = compute_balanced_orientation(graph, bipartition, zero_eta(graph), epsilon=0.5)
        assert result.in_degrees == orientation_in_degrees(graph, result.orientation)
        assert sum(result.in_degrees) == graph.num_edges

    def test_edge_subset_only(self, medium_bipartite):
        graph, bipartition = medium_bipartite
        subset = set(list(graph.edges())[::3])
        result = compute_balanced_orientation(
            graph, bipartition, zero_eta(graph, subset), epsilon=0.5, edge_set=subset
        )
        assert set(result.orientation.keys()) == subset

    def test_empty_instance(self, small_bipartite):
        graph, bipartition = small_bipartite
        result = compute_balanced_orientation(graph, bipartition, {}, epsilon=0.5, edge_set=[])
        assert result.orientation == {}
        assert result.phases == 0


class TestBalanceGuarantee:
    def test_definition_52_with_analytic_beta(self, medium_bipartite):
        # With the analytic β of Theorem 5.6 the balance condition must hold.
        graph, bipartition = medium_bipartite
        epsilon = 0.5
        eta = zero_eta(graph)
        result = compute_balanced_orientation(graph, bipartition, eta, epsilon=epsilon)
        beta = parameters.beta_theoretical(epsilon, max(2, result.bar_delta))
        assert result.definition_52_violations(graph, bipartition, eta, epsilon, beta) == []

    def test_balance_is_reasonable_even_with_small_beta(self, medium_bipartite):
        # The measured imbalance should stay far below the trivial bound Δ̄.
        graph, bipartition = medium_bipartite
        eta = zero_eta(graph)
        result = compute_balanced_orientation(graph, bipartition, eta, epsilon=0.25)
        worst = 0
        for e in graph.edges():
            u, v = bipartition.orient_edge(graph, e)
            tail, head = result.orientation[e]
            if (tail, head) == (u, v):
                worst = max(worst, result.in_degrees[v] - result.in_degrees[u])
            else:
                worst = max(worst, result.in_degrees[u] - result.in_degrees[v])
        assert worst <= result.bar_delta

    def test_regular_graph_gets_balanced_in_degrees(self):
        # On a Δ-regular bipartite graph a balanced orientation keeps every
        # in-degree near Δ/2 (this is what makes the defective 2-coloring
        # of Section 5 work).
        graph, bipartition = generators.regular_bipartite_graph(32, 8, seed=13)
        eta = zero_eta(graph)
        result = compute_balanced_orientation(graph, bipartition, eta, epsilon=0.25)
        for v in graph.nodes():
            assert 0 <= result.in_degrees[v] <= graph.degree(v)
        average = sum(result.in_degrees) / graph.num_nodes
        assert abs(average - 4.0) < 1e-9

    def test_phase_budget_respected(self, small_bipartite):
        graph, bipartition = small_bipartite
        result = compute_balanced_orientation(
            graph, bipartition, zero_eta(graph), epsilon=0.5, max_phases=3
        )
        assert result.phases <= 3
        assert set(result.orientation.keys()) == set(graph.edges())

    def test_rounds_charged_to_tracker(self, small_bipartite):
        graph, bipartition = small_bipartite
        tracker = RoundTracker()
        result = compute_balanced_orientation(
            graph, bipartition, zero_eta(graph), epsilon=0.5, tracker=tracker
        )
        assert tracker.total == result.rounds
        assert result.rounds > 0


class TestScanPathCrossCheck:
    """The numpy and pure-python participation scans must be bit-identical.

    Instances are chosen on both sides of the auto-mode threshold
    (NUMPY_SCAN_THRESHOLD edges), so the forced paths are each exercised
    where auto mode would *not* have picked them.
    """

    # (nodes, degree) -> edges = nodes * degree / 2: 32 edges sit below
    # the engine threshold, 128, 512 and 768 at or above it.
    CASES = [(16, 4), (32, 8), (64, 16), (96, 16)]

    @staticmethod
    def varied_eta(graph):
        return {e: 0.5 * (e % 3) for e in graph.edges()}

    @pytest.mark.skipif(_np is None, reason="numpy not installed")
    @pytest.mark.parametrize("nodes,degree", CASES)
    def test_numpy_and_python_paths_bit_identical(self, nodes, degree):
        graph, bipartition = generators.regular_bipartite_graph(nodes, degree, seed=nodes + degree)
        assert (graph.num_edges >= NUMPY_SCAN_THRESHOLD) == (
            nodes * degree // 2 >= NUMPY_SCAN_THRESHOLD
        )
        eta = self.varied_eta(graph)
        results = {}
        for path in ("python", "numpy"):
            tracker = RoundTracker()
            with engine.scan_path(path):
                result = compute_balanced_orientation(
                    graph, bipartition, eta, epsilon=0.5, tracker=tracker
                )
            results[path] = (result, tracker.total)
        py, py_rounds = results["python"]
        np_, np_rounds = results["numpy"]
        assert py.orientation == np_.orientation
        assert py.in_degrees == np_.in_degrees
        assert py.phases == np_.phases
        assert py.rounds == np_.rounds == py_rounds == np_rounds
        assert py.nu == np_.nu
        assert py.bar_delta == np_.bar_delta

    @pytest.mark.skipif(_np is None, reason="numpy not installed")
    @pytest.mark.parametrize("nodes,degree", [(16, 4), (64, 16)])
    def test_auto_matches_both_forced_paths(self, nodes, degree):
        graph, bipartition = generators.regular_bipartite_graph(nodes, degree, seed=7)
        eta = self.varied_eta(graph)
        auto = compute_balanced_orientation(graph, bipartition, eta, epsilon=0.5)
        with engine.scan_path("python"):
            forced = compute_balanced_orientation(graph, bipartition, eta, epsilon=0.5)
        assert auto.orientation == forced.orientation
        assert auto.in_degrees == forced.in_degrees

    @pytest.mark.skipif(_np is None, reason="numpy not installed")
    def test_cross_check_on_edge_subset(self):
        graph, bipartition = generators.regular_bipartite_graph(64, 16, seed=21)
        subset = sorted(set(graph.edges()) - set(range(0, graph.num_edges, 5)))
        eta = {e: 0.5 * (e % 3) for e in subset}
        with engine.scan_path("python"):
            py = compute_balanced_orientation(graph, bipartition, eta, epsilon=0.5, edge_set=subset)
        with engine.scan_path("numpy"):
            np_ = compute_balanced_orientation(
                graph, bipartition, eta, epsilon=0.5, edge_set=subset
            )
        assert py.orientation == np_.orientation
        assert py.in_degrees == np_.in_degrees

    def test_unknown_scan_path_rejected(self, small_bipartite):
        graph, bipartition = small_bipartite
        with pytest.raises(ValueError, match="scan_path"), engine.scan_path("fortran"):
            compute_balanced_orientation(graph, bipartition, zero_eta(graph), epsilon=0.5)
