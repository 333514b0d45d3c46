"""Unit tests for the classic symmetry-breaking reductions (repro.classic)."""

from __future__ import annotations

import pytest

from graph_helpers import named_workloads
from repro.classic.matching import maximal_matching, maximal_matching_from_edge_coloring
from repro.classic.mis import maximal_independent_set, mis_from_vertex_coloring
from repro.classic.vertex_coloring import (
    delta_plus_one_vertex_coloring,
    kuhn_wattenhofer_vertex_reduction,
)
from repro.baselines.sequential import sequential_greedy_edge_coloring
from repro.coloring.linial import linial_vertex_coloring
from repro.distributed.rounds import RoundTracker
from repro.graphs import generators
from repro.graphs.core import Graph
from repro.verification.checkers import (
    is_maximal_independent_set,
    is_maximal_matching,
    is_proper_vertex_coloring,
)


class TestDeltaPlusOneVertexColoring:
    def test_proper_and_delta_plus_one(self, medium_regular):
        colors, num_colors = delta_plus_one_vertex_coloring(medium_regular)
        assert is_proper_vertex_coloring(medium_regular, colors)
        assert num_colors == medium_regular.max_degree + 1
        assert max(colors) < num_colors

    def test_various_families(self):
        for _name, graph in named_workloads(seed=6):
            colors, num_colors = delta_plus_one_vertex_coloring(graph)
            assert is_proper_vertex_coloring(graph, colors)
            assert num_colors <= graph.max_degree + 1 or num_colors <= 4

    def test_kw_reduction_validates_target(self):
        graph = generators.complete_graph(5)
        colors, num_colors = linial_vertex_coloring(graph)
        with pytest.raises(ValueError):
            kuhn_wattenhofer_vertex_reduction(graph, colors, num_colors, target=3)

    def test_kw_reduction_preserves_properness(self):
        graph = generators.random_regular_graph(40, 6, seed=4)
        colors, num_colors = linial_vertex_coloring(graph)
        reduced = kuhn_wattenhofer_vertex_reduction(
            graph, colors, num_colors, target=graph.max_degree + 1
        )
        assert is_proper_vertex_coloring(graph, reduced)
        assert max(reduced) <= graph.max_degree

    def test_empty_graph(self):
        colors, num_colors = delta_plus_one_vertex_coloring(Graph(0, []))
        assert colors == []

    def test_rounds_charged(self, small_regular):
        tracker = RoundTracker()
        delta_plus_one_vertex_coloring(small_regular, tracker=tracker)
        assert tracker.total > 0


class TestMaximalMatching:
    def test_from_explicit_coloring(self, medium_regular):
        coloring = sequential_greedy_edge_coloring(medium_regular)
        matching = maximal_matching_from_edge_coloring(medium_regular, coloring)
        assert is_maximal_matching(medium_regular, matching)

    def test_via_paper_coloring(self, small_regular):
        matching, colors = maximal_matching(small_regular)
        assert is_maximal_matching(small_regular, matching)
        assert set(colors.keys()) == set(small_regular.edges())

    def test_round_cost_is_number_of_classes(self):
        graph = generators.cycle_graph(12)
        coloring = sequential_greedy_edge_coloring(graph)
        tracker = RoundTracker()
        maximal_matching_from_edge_coloring(graph, coloring, tracker=tracker)
        assert tracker.total == len(set(coloring.values()))

    def test_star_graph_matches_one_edge(self):
        graph = generators.star_graph(6)
        matching, _colors = maximal_matching(graph)
        assert len(matching) == 1
        assert is_maximal_matching(graph, matching)


class TestMaximalIndependentSet:
    def test_from_explicit_coloring(self, medium_regular):
        colors, _num = delta_plus_one_vertex_coloring(medium_regular)
        independent = mis_from_vertex_coloring(medium_regular, colors)
        assert is_maximal_independent_set(medium_regular, independent)

    def test_via_pipeline(self, small_regular):
        independent, colors = maximal_independent_set(small_regular)
        assert is_maximal_independent_set(small_regular, independent)
        assert is_proper_vertex_coloring(small_regular, colors)

    def test_complete_graph_mis_is_single_node(self):
        graph = generators.complete_graph(7)
        independent, _colors = maximal_independent_set(graph)
        assert len(independent) == 1

    def test_cycle_mis_size(self):
        graph = generators.cycle_graph(10)
        independent, _colors = maximal_independent_set(graph)
        assert 3 <= len(independent) <= 5
        assert is_maximal_independent_set(graph, independent)


class TestCheckers:
    def test_matching_checker_rejects_non_maximal(self):
        graph = generators.path_graph(5)
        assert not is_maximal_matching(graph, [])
        assert not is_maximal_matching(graph, [0, 1])  # adjacent edges
        assert is_maximal_matching(graph, [0, 2])

    def test_mis_checker_rejects_non_maximal(self):
        graph = generators.path_graph(5)
        assert not is_maximal_independent_set(graph, [])
        assert not is_maximal_independent_set(graph, [0, 1])  # adjacent nodes
        assert is_maximal_independent_set(graph, [0, 2, 4])
