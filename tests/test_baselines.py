"""Unit tests for the baseline algorithms."""

from __future__ import annotations

import pytest

from repro.baselines.barenboim_elkin import barenboim_elkin_edge_coloring
from repro.baselines.greedy_by_classes import greedy_baseline_edge_coloring
from repro.baselines.panconesi_rizzi import linear_in_delta_edge_coloring
from repro.baselines.randomized import randomized_edge_coloring
from repro.baselines.sequential import (
    sequential_greedy_edge_coloring,
    sequential_greedy_vertex_coloring,
)
from repro.classic.vertex_coloring import kuhn_wattenhofer_vertex_reduction
from repro.coloring.linial import linial_vertex_coloring
from repro.graphs import generators
from repro.graphs.core import Graph
from repro.verification.checkers import (
    is_proper_edge_coloring,
    is_proper_vertex_coloring,
)


class TestSequentialGreedy:
    def test_edge_coloring_uses_at_most_edge_degree_plus_one(self, medium_regular):
        colors = sequential_greedy_edge_coloring(medium_regular)
        assert is_proper_edge_coloring(medium_regular, colors)
        assert max(colors.values()) <= medium_regular.max_edge_degree

    def test_vertex_coloring_uses_at_most_delta_plus_one(self, medium_regular):
        colors = sequential_greedy_vertex_coloring(medium_regular)
        assert is_proper_vertex_coloring(medium_regular, colors)
        assert max(colors) <= medium_regular.max_degree


class TestGreedyByClasses:
    def test_proper_and_within_bound(self, medium_regular):
        result = greedy_baseline_edge_coloring(medium_regular)
        assert is_proper_edge_coloring(medium_regular, result.colors)
        assert result.num_colors <= result.bound == 2 * medium_regular.max_degree - 1
        assert result.rounds > 0

    def test_rounds_scale_with_delta_squared(self):
        small = greedy_baseline_edge_coloring(generators.random_regular_graph(40, 4, seed=1))
        large = greedy_baseline_edge_coloring(generators.random_regular_graph(40, 10, seed=1))
        assert large.rounds > small.rounds

    def test_empty_graph(self):
        result = greedy_baseline_edge_coloring(Graph(3, []))
        assert result.colors == {}


class TestLinearInDelta:
    def test_proper_and_within_bound(self, medium_regular):
        result = linear_in_delta_edge_coloring(medium_regular)
        assert is_proper_edge_coloring(medium_regular, result.colors)
        assert result.num_colors <= result.bound == 2 * medium_regular.max_degree - 1

    def test_kw_reduction_preserves_properness(self):
        graph = generators.random_regular_graph(40, 6, seed=2)
        line = graph.line_graph()
        initial, num_colors = linial_vertex_coloring(line)
        target = 2 * graph.max_degree - 1
        reduced = kuhn_wattenhofer_vertex_reduction(line, initial, num_colors, target)
        assert is_proper_edge_coloring(graph, dict(enumerate(reduced)))
        assert max(reduced) < target

    def test_empty_graph(self):
        result = linear_in_delta_edge_coloring(Graph(2, []))
        assert result.num_colors == 0


class TestBarenboimElkin:
    def test_proper_and_o_delta_colors(self, medium_regular):
        result = barenboim_elkin_edge_coloring(medium_regular, epsilon=0.5)
        assert is_proper_edge_coloring(medium_regular, result.colors)
        assert result.num_colors <= result.bound
        # The bound is O(Δ) with a constant depending on ε.
        assert result.bound <= 20 * medium_regular.max_degree

    def test_smaller_epsilon_means_more_colors(self):
        graph = generators.random_regular_graph(48, 8, seed=3)
        coarse = barenboim_elkin_edge_coloring(graph, epsilon=1.0)
        fine = barenboim_elkin_edge_coloring(graph, epsilon=0.34)
        assert is_proper_edge_coloring(graph, fine.colors)
        assert fine.bound >= coarse.bound * 0.9

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            barenboim_elkin_edge_coloring(generators.cycle_graph(6), epsilon=0.0)

    def test_empty_graph(self):
        result = barenboim_elkin_edge_coloring(Graph(2, []))
        assert result.colors == {}


class TestRandomized:
    def test_proper_and_within_bound(self, medium_regular):
        result = randomized_edge_coloring(medium_regular, seed=4)
        assert is_proper_edge_coloring(medium_regular, result.colors)
        assert result.num_colors <= 2 * medium_regular.max_degree - 1

    def test_deterministic_given_seed(self, small_regular):
        a = randomized_edge_coloring(small_regular, seed=7)
        b = randomized_edge_coloring(small_regular, seed=7)
        assert a.colors == b.colors
        assert a.rounds == b.rounds

    def test_round_count_is_logarithmic_in_practice(self):
        graph = generators.random_regular_graph(100, 8, seed=5)
        result = randomized_edge_coloring(graph, seed=1)
        assert result.rounds <= 40
