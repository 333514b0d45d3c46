"""Unit tests for Linial's O(Δ²)-coloring."""

from __future__ import annotations

from graph_helpers import named_workloads
from repro.coloring.linial import linial_edge_coloring, linial_vertex_coloring
from repro.distributed.rounds import RoundTracker
from repro.graphs import generators
from repro.graphs.core import Graph
from repro.graphs.identifiers import log_star
from repro.verification.checkers import is_proper_edge_coloring, is_proper_vertex_coloring


class TestVertexColoring:
    def test_proper_on_various_graphs(self):
        for _name, graph in named_workloads(seed=2):
            colors, num_colors = linial_vertex_coloring(graph)
            assert is_proper_vertex_coloring(graph, colors)
            assert all(0 <= c < num_colors for c in colors)

    def test_color_count_is_delta_squared(self):
        graph = generators.random_regular_graph(100, 4, seed=3)
        _colors, num_colors = linial_vertex_coloring(graph)
        # q² for the smallest prime q > Δ·d at the fixed point; allow a
        # generous constant.
        assert num_colors <= 40 * (graph.max_degree ** 2)

    def test_round_count_is_log_star(self):
        graph = generators.graph_with_scrambled_ids(
            generators.cycle_graph(128), seed=1, id_space_factor=8
        )
        tracker = RoundTracker()
        linial_vertex_coloring(graph, tracker=tracker)
        assert tracker.total <= log_star(1024) + 4

    def test_empty_graph(self):
        colors, num_colors = linial_vertex_coloring(Graph(0, []))
        assert colors == []
        assert num_colors == 1


class TestEdgeColoring:
    def test_proper_edge_coloring(self):
        graph = generators.random_regular_graph(40, 5, seed=4)
        colors, num_colors = linial_edge_coloring(graph)
        assert is_proper_edge_coloring(graph, colors)
        bar_delta = graph.max_edge_degree
        assert num_colors <= 40 * max(1, bar_delta) ** 2

    def test_edgeless_graph(self):
        colors, num_colors = linial_edge_coloring(Graph(5, []))
        assert colors == {}
        assert num_colors == 1

    def test_charges_rounds(self):
        graph = generators.grid_graph(6, 6)
        tracker = RoundTracker()
        linial_edge_coloring(graph, tracker=tracker)
        assert tracker.total >= 1
