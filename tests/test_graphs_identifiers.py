"""Unit tests for identifier-space helpers."""

from __future__ import annotations

from repro.graphs import generators
from repro.graphs.core import Graph
from repro.graphs.identifiers import id_space_size, log_star


class TestLogStar:
    def test_small_values(self):
        assert log_star(0) == 0
        assert log_star(1) == 0
        assert log_star(2) == 1
        assert log_star(4) == 2
        assert log_star(16) == 3
        assert log_star(65536) == 4

    def test_monotone(self):
        values = [log_star(x) for x in range(1, 200)]
        assert values == sorted(values)


class TestIdSpace:
    def test_default_ids(self):
        graph = Graph(8, [(0, 1)])
        assert id_space_size(graph) == 8

    def test_scrambled_ids_change_space(self):
        base = generators.cycle_graph(8)
        scrambled = generators.graph_with_scrambled_ids(base, seed=1, id_space_factor=16)
        assert id_space_size(scrambled) <= 8 * 16
        assert id_space_size(scrambled) >= 8

    def test_empty_graph(self):
        graph = Graph(0, [])
        assert id_space_size(graph) == 1

    def test_edge_identifiers_unique(self):
        graph = generators.grid_graph(4, 4)
        ids = [graph.edge_id(e) for e in graph.edges()]
        assert len(set(ids)) == graph.num_edges
