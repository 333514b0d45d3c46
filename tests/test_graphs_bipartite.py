"""Unit tests for bipartitions."""

from __future__ import annotations

import pytest

from repro.graphs import generators
from repro.graphs.bipartite import (
    Bipartition,
    class_pair_pieces,
    find_bipartition,
)
from repro.graphs.core import Graph


class TestBipartition:
    def test_side_accessors(self):
        bipartition = Bipartition([0, 1, 0, 1])
        assert bipartition.side(3) == 1

    def test_rejects_invalid_sides(self):
        with pytest.raises(ValueError):
            Bipartition([0, 2])

    def test_orient_edge(self):
        graph = Graph(4, [(0, 1), (2, 3), (1, 2)])
        bipartition = Bipartition([0, 1, 0, 1])
        assert bipartition.orient_edge(graph, 0) == (0, 1)
        assert bipartition.orient_edge(graph, 1) == (2, 3)
        assert bipartition.orient_edge(graph, 2) == (2, 1)

    def test_orient_edge_rejects_monochromatic(self):
        graph = Graph(3, [(0, 1)])
        bipartition = Bipartition([0, 0, 1])
        with pytest.raises(ValueError):
            bipartition.orient_edge(graph, 0)

    def test_validates_edge_subsets(self):
        graph = Graph(4, [(0, 1), (0, 2), (1, 3)])
        bipartition = Bipartition([0, 1, 0, 0])
        assert not bipartition.validates(graph)
        assert bipartition.validates(graph, edge_set=[0, 2])


class TestFindBipartition:
    def test_finds_bipartition_of_even_cycle(self):
        graph = generators.cycle_graph(10)
        bipartition = find_bipartition(graph)
        assert bipartition is not None
        assert bipartition.validates(graph)

    def test_path_sides_alternate(self):
        graph = generators.path_graph(5)
        bipartition = find_bipartition(graph)
        assert bipartition is not None
        assert bipartition.sides in ([0, 1, 0, 1, 0], [1, 0, 1, 0, 1])

    def test_odd_cycle_is_not_bipartite(self):
        graph = generators.cycle_graph(9)
        assert find_bipartition(graph) is None

    def test_generated_bipartite_graphs(self):
        graph, _known = generators.regular_bipartite_graph(12, 3, seed=0)
        found = find_bipartition(graph)
        assert found is not None
        assert found.validates(graph)

    def test_isolated_nodes_get_a_side(self):
        graph = Graph(4, [(0, 1)])
        bipartition = find_bipartition(graph)
        assert bipartition is not None
        assert bipartition.side(3) in (0, 1)


class TestClassPairPieces:
    # A 6-cycle whose nodes carry classes 0, 1, 2, 0, 1, 2.
    GRAPH = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    CLASSES = [0, 1, 2, 0, 1, 2]

    def test_each_edge_goes_to_the_first_pairing_it_crosses(self):
        pieces = class_pair_pieces(
            self.GRAPH, self.GRAPH.edges(), self.CLASSES,
            [({0}, {1}), ({0, 1}, {2}), ({0}, {1, 2})],
        )
        # Edges 0 and 3 join classes 0 and 1; edges 1, 4 (1-2) and 2, 5
        # (2-0) cross the second pairing.  The third pairing also matches
        # edges 0, 2, 3, 5, but they are taken, so its piece is dropped.
        assert [piece for _, piece in pieces] == [[0, 3], [1, 2, 4, 5]]
        assert pieces[0][0].sides == [0, 1, 1, 0, 1, 1]
        assert pieces[1][0].sides == [0, 0, 1, 0, 0, 1]
        for bipartition, piece in pieces:
            assert bipartition.validates(self.GRAPH, edge_set=piece)

    def test_edges_crossing_no_pairing_are_left_out(self):
        pieces = class_pair_pieces(self.GRAPH, [5, 4, 0], self.CLASSES, [({1}, {2})])
        assert [piece for _, piece in pieces] == [[4]]
        assert class_pair_pieces(self.GRAPH, [0, 3], self.CLASSES, [({1}, {2})]) == []
