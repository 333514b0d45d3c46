"""Unit tests for the (8+ε)Δ CONGEST edge coloring (Theorem 6.3)."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.congest_coloring import congest_edge_coloring
from repro.distributed.rounds import RoundTracker
from repro.graphs import generators
from repro.graphs.core import Graph
from repro.verification.checkers import is_proper_edge_coloring


class TestCongestColoring:
    def test_all_edges_colored_and_proper(self, medium_regular):
        result = congest_edge_coloring(medium_regular, epsilon=0.5)
        assert set(result.colors.keys()) == set(medium_regular.edges())
        assert is_proper_edge_coloring(medium_regular, result.colors)

    def test_color_bound(self, medium_regular):
        result = congest_edge_coloring(medium_regular, epsilon=0.5)
        assert result.num_colors <= result.palette_size
        assert result.palette_size <= result.bound
        assert result.bound == (8 + 0.5) * medium_regular.max_degree

    def test_works_on_non_regular_graphs(self):
        graph = generators.erdos_renyi_graph(60, 0.15, seed=5)
        result = congest_edge_coloring(graph, epsilon=0.5)
        assert is_proper_edge_coloring(graph, result.colors)
        assert result.palette_size <= (8 + 0.5) * graph.max_degree + 1

    def test_works_on_trees_and_grids(self):
        for graph in (generators.tree_graph(60, branching=4, seed=2), generators.grid_graph(7, 7)):
            result = congest_edge_coloring(graph, epsilon=1.0)
            assert is_proper_edge_coloring(graph, result.colors)

    def test_small_degree_graph_short_circuits(self):
        graph = generators.cycle_graph(20)
        result = congest_edge_coloring(graph)
        assert is_proper_edge_coloring(graph, result.colors)
        assert result.levels == 0  # degree 2 is below the recursion threshold

    def test_empty_graph(self):
        result = congest_edge_coloring(Graph(4, []))
        assert result.colors == {}
        assert result.num_colors == 0

    def test_level_degrees_decrease(self):
        graph = generators.random_regular_graph(80, 16, seed=9)
        result = congest_edge_coloring(graph, epsilon=0.5)
        assert is_proper_edge_coloring(graph, result.colors)
        if len(result.level_degrees) >= 2:
            assert result.level_degrees[-1] < result.level_degrees[0]

    def test_rounds_charged(self, small_regular):
        tracker = RoundTracker()
        result = congest_edge_coloring(small_regular, tracker=tracker)
        assert tracker.total == result.rounds
        assert result.rounds > 0


class TestTheorem63Pinned:
    """A Theorem 6.3 run above the recursion threshold (two class-pair levels).

    The determinism goldens stop at Δ = 6, where Theorem 6.3 never
    recurses.  Digest, rounds, palette, level degrees and breakdown were
    recorded with a per-pairing rescan of the uncolored edges, under both
    forced engines.
    """

    DIGEST = "0510eaab7ce08ece4e1bae8b132778a5e8e27bbcfcb54fb6ae213cd9d178c167"
    BREAKDOWN = {
        "bipartite-split-level": 559,
        "bipartite-leaf-coloring": 119,
        "defective-local-search": 13,
        "defective-poly-reduction": 2,
        "greedy-edge-classes": 16,
        "linial": 2,
    }

    @pytest.mark.parametrize("scan_path", ["numpy", "python"])
    def test_pinned(self, scan_path):
        graph = generators.random_regular_graph(128, 32, seed=33)
        tracker = RoundTracker()
        result = congest_edge_coloring(
            graph, epsilon=0.5, tracker=tracker, scan_path=scan_path
        )
        assert is_proper_edge_coloring(graph, result.colors)
        digest = hashlib.sha256(json.dumps(sorted(result.colors.items())).encode())
        assert digest.hexdigest() == self.DIGEST
        assert result.rounds == 711
        assert result.palette_size == 124
        assert result.level_degrees == [32, 10, 3]
        assert dict(tracker.breakdown) == self.BREAKDOWN
