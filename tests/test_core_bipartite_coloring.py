"""Unit tests for the (2+ε)Δ bipartite edge coloring (Lemma 6.1)."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.bipartite_coloring import bipartite_edge_coloring
from repro.distributed.rounds import RoundTracker
from repro.graphs import generators
from repro.verification.checkers import is_proper_edge_coloring


class TestBipartiteColoring:
    def test_all_edges_colored_and_proper(self, medium_bipartite):
        graph, bipartition = medium_bipartite
        result = bipartite_edge_coloring(graph, bipartition, epsilon=0.25)
        assert set(result.colors.keys()) == set(graph.edges())
        assert is_proper_edge_coloring(graph, result.colors)

    def test_color_count_within_palette(self, medium_bipartite):
        graph, bipartition = medium_bipartite
        result = bipartite_edge_coloring(graph, bipartition, epsilon=0.25)
        assert result.num_colors <= result.palette_size
        assert max(result.colors.values()) < result.palette_size

    def test_color_count_near_two_delta_on_regular_graphs(self):
        graph, bipartition = generators.regular_bipartite_graph(64, 12, seed=3)
        result = bipartite_edge_coloring(graph, bipartition, epsilon=0.5)
        # The tuple palette should stay in the O(Δ) regime (Lemma 6.1 bound
        # is (2+ε)Δ asymptotically; small graphs carry additive slack from
        # the +1 per leaf part).
        assert result.num_colors >= graph.max_degree  # at least Δ colors are necessary
        assert result.num_colors <= 4 * graph.max_degree
        assert result.bound == (2 + 0.5) * graph.max_degree

    def test_levels_and_parts_consistent(self, medium_bipartite):
        graph, bipartition = medium_bipartite
        result = bipartite_edge_coloring(graph, bipartition, epsilon=0.25)
        assert result.part_count <= 2 ** max(result.levels, 0) if result.levels else result.part_count >= 1
        assert result.max_leaf_degree >= 0

    def test_explicit_levels(self, small_bipartite):
        graph, bipartition = small_bipartite
        result = bipartite_edge_coloring(graph, bipartition, epsilon=0.5, levels=1)
        assert result.levels == 1
        assert is_proper_edge_coloring(graph, result.colors)

    def test_zero_levels_degenerates_to_greedy(self, small_bipartite):
        graph, bipartition = small_bipartite
        result = bipartite_edge_coloring(graph, bipartition, epsilon=0.5, levels=0)
        assert result.part_count == 1
        assert is_proper_edge_coloring(graph, result.colors)
        assert result.num_colors <= graph.max_edge_degree + 1

    def test_edge_subset(self, medium_bipartite):
        graph, bipartition = medium_bipartite
        subset = set(list(graph.edges())[: graph.num_edges // 2])
        result = bipartite_edge_coloring(graph, bipartition, epsilon=0.5, edge_set=subset)
        assert set(result.colors.keys()) == subset
        assert is_proper_edge_coloring(graph, result.colors, edge_set=subset)

    def test_empty_edge_set(self, small_bipartite):
        graph, bipartition = small_bipartite
        result = bipartite_edge_coloring(graph, bipartition, edge_set=[])
        assert result.colors == {}
        assert result.num_colors == 0

    def test_rounds_charged(self, small_bipartite):
        graph, bipartition = small_bipartite
        tracker = RoundTracker()
        result = bipartite_edge_coloring(graph, bipartition, tracker=tracker)
        assert tracker.total == result.rounds
        assert result.rounds > 0

    def test_sparse_bipartite_graph(self):
        graph, bipartition = generators.random_bipartite_graph(30, 30, 0.1, seed=6)
        result = bipartite_edge_coloring(graph, bipartition, epsilon=0.5)
        assert is_proper_edge_coloring(graph, result.colors)


class TestSection6Pinned:
    """A Section 6 run with three split levels and seven leaf parts.

    Digest, rounds, breakdown and defect history were recorded with one
    defective-split call per part, under both forced engines.
    """

    DIGEST = "ad6c7cdd2d49d2a1302358d4df3ee17b3ebd14454e94ef1769f87408b72a08bc"

    @pytest.mark.parametrize("scan_path", ["numpy", "python"])
    def test_pinned(self, scan_path):
        graph, bipartition = generators.regular_bipartite_graph(64, 24, seed=3)
        tracker = RoundTracker()
        result = bipartite_edge_coloring(
            graph, bipartition, tracker=tracker, scan_path=scan_path
        )
        assert is_proper_edge_coloring(graph, result.colors)
        digest = hashlib.sha256(json.dumps(sorted(result.colors.items())).encode())
        assert digest.hexdigest() == self.DIGEST
        assert (result.levels, result.part_count) == (3, 7)
        assert result.rounds == 325
        assert dict(tracker.breakdown) == {
            "bipartite-split-level": 277,
            "bipartite-leaf-coloring": 48,
        }
        assert result.defect_history == [24, 12, 10, 6, 6, 6]
