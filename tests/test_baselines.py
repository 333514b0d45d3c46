"""Unit tests for the baseline algorithms."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.baselines.barenboim_elkin import barenboim_elkin_edge_coloring
from repro.baselines.greedy_by_classes import greedy_baseline_edge_coloring
from repro.baselines.panconesi_rizzi import linear_in_delta_edge_coloring
from repro.baselines.randomized import randomized_edge_coloring
from repro.baselines.sequential import sequential_greedy_edge_coloring
from repro.classic.vertex_coloring import kuhn_wattenhofer_vertex_reduction
from repro.coloring.linial import linial_vertex_coloring
from repro.core import engine
from repro.distributed.rounds import RoundTracker
from repro.graphs import generators
from repro.graphs.core import Graph
from repro.verification.checkers import is_proper_edge_coloring


class TestSequentialGreedy:
    def test_edge_coloring_uses_at_most_edge_degree_plus_one(self, medium_regular):
        colors = sequential_greedy_edge_coloring(medium_regular)
        assert is_proper_edge_coloring(medium_regular, colors)
        assert max(colors.values()) <= medium_regular.max_edge_degree


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


class TestBaselinesPinned:
    """The three line-graph baselines, pinned under both forced engines.

    Digests (of the colors in dict order), rounds, color counts and the
    ordered breakdowns were recorded while ``Graph.line_graph()`` still
    built a full :class:`Graph`; the CSR view that replaced it must
    reproduce them.  The Erdős–Rényi graph has isolated nodes, among them
    the node with the largest identifier; the scrambled graph has
    non-contiguous identifiers.
    """

    GRAPHS = {
        "regular": lambda: generators.random_regular_graph(40, 8, seed=5),
        "erdos-renyi": lambda: generators.erdos_renyi_graph(60, 0.06, seed=12),
        "scrambled": lambda: generators.graph_with_scrambled_ids(
            generators.random_regular_graph(36, 6, seed=7), seed=2
        ),
    }
    BASELINES = {
        "linear-in-delta": linear_in_delta_edge_coloring,
        "barenboim-elkin": barenboim_elkin_edge_coloring,
        "greedy": greedy_baseline_edge_coloring,
    }
    # (graph, baseline) -> (digest, rounds, num_colors, breakdown items)
    PINNED = {
        ("regular", "linear-in-delta"): (
            "a6a83a94d8482ed4a9090e598ee9c5b933020e9eae67c00e6b7c4f758e445e0c",
            91, 15, [("linial", 1), ("kw-vertex-reduction", 90)],
        ),
        ("regular", "barenboim-elkin"): (
            "922facd0f850415a3430810ac682e1e6f2888bbd8cde3786b8f845e9b4d0511a",
            44, 15, [("defective-local-search", 31), ("barenboim-elkin-greedy", 13)],
        ),
        ("regular", "greedy"): (
            "6e7d31d099bdb25303fa480b034a3beb83ab44eecc1b445f812f8cac31d593ed",
            53, 11, [("linial", 1), ("greedy-edge-classes", 52)],
        ),
        ("erdos-renyi", "linear-in-delta"): (
            "53953c94c28bac67c6cc7ebb99f27992575d63c45adb1cdffbb5113f13dd9266",
            115, 19, [("linial", 1), ("kw-vertex-reduction", 114)],
        ),
        ("erdos-renyi", "barenboim-elkin"): (
            "76c0e24f0d5c25f0764ac38239e17b949ee38afbd61c2b521c137906e7ee7e2c",
            18, 11, [("defective-local-search", 10), ("barenboim-elkin-greedy", 8)],
        ),
        ("erdos-renyi", "greedy"): (
            "fa2c580318de7873763548465123ae81c21d66a051713516cf5fcf469d6ebf00",
            43, 10, [("linial", 1), ("greedy-edge-classes", 42)],
        ),
        ("scrambled", "linear-in-delta"): (
            "5ffe61b61f589d0f4cf827c3629d7828505317ec163231ffc4374920008eaf1d",
            68, 11, [("linial", 2), ("kw-vertex-reduction", 66)],
        ),
        ("scrambled", "barenboim-elkin"): (
            "092687d19f3fdf7b6bf1fd42b78c2cf31e4b4e39669e547d812da256a732b008",
            17, 12, [("defective-local-search", 6), ("barenboim-elkin-greedy", 11)],
        ),
        ("scrambled", "greedy"): (
            "4cdf695e500d58348e72ba011e3d7eda34e2c53bc13abd6c82b1744db4344097",
            37, 8, [("linial", 2), ("greedy-edge-classes", 35)],
        ),
    }

    @pytest.mark.parametrize("scan_path", ["numpy", "python"])
    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_pinned(self, key, scan_path):
        graph_name, baseline = key
        graph = self.GRAPHS[graph_name]()
        tracker = RoundTracker()
        with engine.scan_path(scan_path):
            result = self.BASELINES[baseline](graph, tracker=tracker)
        assert is_proper_edge_coloring(graph, result.colors)
        digest = hashlib.sha256(json.dumps(list(result.colors.items())).encode()).hexdigest()
        breakdown = list(tracker.breakdown.items())
        assert (digest, result.rounds, result.num_colors, breakdown) == self.PINNED[key]

    def test_erdos_renyi_graph_isolates_the_top_id_node(self):
        graph = self.GRAPHS["erdos-renyi"]()
        top = max(graph.nodes(), key=graph.node_id)
        assert graph.degree(top) == 0
