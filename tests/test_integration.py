"""Integration tests across modules.

These tests exercise the full pipelines (Theorem 1.1, Theorem 1.2,
Lemma 6.1) on a catalogue of workloads and cross-check the different
implementations against each other and against the verification module.
"""

from __future__ import annotations

import pytest

from graph_helpers import named_workloads
from repro import api
from repro.baselines.sequential import sequential_greedy_edge_coloring
from repro.coloring.linial import LinialNodeAlgorithm, linial_vertex_coloring
from repro.distributed.model import Model
from repro.distributed.network import SynchronousNetwork
from repro.distributed.rounds import RoundTracker
from repro.graphs import generators
from repro.graphs.identifiers import id_space_size, log_star
from repro.verification.checkers import is_proper_edge_coloring, is_proper_vertex_coloring


class TestWorkloadCatalogue:
    @pytest.mark.parametrize("name,graph", named_workloads(seed=3), ids=lambda x: str(x))
    def test_local_algorithm_on_catalogue(self, name, graph):
        if isinstance(name, str):
            outcome = api.color_edges_local(graph)
            assert outcome.is_proper, name
            assert outcome.num_colors <= max(1, 2 * graph.max_degree - 1), name

    @pytest.mark.parametrize("name,graph", named_workloads(seed=4), ids=lambda x: str(x))
    def test_congest_algorithm_on_catalogue(self, name, graph):
        if isinstance(name, str):
            outcome = api.color_edges_congest(graph, epsilon=1.0)
            assert outcome.is_proper, name
            assert outcome.num_colors <= (8 + 1.0) * max(1, graph.max_degree) + 1, name


class TestCrossChecks:
    def test_paper_algorithm_never_needs_more_colors_than_bound_vs_greedy(self):
        # The sequential greedy uses ≤ Δ̄+1 colors; the LOCAL algorithm's
        # bound is 2Δ−1 ≥ Δ̄+1 − ... : both must be proper on the same graph
        # and within their respective bounds.
        graph = generators.random_regular_graph(48, 6, seed=7)
        greedy = sequential_greedy_edge_coloring(graph)
        local = api.color_edges_local(graph)
        assert is_proper_edge_coloring(graph, greedy)
        assert local.is_proper
        assert max(greedy.values()) + 1 <= graph.max_edge_degree + 1
        assert local.num_colors <= 2 * graph.max_degree - 1

    def test_message_passing_linial_matches_phase_level_linial(self):
        graph = generators.graph_with_scrambled_ids(
            generators.random_regular_graph(36, 4, seed=8), seed=9
        )
        tracker = RoundTracker()
        centralized, _num = linial_vertex_coloring(graph, tracker=tracker)
        network = SynchronousNetwork(
            graph,
            model=Model.CONGEST,
            global_knowledge={"id_space": id_space_size(graph)},
        )
        distributed, metrics = network.run(LinialNodeAlgorithm())
        assert distributed == centralized
        assert metrics.rounds == tracker.total
        assert metrics.congest_violations == 0
        assert is_proper_vertex_coloring(graph, distributed)

    def test_round_counts_include_log_star_term(self):
        # The same algorithm on a graph with a larger identifier space may
        # take more (but only O(log*)-many more) Linial rounds.
        small_ids = generators.cycle_graph(64)
        large_ids = generators.graph_with_scrambled_ids(small_ids, seed=2, id_space_factor=1024)
        t_small, t_large = RoundTracker(), RoundTracker()
        linial_vertex_coloring(small_ids, tracker=t_small)
        linial_vertex_coloring(large_ids, tracker=t_large)
        assert t_large.total >= t_small.total
        assert t_large.total <= t_small.total + log_star(64 * 1024) + 2

    def test_bipartite_and_congest_agree_on_bipartite_graphs(self):
        graph, bipartition = generators.regular_bipartite_graph(32, 6, seed=11)
        bipartite = api.color_edges_bipartite(graph, bipartition, epsilon=0.5)
        congest = api.color_edges_congest(graph, epsilon=0.5)
        assert bipartite.is_proper and congest.is_proper
        # Lemma 6.1 uses at most ~(2+ε)Δ colors, Theorem 6.3 at most (8+ε)Δ:
        # on a bipartite input the dedicated algorithm should not be worse.
        assert bipartite.num_colors <= congest.bound


class TestRoundBreakdowns:
    def test_local_breakdown_contains_expected_phases(self):
        graph = generators.random_regular_graph(64, 14, seed=12)
        outcome = api.color_edges_local(graph)
        breakdown = outcome.details["round_breakdown"]
        assert any("linial" in key for key in breakdown)
        assert any("greedy" in key for key in breakdown)
        assert sum(breakdown.values()) == outcome.rounds

    def test_congest_breakdown_contains_split_phases(self):
        graph = generators.random_regular_graph(64, 12, seed=13)
        outcome = api.color_edges_congest(graph, epsilon=0.5)
        breakdown = outcome.details["round_breakdown"]
        assert any("bipartite" in key for key in breakdown)
        assert sum(breakdown.values()) == outcome.rounds
