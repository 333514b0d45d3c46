"""Unit tests for the workload generators."""

from __future__ import annotations

import gc
import hashlib
import random

import networkx as nx
import pytest

from graph_helpers import named_workloads
from repro.graphs import generators
from repro.graphs.bipartite import find_bipartition


class TestDeterministicFamilies:
    def test_cycle(self):
        graph = generators.cycle_graph(10)
        assert graph.num_nodes == 10
        assert graph.num_edges == 10
        assert graph.max_degree == 2
        with pytest.raises(ValueError):
            generators.cycle_graph(2)

    def test_path(self):
        graph = generators.path_graph(7)
        assert graph.num_edges == 6
        assert graph.max_degree == 2

    def test_complete(self):
        graph = generators.complete_graph(6)
        assert graph.num_edges == 15
        assert graph.max_degree == 5

    def test_star(self):
        graph = generators.star_graph(9)
        assert graph.num_nodes == 10
        assert graph.degree(0) == 9

    def test_complete_bipartite(self):
        graph = generators.complete_bipartite_graph(3, 4)
        assert graph.num_edges == 12
        assert find_bipartition(graph) is not None

    def test_grid(self):
        graph = generators.grid_graph(4, 5)
        assert graph.num_nodes == 20
        assert graph.num_edges == 4 * 4 + 3 * 5
        assert graph.max_degree == 4

    def test_hypercube(self):
        graph = generators.hypercube_graph(4)
        assert graph.num_nodes == 16
        assert all(graph.degree(v) == 4 for v in graph.nodes())


class TestRandomFamilies:
    def test_tree_is_acyclic_and_connected(self):
        graph = generators.tree_graph(40, branching=3, seed=2)
        assert graph.num_edges == 39
        tree = nx.Graph(graph.edge_endpoints(e) for e in graph.edges())
        tree.add_nodes_from(graph.nodes())
        assert nx.is_connected(tree)

    def test_regular_bipartite_graph(self):
        graph, bipartition = generators.regular_bipartite_graph(20, 6, seed=3)
        assert graph.num_nodes == 40
        assert all(graph.degree(v) == 6 for v in graph.nodes())
        assert bipartition.validates(graph)

    def test_regular_bipartite_rejects_large_degree(self):
        with pytest.raises(ValueError):
            generators.regular_bipartite_graph(4, 5)

    def test_random_bipartite_graph(self):
        graph, bipartition = generators.random_bipartite_graph(15, 20, 0.3, seed=4)
        assert bipartition.validates(graph)
        assert graph.num_nodes == 35

    def test_random_regular_graph(self):
        graph = generators.random_regular_graph(30, 6, seed=5)
        assert all(graph.degree(v) == 6 for v in graph.nodes())

    def test_random_regular_graph_leaves_no_cyclic_garbage(self):
        """The pairing leaves nothing for the cyclic collector.

        The stub lists, the pairing set and the retry counts are freed by
        refcount when the generator returns, so a collection right after
        it finds (next to) nothing.  The digest pins the edge order.
        """
        generators.random_regular_graph(200, 8, seed=1)  # warm-up
        gc.collect()
        gc.disable()
        try:
            graph = generators.random_regular_graph(2000, 8, seed=2)
            garbage = gc.collect()
        finally:
            gc.enable()
        assert garbage < 50
        edges = [graph.edge_endpoints(e) for e in graph.edges()]
        assert len(edges) == 8000
        assert hashlib.sha256(repr(edges).encode()).hexdigest() == (
            "f389d576097e6568c5e0143bf9fc853a385668b2bf5173409495627ceae6142a"
        )

    def test_random_regular_graph_validation(self):
        with pytest.raises(ValueError):
            generators.random_regular_graph(5, 3)  # odd product
        with pytest.raises(ValueError):
            generators.random_regular_graph(4, 4)  # degree >= n
        with pytest.raises(ValueError):
            generators.random_regular_graph(10, -2)  # negative degree

    def test_random_regular_zero_degree(self):
        graph = generators.random_regular_graph(6, 0, seed=0)
        assert graph.num_edges == 0

    def test_erdos_renyi_determinism(self):
        a = generators.erdos_renyi_graph(30, 0.2, seed=8)
        b = generators.erdos_renyi_graph(30, 0.2, seed=8)
        assert [a.edge_endpoints(e) for e in a.edges()] == [
            b.edge_endpoints(e) for e in b.edges()
        ]

    def test_power_law_graph(self):
        graph = generators.power_law_graph(50, attachment=2, seed=9)
        assert graph.num_nodes == 50
        assert graph.num_edges >= 48
        with pytest.raises(ValueError):
            generators.power_law_graph(5, attachment=0)

    def test_scrambled_ids(self):
        base = generators.cycle_graph(16)
        scrambled = generators.graph_with_scrambled_ids(base, seed=3, id_space_factor=8)
        assert scrambled.num_edges == base.num_edges
        assert len(set(scrambled.node_ids)) == 16
        assert max(scrambled.node_ids) < 16 * 8


class TestRandomRegularAgainstNetworkx:
    """``random_regular_graph`` runs networkx's pairing loop without its
    graph; networkx itself is the oracle for the edges and their order."""

    # (n, Δ, seed): n=512, Δ=64 restarts the pairing on seeds 100002,
    # 100003 and 1005 (2, 4 and 8 attempts); n=300, Δ=3 and n=30, Δ=4
    # pair the leftover stubs in second rounds, and n=30, Δ=4, seed 8
    # restarts 5 times; (2, 1) and (100, 1) are Δ = 1, (10, 9) and
    # (50, 49) are Δ = n − 1, and a seed of None means seed 0.
    GRID = (
        [(512, 64, seed) for seed in (100000, 100002, 100003, 1005)]
        + [(300, 3, seed) for seed in range(8)]
        + [(30, 4, seed) for seed in (0, 2, 8)]
        + [(2, 1, 0), (100, 1, 4), (10, 9, 3), (50, 49, 7), (2000, 8, 2), (40, 6, None)]
    )

    @pytest.mark.parametrize("n, degree, seed", GRID)
    def test_edges_match_networkx(self, n, degree, seed):
        graph = generators.random_regular_graph(n, degree, seed=seed)
        oracle = nx.random_regular_graph(degree, n, seed=0 if seed is None else seed)
        assert [graph.edge_endpoints(e) for e in graph.edges()] == list(oracle.edges())

    def test_grid_reaches_restarts_and_second_rounds(self, monkeypatch):
        # Every attempt shuffles all n·Δ stubs once; a shorter shuffle is a
        # second pairing round.
        shuffled = []
        shuffle = random.Random.shuffle

        def counted_shuffle(rng, stubs):
            shuffled.append(len(stubs))
            shuffle(rng, stubs)

        monkeypatch.setattr(random.Random, "shuffle", counted_shuffle)
        attempts = {}
        rounds = {}
        for n, degree, seed in self.GRID:
            shuffled.clear()
            generators.random_regular_graph(n, degree, seed=seed)
            attempts[n, degree, seed] = shuffled.count(n * degree)
            rounds[n, degree, seed] = len(shuffled)
        assert [attempts[512, 64, seed] for seed in (100002, 100003, 1005)] == [2, 4, 8]
        assert attempts[30, 4, 8] == 5
        assert sum(rounds[300, 3, seed] > attempts[300, 3, seed] for seed in range(8)) >= 4


class TestListInstances:
    def test_degree_plus_one_lists(self):
        graph = generators.random_regular_graph(20, 4, seed=1)
        lists, space = generators.list_edge_coloring_lists(graph, slack=1.0, seed=2)
        for e in graph.edges():
            assert len(lists[e]) >= graph.edge_degree(e) + 1
            assert all(0 <= c < space for c in lists[e])

    def test_slack_scales_list_sizes(self):
        graph = generators.cycle_graph(10)
        lists_small, _ = generators.list_edge_coloring_lists(graph, slack=1.0, seed=0)
        lists_big, _ = generators.list_edge_coloring_lists(graph, slack=2.0, color_space=16, seed=0)
        assert all(len(lists_big[e]) >= len(lists_small[e]) for e in graph.edges())

    def test_color_space_too_small_rejected(self):
        graph = generators.complete_graph(6)
        with pytest.raises(ValueError):
            generators.list_edge_coloring_lists(graph, slack=2.0, color_space=5)


def test_named_workloads_catalogue():
    workloads = named_workloads(seed=1)
    names = [name for name, _graph in workloads]
    assert len(names) == len(set(names))
    assert len(workloads) >= 6
    for _name, graph in workloads:
        assert graph.num_nodes > 0
