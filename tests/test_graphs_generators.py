"""Unit tests for the workload generators."""

from __future__ import annotations

import gc
import hashlib

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
        """The networkx graph is freed by refcount, not left to a collection.

        ``nx_graph.edges()`` caches a view that refers back to the graph,
        so a dropped graph that is not cleared is a cycle of about n
        objects (2006 here) that only the cyclic collector frees.  The
        edge order is pinned by a digest recorded before the clear.
        """
        generators.random_regular_graph(200, 8, seed=1)  # warm-up: imports
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
