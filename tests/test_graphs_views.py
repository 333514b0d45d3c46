"""Tests for the CSR graph internals and :class:`EdgeSubsetView`."""

from __future__ import annotations

import random

from graph_helpers import edge_degree_within, subgraph_from_edges
from repro.graphs import generators
from repro.graphs.core import EdgeSubsetView, Graph, degrees_within


def _reference_edge_id(graph: Graph, e: int) -> int:
    """The seed implementation's edge id: recompute the base per call."""
    u, v = graph.edge_endpoints(e)
    base = max(graph.node_ids) + 1 if graph.node_ids else 1
    a, b = sorted((graph.node_id(u), graph.node_id(v)))
    return a * base + b


class TestEdgeIdBase:
    def test_edge_ids_match_seed_formula_on_500_edge_graph(self):
        # Satellite check: the precomputed id base must agree with the
        # seed's per-call ``max(node_ids) + 1`` on a large graph with
        # scrambled (non-contiguous) identifiers.
        graph = generators.graph_with_scrambled_ids(
            generators.random_regular_graph(100, 10, seed=11), seed=3, id_space_factor=6
        )
        assert graph.num_edges == 500
        for e in graph.edges():
            assert graph.edge_id(e) == _reference_edge_id(graph, e)

    def test_line_graph_ids_agree_with_old_ids(self):
        graph = generators.graph_with_scrambled_ids(
            generators.random_regular_graph(100, 10, seed=11), seed=3, id_space_factor=6
        )
        line = graph.line_graph()
        assert line.num_nodes == 500
        assert line.node_ids == [_reference_edge_id(graph, e) for e in graph.edges()]
        assert len(set(line.node_ids)) == line.num_nodes

    def test_edge_id_base_unaffected_by_subsetting(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)], node_ids=[7, 3, 9, 1])
        for e in graph.edges():
            assert graph.edge_id(e) == _reference_edge_id(graph, e)


class TestCsrAccessors:
    def test_adjacency_csr_matches_neighbors(self):
        graph = generators.erdos_renyi_graph(40, 0.2, seed=5)
        xadj, adj = graph.adjacency_csr()
        for v in graph.nodes():
            assert adj[xadj[v] : xadj[v + 1]] == graph.neighbors(v)

    def test_incidence_csr_matches_incident_edges(self):
        graph = generators.erdos_renyi_graph(40, 0.2, seed=5)
        xadj, inc = graph.incidence_csr()
        for v in graph.nodes():
            assert inc[xadj[v] : xadj[v + 1]] == graph.incident_edges(v)

    def test_endpoint_arrays_match_edge_endpoints(self):
        graph = generators.erdos_renyi_graph(30, 0.3, seed=6)
        edge_u, edge_v = graph.endpoint_arrays()
        for e in graph.edges():
            assert (edge_u[e], edge_v[e]) == graph.edge_endpoints(e)

    def test_adjacent_edges_share_an_endpoint(self):
        graph = generators.erdos_renyi_graph(30, 0.3, seed=6)
        for e in graph.edges():
            row = graph.adjacent_edges(e)
            assert len(row) == graph.edge_degree(e)
            assert set(row) == {
                f
                for v in graph.edge_endpoints(e)
                for f in graph.incident_edges(v)
                if f != e
            }

    def test_max_degree_and_max_edge_degree_cached_values(self):
        graph = generators.random_regular_graph(48, 6, seed=2)
        assert graph.max_degree == 6
        assert graph.max_edge_degree == 10


class TestEdgeSubsetView:
    def _graph_and_subset(self):
        graph = generators.erdos_renyi_graph(36, 0.25, seed=9)
        rng = random.Random(4)
        subset = sorted(rng.sample(range(graph.num_edges), graph.num_edges // 2))
        return graph, subset

    def test_view_matches_materialized_subgraph(self):
        graph, subset = self._graph_and_subset()
        view = graph.edge_subset_view(subset)
        subgraph = subgraph_from_edges(graph, subset)
        assert view.num_nodes == subgraph.num_nodes
        assert view.num_edges == subgraph.num_edges
        assert view.max_degree == subgraph.max_degree
        assert view.node_ids == subgraph.node_ids
        for v in graph.nodes():
            assert view.degree(v) == subgraph.degree(v)
            assert view.neighbors(v) == subgraph.neighbors(v)

    def test_view_edges_keep_host_indices(self):
        graph, subset = self._graph_and_subset()
        view = graph.edge_subset_view(subset)
        assert view.edge_list() == subset
        for e in subset:
            assert e in view
            assert view.edge_endpoints(e) == graph.edge_endpoints(e)

    def test_view_degrees_match_edge_subgraph_degrees(self):
        graph, subset = self._graph_and_subset()
        view = graph.edge_subset_view(subset)
        assert view.node_degrees == degrees_within(graph, subset)[0]

    def test_edge_degree_within_view(self):
        graph, subset = self._graph_and_subset()
        view = graph.edge_subset_view(subset)
        subset_set = set(subset)
        for e in graph.edges():
            assert view.edge_degree(e) == edge_degree_within(graph, e, subset_set)
        assert view.max_edge_degree == max(
            (edge_degree_within(graph, e, subset_set) for e in subset), default=0
        )

    def test_incremental_removal(self):
        graph, subset = self._graph_and_subset()
        view = graph.edge_subset_view(subset)
        removed = subset[::3]
        for e in removed:
            view.remove_edge(e)
        remaining = [e for e in subset if e not in set(removed)]
        assert view.edge_list() == remaining
        assert view.num_edges == len(remaining)
        assert view.node_degrees == degrees_within(graph, remaining)[0]
        # Adjacency caches are rebuilt after removals.
        subgraph = subgraph_from_edges(graph, remaining)
        for v in graph.nodes():
            assert view.neighbors(v) == subgraph.neighbors(v)
            assert view.incident_edges(v) == subgraph_incident(subgraph, graph, v, remaining)

    def test_duplicate_edges_in_subset_counted_once(self):
        graph = Graph(3, [(0, 1), (1, 2)])
        view = EdgeSubsetView(graph, [0, 0, 1])
        assert view.num_edges == 2
        assert view.degree(1) == 2

    def test_removing_absent_edge_is_noop(self):
        graph = Graph(3, [(0, 1), (1, 2)])
        view = EdgeSubsetView(graph, [0])
        view.remove_edge(1)
        assert view.num_edges == 1
        view.remove_edge(0)
        view.remove_edge(0)
        assert view.num_edges == 0
        assert view.max_degree == 0

    def test_view_works_for_defective_split(self):
        # The Theorem D.4 outer loop hands views to the defective split;
        # the split must behave exactly as on a materialized subgraph.
        from repro.coloring.defective_vertex import defective_split_coloring

        graph, subset = self._graph_and_subset()
        view = graph.edge_subset_view(subset)
        subgraph = subgraph_from_edges(graph, subset)
        classes_view, defect_view = defective_split_coloring(view, num_classes=4, epsilon=0.25)
        classes_sub, defect_sub = defective_split_coloring(subgraph, num_classes=4, epsilon=0.25)
        assert classes_view == classes_sub
        assert defect_view == defect_sub


def subgraph_incident(subgraph: Graph, graph: Graph, v: int, remaining):
    """Incident edges of ``v`` in the subgraph, mapped to host edge indices."""
    pairs = [subgraph.edge_endpoints(e) for e in subgraph.incident_edges(v)]
    return [graph.edge_index(a, b) for a, b in pairs]
