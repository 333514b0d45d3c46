"""Tests for the CSR graph internals and the :class:`CsrView` stand-ins."""

from __future__ import annotations

import random

import pytest

from graph_helpers import edge_degree_within, subgraph_from_edges
from repro.core import engine
from repro.graphs import generators
from repro.graphs.core import Graph, degrees_within


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


class TestLineGraphView:
    def test_rows_are_the_adjacent_edges(self):
        graph = generators.erdos_renyi_graph(30, 0.3, seed=6)
        line = graph.line_graph()
        assert line.num_nodes == graph.num_edges
        for e in graph.edges():
            assert line.neighbors(e) == graph.adjacent_edges(e)
            assert line.degree(e) == graph.edge_degree(e)
        assert line.max_degree == graph.max_edge_degree

    def test_edgeless_graph(self):
        line = Graph(3, []).line_graph()
        assert line.num_nodes == 0
        assert line.num_edges == 0
        assert line.max_degree == 0
        assert line.node_ids == []


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

    @pytest.mark.parametrize("scan_path", ["numpy", "python"])
    def test_forced_filters_match_materialized_subgraph(self, scan_path):
        # The numpy filter and its python twin must produce the same rows.
        graph, subset = self._graph_and_subset()
        with engine.scan_path(scan_path):
            view = graph.edge_subset_view(subset)
        assert view.adjacency_csr() == subgraph_from_edges(graph, subset).adjacency_csr()

    @pytest.mark.parametrize("scan_path", ["numpy", "python"])
    def test_empty_subset_keeps_every_node(self, scan_path):
        with engine.scan_path(scan_path):
            view = Graph(3, [(0, 1)]).edge_subset_view([])
        assert view.adjacency_csr() == ([0, 0, 0, 0], [])
        assert (view.num_nodes, view.num_edges, view.max_degree) == (3, 0, 0)

    def test_degrees_within_matches_materialized_subgraph(self):
        graph, subset = self._graph_and_subset()
        subgraph = subgraph_from_edges(graph, subset)
        node_degrees, edge_degrees = degrees_within(graph, subset)
        assert node_degrees == [subgraph.degree(v) for v in graph.nodes()]
        subset_set = set(subset)
        assert edge_degrees == [edge_degree_within(graph, e, subset_set) for e in subset]

    def test_duplicate_edges_in_subset_counted_once(self):
        graph = Graph(3, [(0, 1), (1, 2)])
        view = graph.edge_subset_view([0, 0, 1])
        assert view.num_edges == 2
        assert view.degree(1) == 2

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
