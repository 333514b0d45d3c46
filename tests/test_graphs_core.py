"""Unit tests for the graph substrate (repro.graphs.core)."""

from __future__ import annotations

import random

import pytest

from graph_helpers import (
    assert_python_ints,
    csr_arrays,
    edge_degree_within,
    subgraph_from_edges,
)
from repro.core import engine
from repro.graphs.core import DirectedGraph, Graph, _checked_endpoints_numpy, degrees_within


def _random_edges(n, m, seed):
    """``m`` distinct random pairs on ``n`` nodes, each as ``(v, u)`` with
    ``v > u``, in shuffled order."""
    rng = random.Random(seed)
    pairs = rng.sample([(v, u) for v in range(n) for u in range(v)], m)
    rng.shuffle(pairs)
    return pairs


#: ``(num_nodes, edges, node_ids)`` per case of the CSR twin test.
_CSR_CASES = {
    "empty": (0, [], None),
    "single-node": (1, [], None),
    "isolated-nodes": (7, [(1, 4), (4, 2)], None),
    "star": (9, [(0, leaf) for leaf in range(1, 9)], None),
    "path": (12, [(v, v + 1) for v in range(11)], None),
    "reversed-shuffled": (30, _random_edges(30, 90, seed=4), None),
    "custom-node-ids": (6, [(5, 0), (2, 3), (0, 3), (4, 1)], [60, 10, 50, 20, 40, 30]),
    "below-cutoff": (40, _random_edges(40, engine.NUMPY_SCAN_THRESHOLD - 1, seed=5), None),
    "at-cutoff": (40, _random_edges(40, engine.NUMPY_SCAN_THRESHOLD, seed=6), None),
}


class TestGraphConstruction:
    def test_basic_properties(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert graph.num_nodes == 4
        assert graph.num_edges == 4
        assert graph.max_degree == 2
        assert sorted(graph.neighbors(0)) == [1, 3]
        assert graph.degree(2) == 2

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(0, 0)])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 5)])

    def test_rejects_negative_node_count(self):
        with pytest.raises(ValueError):
            Graph(-1, [])

    def test_rejects_bad_node_ids(self):
        with pytest.raises(ValueError, match="unique"):
            Graph(3, [(0, 1)], node_ids=[1, 1, 2])
        with pytest.raises(ValueError, match="one entry"):
            Graph(3, [(0, 1)], node_ids=[1, 2])

    def test_custom_node_ids(self):
        graph = Graph(3, [(0, 1), (1, 2)], node_ids=[10, 20, 30])
        assert graph.node_id(1) == 20
        assert graph.node_ids == [10, 20, 30]

    def test_empty_graph(self):
        graph = Graph(0, [])
        assert graph.num_nodes == 0
        assert graph.max_degree == 0
        assert graph.max_edge_degree == 0


class TestCsrBuildTwins:
    """The numpy CSR build and its python twin fill the same arrays."""

    @pytest.mark.parametrize("case", sorted(_CSR_CASES))
    def test_engines_build_identical_csr(self, case):
        num_nodes, edges, node_ids = _CSR_CASES[case]
        graphs = {}
        for path in ("numpy", "python"):
            with engine.scan_path(path):
                graphs[path] = Graph(num_nodes, edges, node_ids=node_ids)
        arrays = {path: csr_arrays(graph) for path, graph in graphs.items()}
        assert arrays["numpy"] == arrays["python"]
        for path in graphs:
            assert_python_ints(arrays[path])
        # The automatic choice builds the same arrays on either side of
        # the cutoff.
        assert csr_arrays(Graph(num_nodes, edges, node_ids=node_ids)) == arrays["python"]

        present = {(min(u, v), max(u, v)) for u, v in edges}
        for graph in graphs.values():
            for u in range(num_nodes):
                for v in range(num_nodes):
                    key = (min(u, v), max(u, v))
                    assert graph.has_edge(u, v) == (key in present)
                    if key in present:
                        assert graph.edge_endpoints(graph.edge_index(u, v)) == key
                    else:
                        with pytest.raises(KeyError):
                            graph.edge_index(u, v)

    def test_lookups_outside_the_node_range_find_nothing(self):
        graph = Graph(3, [(0, 1), (1, 2)])
        for u, v in ((-1, 0), (0, -1), (3, 1), (1, 3), (7, 9)):
            assert not graph.has_edge(u, v)
            with pytest.raises(KeyError):
                graph.edge_index(u, v)


#: ``(edges, message)``: a bad edge list on 5 nodes and the error both
#: validation engines raise, at its first offending edge.
_BAD_EDGES = {
    "self-loop-before-range": ([(0, 1), (2, 2), (0, 9)], "self-loop at node 2 is not allowed"),
    "range-before-self-loop": ([(0, 1), (0, 9), (2, 2)], "edge (0, 9) out of range for 5 nodes"),
    "self-loop-out-of-range": ([(9, 9)], "self-loop at node 9 is not allowed"),
    "negative": ([(0, 1), (-1, 2)], "edge (-1, 2) out of range for 5 nodes"),
    "beyond-int64": ([(0, 1), (0, 2**70)], f"edge (0, {2**70}) out of range for 5 nodes"),
    "duplicate-reversed": ([(0, 1), (2, 3), (1, 0)], "duplicate edge (0, 1)"),
    "duplicate-before-range": ([(3, 4), (4, 3), (0, 9)], "duplicate edge (3, 4)"),
    "range-before-duplicate": ([(3, 4), (0, 9), (4, 3)], "edge (0, 9) out of range for 5 nodes"),
    "not-a-pair": ([(0, 1), (1, 2, 3)], "too many values to unpack (expected 2)"),
}


class TestValidationTwins:
    """The array validation pass and its per-edge python twin."""

    @pytest.mark.parametrize("case", sorted(_CSR_CASES))
    def test_engines_normalize_identically(self, case):
        num_nodes, edges, node_ids = _CSR_CASES[case]
        expected = [(min(u, v), max(u, v)) for u, v in edges]
        for path in ("numpy", "python"):
            with engine.scan_path(path):
                graph = Graph(num_nodes, iter(edges), node_ids=node_ids)
            assert graph._edges == expected
            assert all(type(x) is int for pair in graph._edges for x in pair)
        if edges:  # the array pass answered, not its fallback
            lo, hi = _checked_endpoints_numpy(engine._np, num_nodes, edges)
            assert list(zip(lo.tolist(), hi.tolist())) == expected

    @pytest.mark.parametrize("case", sorted(_BAD_EDGES))
    def test_engines_raise_the_same_first_error(self, case):
        edges, message = _BAD_EDGES[case]
        for path in ("numpy", "python"):
            with engine.scan_path(path):
                with pytest.raises(ValueError) as err:
                    Graph(5, edges)
            assert str(err.value) == message

    def test_non_integer_input_takes_the_python_path(self):
        np = engine._np
        for edges in ([(0, 1.5)], [(0, "1")], [(0, 1), (2, None)], [(0, 1, 2)], [(0,)]):
            assert _checked_endpoints_numpy(np, 5, edges) is None


class TestEdgeAccessors:
    def test_edge_endpoints_normalized(self):
        graph = Graph(3, [(2, 0), (1, 2)])
        assert graph.edge_endpoints(0) == (0, 2)
        assert graph.edge_endpoints(1) == (1, 2)

    def test_edge_index_and_has_edge(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        assert graph.edge_index(1, 0) == 0
        assert graph.has_edge(3, 2)
        assert not graph.has_edge(0, 2)
        with pytest.raises(KeyError):
            graph.edge_index(0, 3)

    def test_incident_edges(self):
        graph = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert sorted(graph.incident_edges(0)) == [0, 1, 2]

    def test_edge_degree_matches_definition(self):
        # Section 2: deg(e) = deg(u) + deg(v) - 2.
        graph = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        e = graph.edge_index(0, 3)
        assert graph.edge_degree(e) == graph.degree(0) + graph.degree(3) - 2 == 3
        assert graph.max_edge_degree == 3

    def test_adjacent_edges(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        e = graph.edge_index(0, 1)
        adjacent = set(graph.adjacent_edges(e))
        assert adjacent == {graph.edge_index(1, 2), graph.edge_index(3, 0)}

    def test_edge_ids_unique_and_local(self):
        graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        ids = [graph.edge_id(e) for e in graph.edges()]
        assert len(set(ids)) == graph.num_edges

    def test_reverse_slot_array_is_consistent(self):
        # Irregular graph: degrees 3, 2, 2, 2, 1.
        graph = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)])
        xadj, adj = graph.adjacency_csr()
        rev_slot = graph.reverse_slot_csr()
        assert len(rev_slot) == len(adj)
        for v in graph.nodes():
            for i in range(xadj[v], xadj[v + 1]):
                w = adj[i]
                # The reverse slot lies in w's row and points back at v …
                assert xadj[w] <= rev_slot[i] < xadj[w + 1]
                assert adj[rev_slot[i]] == v
                # … and reversing twice returns to the original slot.
                assert rev_slot[rev_slot[i]] == i


class TestSubgraphHelpers:
    def test_edge_subgraph_degrees(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        degrees = degrees_within(graph, [0, 2])[0]
        assert degrees == [1, 1, 1, 1]

    def test_edge_degree_within(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        subset = {0, 1, 2}
        inside = edge_degree_within(graph, 1, subset)
        assert inside == 2
        degrees = degrees_within(graph, sorted(subset))[0]
        assert edge_degree_within(graph, 1, subset, degrees) == 2

    def test_subgraph_from_edges_preserves_indices_and_ids(self):
        graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)], node_ids=[5, 6, 7, 8, 9])
        sub = subgraph_from_edges(graph, {1, 3})
        assert sub.num_nodes == 5
        assert sub.num_edges == 2
        assert sub.node_ids == [5, 6, 7, 8, 9]
        assert sub.has_edge(1, 2) and sub.has_edge(3, 4)
        assert not sub.has_edge(0, 1)


class TestLineGraph:
    def test_line_graph_of_path(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        line = graph.line_graph()
        assert line.num_nodes == 3
        assert line.num_edges == 2

    def test_line_graph_of_star(self):
        graph = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        line = graph.line_graph()
        # Edges of a star are pairwise adjacent: the line graph is K4.
        assert line.num_nodes == 4
        assert line.num_edges == 6

    def test_line_graph_degrees_match_edge_degrees(self):
        graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
        line = graph.line_graph()
        for e in graph.edges():
            assert line.degree(e) == graph.edge_degree(e)

    def test_line_graph_ids_unique(self):
        graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        line = graph.line_graph()
        assert len(set(line.node_ids)) == line.num_nodes


class TestDirectedGraph:
    def test_basic_accessors(self):
        digraph = DirectedGraph(3, [(0, 1), (1, 2), (2, 0), (0, 1)])
        assert digraph.num_arcs == 4
        assert digraph.degree(0) == 3
        arc = digraph.arc(0)
        assert (arc.tail, arc.head) == (0, 1)

    def test_rejects_self_loops_and_range(self):
        with pytest.raises(ValueError):
            DirectedGraph(2, [(0, 0)])
        with pytest.raises(ValueError):
            DirectedGraph(2, [(0, 3)])
