"""Test-side graph oracles and the shared workload catalogue.

The library answers line-graph and edge-subset queries through a
``CsrView`` over flat rows, without building a new graph; these helpers
build the full :class:`Graph` the slow, obvious way, so the view tests
have an independent reference.  :func:`current_graph` does the same for
the serving plane's mutable :class:`repro.graphs.delta.DeltaGraph`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from repro.graphs import generators
from repro.graphs.core import Graph


def subgraph_from_edges(graph: Graph, edge_set: Iterable[int]) -> Graph:
    """A new graph over the same nodes and identifiers with only the given edges."""
    edges = [graph.edge_endpoints(e) for e in sorted(set(edge_set))]
    return Graph(graph.num_nodes, edges, node_ids=graph.node_ids)


def current_graph(delta_graph) -> Graph:
    """A :class:`repro.graphs.delta.DeltaGraph`'s current edge set as a
    fresh :class:`Graph` over the same nodes and identifiers."""
    return Graph(delta_graph.num_nodes, list(delta_graph.edge_pairs()), delta_graph.node_ids)


#: The arrays the CSR build fills, compared entry by entry by the twin tests.
CSR_FIELDS = ("_edge_u", "_edge_v", "_degrees", "_max_degree", "_xadj", "_adj", "_inc")


def csr_arrays(graph: Graph) -> dict:
    """The graph's CSR build output, field by field (see :data:`CSR_FIELDS`)."""
    return {name: getattr(graph, name) for name in CSR_FIELDS}


def assert_python_ints(arrays: dict) -> None:
    """Every CSR array is a ``list`` of python ints and ``_max_degree`` a
    python int, never a numpy array or ``numpy.int64``: JSON encoding and
    the bitmask code depend on that."""
    for name, value in arrays.items():
        if name == "_max_degree":
            assert type(value) is int, name
        else:
            assert type(value) is list and all(type(x) is int for x in value), name


def materialized_line_graph(graph: Graph) -> Graph:
    """The line graph as a full :class:`Graph`: one node per edge, an edge
    per pair of edges that share an endpoint, edge identifiers as node
    identifiers."""
    line_edges: List[Tuple[int, int]] = []
    for v in graph.nodes():
        incident = graph.incident_edges(v)
        for i, a in enumerate(incident):
            for b in incident[i + 1 :]:
                line_edges.append((a, b) if a < b else (b, a))
    # Two edges share at most one endpoint in a simple graph, so no duplicates.
    return Graph(graph.num_edges, line_edges, node_ids=[graph.edge_id(e) for e in graph.edges()])


def edge_degree_within(
    graph: Graph, e: int, edge_set: Set[int], degrees: Optional[List[int]] = None
) -> int:
    """Edge degree of ``e`` counting only adjacent edges in ``edge_set``.

    ``e`` itself does not need to be in ``edge_set``.  ``degrees`` (node
    degrees within ``edge_set``) is used instead of counting when given.
    """
    u, v = graph.edge_endpoints(e)
    if degrees is not None:
        return degrees[u] + degrees[v] - (2 if e in edge_set else 0)
    return sum(1 for w in (u, v) for f in graph.incident_edges(w) if f != e and f in edge_set)


def named_workloads(seed: int = 0) -> List[Tuple[str, Graph]]:
    """A small catalogue of graph families for smoke and cross-check tests."""
    return [
        ("cycle-64", generators.cycle_graph(64)),
        ("grid-8x8", generators.grid_graph(8, 8)),
        ("hypercube-5", generators.hypercube_graph(5)),
        ("random-regular-48-6", generators.random_regular_graph(48, 6, seed=seed)),
        ("erdos-renyi-64", generators.erdos_renyi_graph(64, 0.12, seed=seed)),
        ("tree-63", generators.tree_graph(63, branching=3, seed=seed)),
        ("regular-bipartite-24-6", generators.regular_bipartite_graph(24, 6, seed=seed)[0]),
    ]
