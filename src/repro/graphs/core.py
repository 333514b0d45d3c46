"""Core graph data structures.

The simulator and the coloring algorithms need a compact, deterministic
graph representation with fast access to

* the neighbors of a node,
* the edges incident to a node,
* the endpoints and the *edge degree* of an edge (its degree in the line
  graph, ``deg(u) + deg(v) - 2`` as defined in Section 2 of the paper).

Nodes are integers ``0 .. n-1``.  Edges are integers ``0 .. m-1`` and are
stored with their endpoints normalized so that ``u < v``.  The class is
immutable after construction; subgraphs are expressed as edge subsets
(sets of edge indices) so that edge identities — and therefore colors,
lists and orientations keyed by edge index — survive any decomposition.

Storage is CSR-style (compressed sparse row): adjacency and incident-edge
information live in flat arrays indexed by per-node offsets, endpoint
lookups go through two flat endpoint arrays, and global quantities
(``max_degree``, the edge-identifier base) are computed once at
construction instead of on every call.  The per-edge *adjacent edge*
lists (the line-graph rows) are flattened lazily on first use, so hot
paths like list-availability queries cost one slice instead of two list
copies.

The node algorithms that run on a line graph or on an edge subset
(Linial, the defective vertex colorings, the Kuhn–Wattenhofer reduction)
read a :class:`CsrView`: node identifiers plus flat CSR rows, and nothing
else.  :meth:`Graph.line_graph` wraps the cached adjacent-edge rows in
one, so no line graph is ever built as a :class:`Graph`;
:meth:`Graph.edge_subset_view` filters the host rows down to an edge
subset once and keeps host node indices, so colors, lists and
orientations keyed by edge index stay valid.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


class Graph:
    """An undirected simple graph with indexed nodes and edges.

    Internal layout (all built once in ``__init__``):

    * ``_edges`` — tuple of normalized ``(u, v)`` endpoint pairs.
    * ``_edge_u`` / ``_edge_v`` — flat endpoint arrays (``u < v``).
    * ``_xadj`` — per-node offsets into the flat adjacency arrays
      (``_xadj[v] .. _xadj[v+1]`` is node ``v``'s row).
    * ``_adj`` — flat neighbor array, each row sorted by neighbor.
    * ``_inc`` — flat incident-edge array aligned with ``_adj``.
    * ``_eadj_off`` / ``_eadj`` — lazy flat adjacent-edge (line-graph row)
      arrays, built on first :meth:`adjacent_edges` or :meth:`line_graph`
      call.
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[Tuple[int, int]],
        node_ids: Optional[Sequence[int]] = None,
    ) -> None:
        """Build a graph.

        Args:
            num_nodes: number of nodes; nodes are ``0 .. num_nodes - 1``.
            edges: iterable of ``(u, v)`` pairs with ``u != v``; duplicates
                (in either orientation) are rejected.
            node_ids: optional unique identifiers (the ``poly(n)`` IDs of
                the LOCAL model).  Defaults to ``0 .. num_nodes - 1``.
        """
        if num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        normalized: List[Tuple[int, int]] = []
        seen: Set[Tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at node {u} is not allowed")
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise ValueError(f"edge ({u}, {v}) out of range for {num_nodes} nodes")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            normalized.append(key)
        if node_ids is not None:
            ids = list(node_ids)
            if len(ids) != num_nodes:
                raise ValueError("node_ids must have one entry per node")
            if len(set(ids)) != num_nodes:
                raise ValueError("node_ids must be unique")
        else:
            ids = None
        self._finalize(num_nodes, normalized, ids)

    @classmethod
    def _from_normalized(
        cls,
        num_nodes: int,
        normalized: List[Tuple[int, int]],
        node_ids: Optional[List[int]],
    ) -> "Graph":
        """Fast internal constructor for edges already normalized, in-range
        and duplicate-free.  Only the :class:`repro.graphs.delta.DeltaGraph`
        snapshot uses it."""
        graph = cls.__new__(cls)
        graph._finalize(num_nodes, normalized, node_ids)
        return graph

    def _finalize(
        self,
        num_nodes: int,
        normalized: List[Tuple[int, int]],
        node_ids: Optional[List[int]],
    ) -> None:
        self._num_nodes = num_nodes
        self._edges: List[Tuple[int, int]] = normalized
        m = len(normalized)
        edge_u = [0] * m
        edge_v = [0] * m
        degrees = [0] * num_nodes
        for index, (u, v) in enumerate(normalized):
            edge_u[index] = u
            edge_v[index] = v
            degrees[u] += 1
            degrees[v] += 1
        self._edge_u = edge_u
        self._edge_v = edge_v
        self._degrees = degrees
        self._max_degree = max(degrees) if num_nodes else 0

        # CSR adjacency: per-node (neighbor, edge) rows sorted by neighbor.
        rows: List[List[Tuple[int, int]]] = [[] for _ in range(num_nodes)]
        for index in range(m):
            u = edge_u[index]
            v = edge_v[index]
            rows[u].append((v, index))
            rows[v].append((u, index))
        xadj = [0] * (num_nodes + 1)
        adj: List[int] = []
        inc: List[int] = []
        for v in range(num_nodes):
            row = rows[v]
            row.sort()
            for w, index in row:
                adj.append(w)
                inc.append(index)
            xadj[v + 1] = len(adj)
        self._xadj = xadj
        self._adj = adj
        self._inc = inc

        if node_ids is None:
            self._node_ids = list(range(num_nodes))
        else:
            self._node_ids = node_ids
        self._edge_id_base = (max(self._node_ids) + 1) if self._node_ids else 1
        self._edge_index: Dict[Tuple[int, int], int] = {
            key: index for index, key in enumerate(normalized)
        }
        # Lazy caches.
        self._max_edge_degree: Optional[int] = None
        self._eadj_off: Optional[List[int]] = None
        self._eadj: Optional[List[int]] = None
        self._rev_port: Optional[List[int]] = None
        self._rev_slot: Optional[List[int]] = None
        self._endpoints_np = None

    # ------------------------------------------------------------------ nodes
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self._num_nodes

    def nodes(self) -> range:
        """Iterate node indices."""
        return range(self._num_nodes)

    def node_id(self, v: int) -> int:
        """The unique identifier of node ``v`` (LOCAL model identifier)."""
        return self._node_ids[v]

    @property
    def node_ids(self) -> List[int]:
        """All node identifiers, indexed by node."""
        return list(self._node_ids)

    def degree(self, v: int) -> int:
        """Degree of node ``v``."""
        return self._degrees[v]

    def degree_array(self) -> List[int]:
        """Node degrees, indexed by node.  Shared, not copied — callers
        must not mutate it."""
        return self._degrees

    def neighbors(self, v: int) -> List[int]:
        """Sorted neighbors of node ``v``."""
        return self._adj[self._xadj[v] : self._xadj[v + 1]]

    def adjacency_csr(self) -> Tuple[List[int], List[int]]:
        """The flat adjacency arrays ``(xadj, adj)``.

        Node ``v``'s neighbors are ``adj[xadj[v] : xadj[v+1]]``, sorted.
        The arrays are shared, not copied — callers must not mutate them.
        """
        return self._xadj, self._adj

    def incidence_csr(self) -> Tuple[List[int], List[int]]:
        """The flat incident-edge arrays ``(xadj, inc)``, aligned with
        :meth:`adjacency_csr`.  Shared, not copied — do not mutate."""
        return self._xadj, self._inc

    def _build_reverse_ports(self) -> None:
        """Build the flat reverse-slot array in two passes over the CSR rows.

        A *slot* is a position in the flat adjacency array: slot
        ``xadj[v] + p`` is port ``p`` of node ``v``.  For every slot the
        reverse slot is the position of the same edge in the other
        endpoint's row — i.e. where a message sent by ``v`` on port ``p``
        lands in the receiver's port space.
        """
        xadj = self._xadj
        adj = self._adj
        inc = self._inc
        edge_u = self._edge_u
        m = len(self._edges)
        # Pass 1: per edge, the slot in each endpoint's row.
        slot_lo = [0] * m  # slot in the row of the lower endpoint (u < v)
        slot_hi = [0] * m  # slot in the row of the higher endpoint
        for v in range(self._num_nodes):
            for i in range(xadj[v], xadj[v + 1]):
                e = inc[i]
                if edge_u[e] == v:
                    slot_lo[e] = i
                else:
                    slot_hi[e] = i
        # Pass 2: cross-link the two slots of every edge.
        rev_slot = [0] * len(adj)
        for v in range(self._num_nodes):
            for i in range(xadj[v], xadj[v + 1]):
                e = inc[i]
                rev_slot[i] = slot_hi[e] if edge_u[e] == v else slot_lo[e]
        self._rev_slot = rev_slot

    def reverse_port_csr(self) -> List[int]:
        """The flat reverse-port array aligned with :meth:`adjacency_csr`.

        ``rev[xadj[v] + p]`` is the port of ``v`` in the row of the
        neighbor ``w = adj[xadj[v] + p]`` — the port on which ``w``
        receives what ``v`` sends on port ``p``.  Derived lazily from the
        reverse-slot array (which the simulator shares); shared, not
        copied — do not mutate.
        """
        if self._rev_port is None:
            rev_slot = self.reverse_slot_csr()
            xadj = self._xadj
            adj = self._adj
            self._rev_port = [rev_slot[i] - xadj[adj[i]] for i in range(len(adj))]
        return self._rev_port

    def reverse_slot_csr(self) -> List[int]:
        """The flat reverse-*slot* array aligned with :meth:`adjacency_csr`.

        ``rev_slot[i]`` is the absolute adjacency-array position of the
        opposite direction of slot ``i``: ``rev_slot[xadj[v] + p] ==
        xadj[w] + reverse_port_csr()[xadj[v] + p]`` with ``w`` the
        neighbor on port ``p``.  The message-passing simulator uses this
        to index its flat inbox buffer directly.  Built lazily; shared,
        not copied — do not mutate.
        """
        if self._rev_slot is None:
            self._build_reverse_ports()
        return self._rev_slot  # type: ignore[return-value]

    @property
    def max_degree(self) -> int:
        """Maximum node degree Δ (0 for an empty graph); precomputed."""
        return self._max_degree

    # ------------------------------------------------------------------ edges
    @property
    def num_edges(self) -> int:
        """Number of edges."""
        return len(self._edges)

    def edges(self) -> range:
        """Iterate edge indices."""
        return range(len(self._edges))

    def edge_endpoints(self, e: int) -> Tuple[int, int]:
        """Endpoints ``(u, v)`` of edge ``e`` with ``u < v``."""
        return self._edges[e]

    def endpoint_arrays(self) -> Tuple[List[int], List[int]]:
        """The flat endpoint arrays ``(edge_u, edge_v)`` with ``u < v``.

        Shared, not copied — callers must not mutate them.  Hot loops use
        these instead of per-edge :meth:`edge_endpoints` tuple unpacking.
        """
        return self._edge_u, self._edge_v

    def endpoint_arrays_np(self):
        """Numpy ``int64`` copies of the endpoint arrays, built once.

        The vectorized orientation engine gathers per-instance endpoint
        arrays with one fancy-index instead of a python loop per call;
        the arrays are cached on the graph so repeated orientation calls
        on subsets of the same host graph share them.  Requires numpy
        (the caller guards on availability).  Shared — do not mutate.
        """
        if self._endpoints_np is None:
            import numpy as np

            self._endpoints_np = (
                np.asarray(self._edge_u, dtype=np.int64),
                np.asarray(self._edge_v, dtype=np.int64),
            )
        return self._endpoints_np

    def edge_index(self, u: int, v: int) -> int:
        """Edge index of the edge between ``u`` and ``v``.

        Raises ``KeyError`` if the edge does not exist.
        """
        key = (u, v) if u < v else (v, u)
        return self._edge_index[key]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether an edge between ``u`` and ``v`` exists."""
        key = (u, v) if u < v else (v, u)
        return key in self._edge_index

    def incident_edges(self, v: int) -> List[int]:
        """Edge indices incident to node ``v`` (sorted by neighbor)."""
        return self._inc[self._xadj[v] : self._xadj[v + 1]]

    def other_endpoint(self, e: int, v: int) -> int:
        """The endpoint of edge ``e`` that is not ``v``."""
        u, w = self._edges[e]
        if v == u:
            return w
        if v == w:
            return u
        raise ValueError(f"node {v} is not an endpoint of edge {e}")

    def edge_degree(self, e: int) -> int:
        """Degree of edge ``e`` in the line graph: deg(u) + deg(v) - 2."""
        return self._degrees[self._edge_u[e]] + self._degrees[self._edge_v[e]] - 2

    @property
    def max_edge_degree(self) -> int:
        """Maximum edge degree (0 for an edgeless graph); cached."""
        if self._max_edge_degree is None:
            degrees = self._degrees
            self._max_edge_degree = max(
                (
                    degrees[u] + degrees[v] - 2
                    for u, v in zip(self._edge_u, self._edge_v)
                ),
                default=0,
            )
        return self._max_edge_degree

    def _edge_adjacency(self) -> Tuple[List[int], List[int]]:
        """Flat line-graph rows ``(offsets, flat)``, built once on demand."""
        if self._eadj is None:
            offsets = [0] * (len(self._edges) + 1)
            flat: List[int] = []
            inc = self._inc
            xadj = self._xadj
            for e in range(len(self._edges)):
                u = self._edge_u[e]
                v = self._edge_v[e]
                for f in inc[xadj[u] : xadj[u + 1]]:
                    if f != e:
                        flat.append(f)
                for f in inc[xadj[v] : xadj[v + 1]]:
                    if f != e:
                        flat.append(f)
                offsets[e + 1] = len(flat)
            self._eadj_off = offsets
            self._eadj = flat
        return self._eadj_off, self._eadj  # type: ignore[return-value]

    def adjacent_edges(self, e: int) -> List[int]:
        """Edge indices sharing an endpoint with ``e`` (excluding ``e``)."""
        offsets, flat = self._edge_adjacency()
        return flat[offsets[e] : offsets[e + 1]]

    def edge_id(self, e: int) -> int:
        """A unique identifier for edge ``e`` derived from its endpoint ids.

        The identifier is ``min_id * P + max_id`` where ``P`` is one more
        than the largest node identifier (precomputed at construction), so
        it fits in O(log n) bits and both endpoints can compute it locally.
        """
        ids = self._node_ids
        a = ids[self._edge_u[e]]
        b = ids[self._edge_v[e]]
        if a > b:
            a, b = b, a
        return a * self._edge_id_base + b

    # -------------------------------------------------------------- subgraphs
    def edge_subset_view(self, edge_set: Iterable[int]) -> "CsrView":
        """This graph restricted to the given edges, as a :class:`CsrView`.

        The view keeps every node, its identifier and the host's row order
        (so neighbors stay sorted); only the rows are filtered, once, in
        one pass over the host adjacency, by the numpy filter or its
        python twin (see :mod:`repro.core.engine`; both produce the same
        lists).
        """
        # Imported here: importing ``repro.core`` imports this module.
        from repro.core import engine

        present = bytearray(len(self._edges))
        for e in edge_set:
            present[e] = 1
        xadj = self._xadj
        adj = self._adj
        inc = self._inc
        if engine.use_numpy(len(adj)):
            np = engine._np
            # Keep the slots whose edge is present, and read the restricted
            # row boundaries off the running count of kept slots.
            keep = np.frombuffer(present, dtype=np.uint8).astype(bool)[
                np.asarray(inc, dtype=np.int64)
            ]
            csum = np.zeros(len(adj) + 1, dtype=np.int64)
            np.cumsum(keep, out=csum[1:])
            sub_xadj = csum[np.asarray(xadj, dtype=np.int64)].tolist()
            sub_adj = np.asarray(adj, dtype=np.int64)[keep].tolist()
        else:
            sub_xadj = [0] * (self._num_nodes + 1)
            sub_adj = []
            for v in range(self._num_nodes):
                for i in range(xadj[v], xadj[v + 1]):
                    if present[inc[i]]:
                        sub_adj.append(adj[i])
                sub_xadj[v + 1] = len(sub_adj)
        return CsrView(self._node_ids, sub_xadj, sub_adj)

    def line_graph(self) -> "CsrView":
        """The line graph: one node per edge, edges between adjacent edges.

        A :class:`CsrView` over the cached :meth:`adjacent_edges` rows, so
        nothing beyond those rows is built.  Its node identifiers are the
        edge identifiers of this graph (unique, O(log n)-bit values).  A
        row lists the edges at the lower endpoint, then those at the
        higher one, so rows are not sorted.
        """
        offsets, flat = self._edge_adjacency()
        return CsrView([self.edge_id(e) for e in self.edges()], offsets, flat)

    # ------------------------------------------------------------------ misc
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Graph(n={self._num_nodes}, m={len(self._edges)}, max_degree={self.max_degree})"


class CsrView:
    """A read-only graph over flat CSR rows ``(node_ids, xadj, adj)``.

    Node ``v``'s neighbors are ``adj[xadj[v] : xadj[v + 1]]``; every
    undirected edge appears in both endpoints' rows.  The view answers
    exactly the read API of the node algorithms that run on a line graph
    or on an edge subset (Linial, the defective vertex colorings and the
    Kuhn–Wattenhofer reduction): ``num_nodes`` / ``nodes()`` /
    ``node_id`` / ``node_ids`` / ``max_degree`` / ``degree`` /
    ``neighbors`` / ``adjacency_csr`` / ``num_edges``.  Those algorithms
    read a row as a set or a count, never by position.

    :meth:`Graph.line_graph` and :meth:`Graph.edge_subset_view` build
    it.  The arrays are shared, not copied — nobody may mutate them.
    """

    def __init__(self, node_ids: List[int], xadj: List[int], adj: List[int]) -> None:
        self._node_ids = node_ids
        self._xadj = xadj
        self._adj = adj
        self._max_degree = max(map(operator.sub, islice(xadj, 1, None), xadj), default=0)

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._xadj) - 1

    def nodes(self) -> range:
        """Iterate node indices."""
        return range(len(self._xadj) - 1)

    def node_id(self, v: int) -> int:
        """The unique identifier of node ``v``."""
        return self._node_ids[v]

    @property
    def node_ids(self) -> List[int]:
        """All node identifiers, indexed by node."""
        return list(self._node_ids)

    @property
    def max_degree(self) -> int:
        """Maximum row length (0 without nodes); precomputed."""
        return self._max_degree

    def degree(self, v: int) -> int:
        """Length of node ``v``'s row."""
        return self._xadj[v + 1] - self._xadj[v]

    def neighbors(self, v: int) -> List[int]:
        """Node ``v``'s row."""
        return self._adj[self._xadj[v] : self._xadj[v + 1]]

    def adjacency_csr(self) -> Tuple[List[int], List[int]]:
        """The flat rows ``(xadj, adj)``; shared, do not mutate."""
        return self._xadj, self._adj

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each sits in two rows)."""
        return len(self._adj) // 2

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CsrView(n={self.num_nodes}, m={self.num_edges}, max_degree={self._max_degree})"


def degrees_within(graph: Graph, edges: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Node degrees and edge degrees (aligned with ``edges``) within ``edges``.

    The one subset-degree counter: the recursions count the degrees of
    their root instance with it (every later level reads them off its
    defective split), and leftover stages size their palettes with it.
    """
    edge_u, edge_v = graph.endpoint_arrays()
    node_deg = [0] * graph.num_nodes
    for e in edges:
        node_deg[edge_u[e]] += 1
        node_deg[edge_v[e]] += 1
    return node_deg, [node_deg[edge_u[e]] + node_deg[edge_v[e]] - 2 for e in edges]


@dataclass(frozen=True)
class Arc:
    """A directed edge ``tail -> head`` of a :class:`DirectedGraph`."""

    tail: int
    head: int


class DirectedGraph:
    """A directed multigraph used by the generalized token dropping game.

    Arcs are indexed ``0 .. m-1``.  Parallel arcs and opposite arcs are
    allowed (the token dropping game of Section 4 is defined on general
    directed graphs); self-loops are not.  Tails and heads are stored in
    flat arrays; :class:`Arc` objects are materialized on demand.
    """

    def __init__(self, num_nodes: int, arcs: Iterable[Tuple[int, int]]) -> None:
        if num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        self._num_nodes = num_nodes
        self._tails: List[int] = []
        self._heads: List[int] = []
        # Sparse adjacency: only nodes that actually touch an arc get an
        # entry, so constructing a game graph costs O(arcs), not O(n).
        self._out: Dict[int, List[int]] = {}
        self._in: Dict[int, List[int]] = {}
        for tail, head in arcs:
            if tail == head:
                raise ValueError(f"self-loop at node {tail} is not allowed")
            if not (0 <= tail < num_nodes and 0 <= head < num_nodes):
                raise ValueError(f"arc ({tail}, {head}) out of range")
            index = len(self._tails)
            self._tails.append(tail)
            self._heads.append(head)
            self._out.setdefault(tail, []).append(index)
            self._in.setdefault(head, []).append(index)

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self._num_nodes

    @property
    def num_arcs(self) -> int:
        """Number of arcs."""
        return len(self._tails)

    def nodes(self) -> range:
        """Iterate node indices."""
        return range(self._num_nodes)

    def arcs(self) -> range:
        """Iterate arc indices."""
        return range(len(self._tails))

    def arc(self, index: int) -> Arc:
        """The arc with the given index."""
        return Arc(self._tails[index], self._heads[index])

    def arc_arrays(self) -> Tuple[List[int], List[int]]:
        """The flat ``(tails, heads)`` arrays (shared, not copied — do not
        mutate)."""
        return self._tails, self._heads

    def in_arc_map(self) -> Dict[int, List[int]]:
        """In-arc index lists keyed by head node (shared — do not mutate).

        Nodes without incoming arcs are absent.
        """
        return self._in

    def out_degree(self, v: int) -> int:
        """Out-degree of ``v``."""
        return len(self._out.get(v, ()))

    def in_degree(self, v: int) -> int:
        """In-degree of ``v``."""
        return len(self._in.get(v, ()))

    def degree(self, v: int) -> int:
        """Total (undirected) degree of ``v``."""
        return len(self._out.get(v, ())) + len(self._in.get(v, ()))

    def undirected_edge_degree(self, index: int) -> int:
        """Degree of the arc in the underlying undirected (multi)graph.

        This matches the paper's ``deg_G(e)`` convention for directed
        graphs: degrees are taken in the undirected version of the graph.
        """
        return self.degree(self._tails[index]) + self.degree(self._heads[index]) - 2

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DirectedGraph(n={self._num_nodes}, m={len(self._tails)})"
