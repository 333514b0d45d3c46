"""Delta application over CSR graphs: the epoch-versioned dynamic graph.

The serving plane (:mod:`repro.serving`) answers queries against a graph
that *changes* — edges are inserted and deleted between query batches —
while every static algorithm in the tree consumes the immutable
CSR :class:`repro.graphs.core.Graph`.  :class:`DeltaGraph` bridges the
two worlds:

* the **live rows** are one sorted neighbor list per node, copied once
  from a CSR :class:`Graph`; they are the adjacency every read sees, so
  a neighbor read is one list lookup and a mutation edits two rows in
  O(degree).  They are the only copy of the edge set: the
  :class:`Graph` they were copied from is not kept, and a static
  pipeline that needs the current edge set as a :class:`Graph` builds
  it from :meth:`edge_pairs`;
* every mutation bumps an **epoch** counter.  The epoch is the version
  tag the serving cache folds into its keys: a cached answer is only
  ever replayed for the epoch it was computed under;
* the **color rows** are one list per node aligned with its live row:
  slot ``i`` of ``color_row(u)`` is the color of the edge
  ``(u, neighbors(u)[i])``, so every edge sits in two mirrored slots.
  They hold the serving plane's edge coloring where its repair engine
  reads it, node by node: a mutation inserts or pops both slots at the
  positions it already finds, and :meth:`set_color` writes both.  The
  rows are adopted whole at construction (the canonical build hands
  over the rows it filled by appends, so no placeholder row is built)
  or refilled from pair-ordered colors by :meth:`fill_colors`; without
  either, every slot is :data:`UNCOLORED`;
* the **overlay** is accounting only: the edges added and the base
  edges deleted since the last :meth:`rebase`.  Its size is what the
  serving plane's rebase policy and ``stats`` report;
* :meth:`rebase` makes the current edge set the new base: it clears the
  overlay accounting in O(overlay) and builds no graph (the dynamic
  analogue of the result store's ``compact``).

The node set is fixed for the lifetime of the graph: serving deltas
are edge- and demand-level events, and keeping node identity frozen is
what lets an endpoint pair name the same edge across epochs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from repro.graphs.core import Graph

#: The color slot of an edge that has not been colored yet.
UNCOLORED = -1


def _pair(u: int, v: int) -> Tuple[int, int]:
    """The normalized ``u < v`` endpoint pair."""
    return (u, v) if u < v else (v, u)


class DeltaGraph:
    """A mutable edge set kept as live sorted neighbor rows.

    Read API mirrors the subset of :class:`Graph` the serving plane
    needs (``num_nodes`` / ``num_edges`` / ``degree`` / ``neighbors`` /
    ``has_edge`` / ``edge_pairs`` / ``node_ids``), plus the color rows
    (``color_row`` / ``colored_edges``); mutations go through
    :meth:`insert_edge` / :meth:`delete_edge` and each bumps
    :attr:`epoch`.  Reads of a node take an in-range node index, as the
    CSR :class:`Graph` reads do; only :meth:`has_edge` answers ``False``
    for an out-of-range endpoint.
    """

    def __init__(self, base: Graph, color_rows: Optional[List[List[int]]] = None) -> None:
        """Copy ``base``'s rows.  ``color_rows`` become the color rows as
        they are (not copied): one list per node, aligned with ``base``'s
        sorted rows, both slots of every edge equal, as
        :func:`repro.serving.repair.canonical_rows` builds them.  Without
        them every slot is :data:`UNCOLORED`."""
        xadj, adj = base.adjacency_csr()
        self._rows: List[List[int]] = [
            adj[xadj[v] : xadj[v + 1]] for v in range(base.num_nodes)
        ]
        if color_rows is None:
            color_rows = [[UNCOLORED] * len(row) for row in self._rows]
        elif list(map(len, color_rows)) != list(map(len, self._rows)):
            raise ValueError("color rows do not align with the neighbor rows")
        self._colors = color_rows
        self._node_ids = base.node_ids
        self._epoch = 0
        # Overlay accounting against the last rebase: an edge is in
        # ``_added`` iff it is present and was not a base edge, and in
        # ``_deleted`` iff it is a base edge that is absent.
        self._added: Set[Tuple[int, int]] = set()
        self._deleted: Set[Tuple[int, int]] = set()
        self._base_edges = base.num_edges
        self._num_edges = base.num_edges

    # ------------------------------------------------------------------ meta
    @property
    def epoch(self) -> int:
        """Version counter: incremented by every applied delta."""
        return self._epoch

    @property
    def overlay_size(self) -> int:
        """Number of overlay entries (added + deleted edges)."""
        return len(self._added) + len(self._deleted)

    @property
    def base_edges(self) -> int:
        """Number of edges at the last :meth:`rebase` (or construction)."""
        return self._base_edges

    @property
    def num_nodes(self) -> int:
        """Number of nodes (fixed for the graph's lifetime)."""
        return len(self._rows)

    @property
    def node_ids(self) -> List[int]:
        """Node identifiers, indexed by node (a copy)."""
        return list(self._node_ids)

    @property
    def num_edges(self) -> int:
        """Number of currently present edges."""
        return self._num_edges

    def nodes(self) -> range:
        """Iterate node indices."""
        return range(len(self._rows))

    # ----------------------------------------------------------------- reads
    def _check_node(self, v: int) -> None:
        if not 0 <= v < len(self._rows):
            raise ValueError(f"node {v} out of range for {len(self._rows)} nodes")

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the edge ``{u, v}`` is currently present (``False``
        when an endpoint is out of range)."""
        if not 0 <= u < len(self._rows):
            return False
        row = self._rows[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def degree(self, v: int) -> int:
        """Current degree of node ``v``."""
        return len(self._rows[v])

    def max_degree(self) -> int:
        """Current maximum degree over all nodes."""
        return max(map(len, self._rows), default=0)

    def neighbors(self, v: int) -> List[int]:
        """Sorted current neighbors of ``v``: the live row itself.

        Shared, not copied — callers must not mutate it, and a row read
        before a mutation of ``v`` sees that mutation.
        """
        return self._rows[v]

    def edge_pairs(self) -> Iterator[Tuple[int, int]]:
        """Yield every present edge as a normalized ``(u, v)`` pair, in
        sorted pair order."""
        for u, row in enumerate(self._rows):
            for v in row[bisect_right(row, u) :]:
                yield (u, v)

    def color_row(self, v: int) -> List[int]:
        """The colors of ``v``'s edges, aligned with :meth:`neighbors`.

        The live row itself, shared like :meth:`neighbors`: only the
        color-row writers (:meth:`set_color`, :meth:`fill_colors`, the
        serving repair engine) may store into it, and both slots of an
        edge must always agree.
        """
        return self._colors[v]

    def colored_edges(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(u, v, color)`` for every present edge, in sorted pair
        order (the order of :meth:`edge_pairs`)."""
        for u, row in enumerate(self._rows):
            i = bisect_right(row, u)
            for v, c in zip(row[i:], self._colors[u][i:]):
                yield (u, v, c)

    def set_color(self, u: int, v: int, color: int) -> None:
        """Write ``color`` into both slots of the present edge ``{u, v}``."""
        row = self._rows[u]
        self._colors[u][bisect_left(row, v)] = color
        row = self._rows[v]
        self._colors[v][bisect_left(row, u)] = color

    def fill_colors(self, colored: Iterable[Tuple[Tuple[int, int], int]]) -> None:
        """Replace every color slot from ``((u, v), color)`` items.

        The items must name every present edge once, as a normalized
        pair, in sorted pair order.  In that order each node's slots come
        up in row order (first its edges to smaller neighbors, then its
        edges to larger ones), so each row fills by appends: one pass, no
        lookups.  The rows are refilled in place (a caller holding a
        :meth:`color_row` keeps the live row); ``ValueError`` when the
        items miss or repeat an edge leaves them unusable.
        """
        rows = self._colors
        for row in rows:
            row.clear()
        for (u, v), c in colored:
            rows[u].append(c)
            rows[v].append(c)
        if list(map(len, rows)) != list(map(len, self._rows)):
            raise ValueError("colors do not cover the edge set once each")

    # ------------------------------------------------------------- mutations
    def insert_edge(self, u: int, v: int) -> int:
        """Insert the edge ``{u, v}``, its two color slots
        :data:`UNCOLORED`; returns the new epoch.

        Raises ``ValueError`` on self-loops, out-of-range endpoints or
        an edge that is already present.
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise ValueError(f"self-loop at node {u} is not allowed")
        key = _pair(u, v)
        row = self._rows[u]
        i = bisect_left(row, v)
        if i < len(row) and row[i] == v:
            raise ValueError(f"edge {key} is already present")
        row.insert(i, v)
        self._colors[u].insert(i, UNCOLORED)
        row = self._rows[v]
        j = bisect_left(row, u)
        row.insert(j, u)
        self._colors[v].insert(j, UNCOLORED)
        if key in self._deleted:
            self._deleted.discard(key)
        else:
            self._added.add(key)
        self._num_edges += 1
        self._epoch += 1
        return self._epoch

    def delete_edge(self, u: int, v: int) -> int:
        """Delete the edge ``{u, v}``; returns the new epoch.

        Raises ``ValueError`` when the edge is not present.
        """
        key = _pair(u, v)
        if not self.has_edge(u, v):
            raise ValueError(f"edge {key} is not present")
        i = bisect_left(self._rows[u], v)
        self._rows[u].pop(i)
        self._colors[u].pop(i)
        j = bisect_left(self._rows[v], u)
        self._rows[v].pop(j)
        self._colors[v].pop(j)
        if key in self._added:
            self._added.discard(key)
        else:
            self._deleted.add(key)
        self._num_edges -= 1
        self._epoch += 1
        return self._epoch

    def rebase(self) -> int:
        """Make the current edge set the new base; return entries folded.

        Clears the overlay accounting and sets :attr:`base_edges` to the
        current edge count.  The rows already hold the current edge set,
        so this is O(overlay) and builds no graph.  The epoch is
        preserved (a rebase is not a delta: the edge set is unchanged,
        so cached answers stay valid); a rebase with an empty overlay
        folds nothing.
        """
        folded = self.overlay_size
        self._added = set()
        self._deleted = set()
        self._base_edges = self._num_edges
        return folded

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DeltaGraph(n={self.num_nodes}, m={self._num_edges}, "
            f"epoch={self._epoch}, overlay={self.overlay_size})"
        )
