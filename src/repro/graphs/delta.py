"""Delta application over CSR graphs: the epoch-versioned dynamic overlay.

The serving plane (:mod:`repro.serving`) answers queries against a graph
that *changes* — edges are inserted and deleted between query batches —
while every static algorithm in the tree consumes the immutable
CSR :class:`repro.graphs.core.Graph`.  :class:`DeltaGraph` bridges the
two worlds:

* the **base** is a frozen :class:`Graph` whose CSR arrays are never
  touched;
* deltas are applied to a small **overlay** (per-node sorted insert rows
  plus a deleted-edge set), so a mutation costs O(degree), not a CSR
  rebuild;
* every mutation bumps an **epoch** counter.  The epoch is the version
  tag the serving cache folds into its keys: a cached answer is only
  ever replayed for the epoch it was computed under;
* :meth:`snapshot` materializes the current edge set as an immutable
  :class:`Graph` (cached per epoch) — the bridge back to the static
  pipelines, used by the serving plane's from-scratch ``recompute``
  repair path and by verification;
* :meth:`rebase` folds the overlay into a fresh base when it has grown
  past the point where overlay merging is worth it (the dynamic
  analogue of the result store's ``compact``).

The node set is fixed for the lifetime of the overlay: serving deltas
are edge- and demand-level events, and keeping node identity frozen is
what lets colors be keyed by endpoint pairs across epochs.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.graphs.core import Graph


def _pair(u: int, v: int) -> Tuple[int, int]:
    """The normalized ``u < v`` endpoint pair."""
    return (u, v) if u < v else (v, u)


class DeltaGraph:
    """A mutable edge-set overlay over an immutable CSR base graph.

    Read API mirrors the subset of :class:`Graph` the serving plane
    needs (``num_nodes`` / ``num_edges`` / ``degree`` / ``neighbors`` /
    ``has_edge`` / ``edge_pairs`` / ``node_ids``); mutations go through
    :meth:`insert_edge` / :meth:`delete_edge` and each bumps
    :attr:`epoch`.
    """

    def __init__(self, base: Graph) -> None:
        self._base = base
        self._epoch = 0
        # Overlay state: edges added on top of the base (sorted per-node
        # rows for deterministic neighbor iteration) and base edges
        # deleted.  An edge is "present" iff (in base and not deleted)
        # or in the added rows.
        self._added_rows: Dict[int, List[int]] = {}
        self._deleted_rows: Dict[int, Set[int]] = {}
        self._added: Set[Tuple[int, int]] = set()
        self._deleted: Set[Tuple[int, int]] = set()
        self._degrees: List[int] = [base.degree(v) for v in base.nodes()]
        self._num_edges = base.num_edges
        self._snapshot: Optional[Graph] = base
        self._snapshot_epoch = 0

    # ------------------------------------------------------------------ meta
    @property
    def base(self) -> Graph:
        """The frozen base graph under the overlay."""
        return self._base

    @property
    def epoch(self) -> int:
        """Version counter: incremented by every applied delta."""
        return self._epoch

    @property
    def overlay_size(self) -> int:
        """Number of overlay entries (added + deleted edges)."""
        return len(self._added) + len(self._deleted)

    @property
    def num_nodes(self) -> int:
        """Number of nodes (fixed for the overlay's lifetime)."""
        return self._base.num_nodes

    @property
    def node_ids(self) -> List[int]:
        """Node identifiers, shared with the base graph."""
        return self._base.node_ids

    @property
    def num_edges(self) -> int:
        """Number of currently present edges."""
        return self._num_edges

    def nodes(self) -> range:
        """Iterate node indices."""
        return self._base.nodes()

    # ----------------------------------------------------------------- reads
    def _check_node(self, v: int) -> None:
        if not 0 <= v < self._base.num_nodes:
            raise ValueError(f"node {v} out of range for {self._base.num_nodes} nodes")

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the edge ``{u, v}`` is currently present."""
        key = _pair(u, v)
        if key in self._added:
            return True
        if key in self._deleted:
            return False
        return self._base.has_edge(u, v)

    def degree(self, v: int) -> int:
        """Current degree of node ``v``."""
        return self._degrees[v]

    def max_degree(self) -> int:
        """Current maximum degree over all nodes."""
        return max(self._degrees) if self._degrees else 0

    def neighbors(self, v: int) -> List[int]:
        """Sorted current neighbors of ``v`` (base row merged with overlay).

        Nodes untouched by the overlay get the base CSR row straight
        through (no per-neighbor probing) — the repair worklist calls
        this on every pop, so the untouched-node path stays O(degree)
        with a single slice.
        """
        base_row = self._base.neighbors(v)
        added_row = self._added_rows.get(v)
        deleted_row = self._deleted_rows.get(v)
        if deleted_row:
            kept = [w for w in base_row if w not in deleted_row]
        elif added_row:
            kept = list(base_row)
        else:
            return base_row
        for w in added_row or ():
            insort(kept, w)
        return kept

    def edge_pairs(self) -> Iterator[Tuple[int, int]]:
        """Yield every present edge as a normalized ``(u, v)`` pair.

        Order is deterministic (base edge order, then sorted overlay
        inserts) but **not** sorted — canonical consumers sort by pair.
        """
        deleted = self._deleted
        for u, v in self._base._edges:  # noqa: SLF001 - sibling module access
            if (u, v) not in deleted:
                yield (u, v)
        for key in sorted(self._added):
            yield key

    # ------------------------------------------------------------- mutations
    def insert_edge(self, u: int, v: int) -> int:
        """Insert the edge ``{u, v}``; returns the new epoch.

        Raises ``ValueError`` on self-loops, out-of-range endpoints or
        an edge that is already present.
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise ValueError(f"self-loop at node {u} is not allowed")
        key = _pair(u, v)
        if self.has_edge(u, v):
            raise ValueError(f"edge {key} is already present")
        if key in self._deleted:
            self._deleted.discard(key)
            for a, b in (key, (key[1], key[0])):
                row = self._deleted_rows[a]
                row.discard(b)
                if not row:
                    del self._deleted_rows[a]
        else:
            self._added.add(key)
            insort(self._added_rows.setdefault(key[0], []), key[1])
            insort(self._added_rows.setdefault(key[1], []), key[0])
        self._degrees[u] += 1
        self._degrees[v] += 1
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
        if key in self._added:
            self._added.discard(key)
            row = self._added_rows[key[0]]
            row.pop(bisect_left(row, key[1]))
            row = self._added_rows[key[1]]
            row.pop(bisect_left(row, key[0]))
        else:
            self._deleted.add(key)
            self._deleted_rows.setdefault(key[0], set()).add(key[1])
            self._deleted_rows.setdefault(key[1], set()).add(key[0])
        self._degrees[u] -= 1
        self._degrees[v] -= 1
        self._num_edges -= 1
        self._epoch += 1
        return self._epoch

    # ------------------------------------------------------------- snapshots
    def snapshot(self) -> Graph:
        """The current edge set as an immutable :class:`Graph`.

        Cached per epoch: repeated calls between mutations return the
        same object, so the ``recompute`` repair path and verification
        share one materialization.  Edge *indices* of a snapshot are not
        stable across epochs — only endpoint pairs are; everything the
        serving plane persists is keyed by pair for exactly this reason.
        """
        if self._snapshot is not None and self._snapshot_epoch == self._epoch:
            return self._snapshot
        edges = sorted(self.edge_pairs())
        self._snapshot = Graph._from_normalized(  # noqa: SLF001 - fast path
            self._base.num_nodes, edges, list(self._base.node_ids)
        )
        self._snapshot_epoch = self._epoch
        return self._snapshot

    def rebase(self) -> Graph:
        """Fold the overlay into a fresh base graph and clear it.

        The epoch is preserved (a rebase is not a delta: the edge set is
        unchanged, so cached answers stay valid).  Returns the new base.

        **Holder contract**: :attr:`base` is *replaced* by this call, so
        holders must never cache the base graph object across mutations —
        always re-read ``graph.base`` (or better, stay on the
        :class:`DeltaGraph` read API, which is rebase-transparent).
        State keyed by endpoint *pairs* (colorings, demand lists,
        palette tables built from pair-keyed colors) survives a rebase
        untouched; state keyed by base-graph edge *indices* does
        not, which is why the serving plane persists nothing by index.
        ``ColoringArtifact`` is audited to this contract and the
        rebase-under-churn twin tests pin it.
        """
        base = self.snapshot()
        self._base = base
        self._added_rows = {}
        self._deleted_rows = {}
        self._added = set()
        self._deleted = set()
        self._snapshot = base
        self._snapshot_epoch = self._epoch
        return base

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DeltaGraph(n={self.num_nodes}, m={self._num_edges}, "
            f"epoch={self._epoch}, overlay={self.overlay_size})"
        )
