"""Bipartitions of graphs.

Sections 5–7 of the paper work with *2-colored bipartite graphs*: the
nodes know whether they belong to the side ``U`` or the side ``V``.  A
:class:`Bipartition` records that side information.  ``find_bipartition``
recovers a bipartition of a bipartite graph (used by tests).  The
reductions from general graphs (Theorems 6.3 and D.4) induce their
bipartitions from a defective vertex coloring, which the nodes know:
:func:`class_pair_pieces` cuts an edge set into the bipartite pieces
between pairs of color-class groups.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.graphs.core import Graph


class Bipartition:
    """Side assignment of a 2-colored bipartite graph (0 = U, 1 = V)."""

    def __init__(self, sides: Sequence[int]) -> None:
        sides = list(sides)
        for value in sides:
            if value not in (0, 1):
                raise ValueError("sides must be 0 (U) or 1 (V)")
        self._sides = sides

    @property
    def sides(self) -> List[int]:
        """Side of every node, indexed by node."""
        return list(self._sides)

    def side(self, v: int) -> int:
        """Side of node ``v``."""
        return self._sides[v]

    def orient_edge(self, graph: Graph, e: int) -> Tuple[int, int]:
        """Endpoints of ``e`` as ``(u, v)`` with ``u`` on side U and ``v`` on side V.

        Raises ``ValueError`` if the edge is monochromatic with respect to
        the bipartition.
        """
        a, b = graph.edge_endpoints(e)
        if self._sides[a] == 0 and self._sides[b] == 1:
            return a, b
        if self._sides[a] == 1 and self._sides[b] == 0:
            return b, a
        raise ValueError(f"edge {e} = ({a}, {b}) is not bichromatic in this bipartition")

    def validates(self, graph: Graph, edge_set: Optional[Iterable[int]] = None) -> bool:
        """Whether every (given) edge crosses the bipartition."""
        edges = graph.edges() if edge_set is None else edge_set
        for e in edges:
            a, b = graph.edge_endpoints(e)
            if self._sides[a] == self._sides[b]:
                return False
        return True


def class_pair_pieces(
    graph: Graph,
    edges: Iterable[int],
    classes: Sequence[int],
    pairings: Sequence[Tuple[AbstractSet[int], AbstractSet[int]]],
) -> List[Tuple[Bipartition, List[int]]]:
    """The bipartite pieces of ``edges`` between the class groups of ``pairings``.

    ``classes`` is a node coloring and each pairing ``(side_a, side_b)``
    is two disjoint groups of classes.  In one pass, every edge goes to
    the first pairing it crosses (one endpoint's class in ``side_a``, the
    other's in ``side_b``); edges crossing none are left out.  Returns,
    in pairing order, ``(bipartition, piece edges)`` for every non-empty
    piece, where the bipartition puts the nodes of ``side_a`` classes on
    side U; the piece edges keep the order of ``edges``.
    """
    piece_of: Dict[Tuple[int, int], int] = {}
    for index, (side_a, side_b) in enumerate(pairings):
        for a in side_a:
            for b in side_b:
                piece_of.setdefault((a, b), index)
                piece_of.setdefault((b, a), index)
    pieces: List[List[int]] = [[] for _ in pairings]
    edge_u, edge_v = graph.endpoint_arrays()
    for e in edges:
        index = piece_of.get((classes[edge_u[e]], classes[edge_v[e]]))
        if index is not None:
            pieces[index].append(e)
    return [
        (Bipartition([0 if classes[v] in side_a else 1 for v in graph.nodes()]), piece)
        for (side_a, _), piece in zip(pairings, pieces)
        if piece
    ]


def find_bipartition(graph: Graph) -> Optional[Bipartition]:
    """A 2-coloring of ``graph`` if it is bipartite, otherwise ``None``.

    Isolated nodes and nodes in components not containing edges are put on
    side U.
    """
    sides: List[Optional[int]] = [None] * graph.num_nodes
    for start in graph.nodes():
        if sides[start] is not None:
            continue
        sides[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in graph.neighbors(v):
                if sides[w] is None:
                    sides[w] = 1 - sides[v]  # type: ignore[operator]
                    stack.append(w)
                elif sides[w] == sides[v]:
                    return None
    return Bipartition([s if s is not None else 0 for s in sides])
