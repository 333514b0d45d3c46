"""List edge coloring instances and slack bookkeeping (Section 2).

The paper characterizes list edge coloring instances by the family
``P(Δ̄, S, C)``: graphs of maximum edge degree Δ̄, lists larger than
``S · deg(e)`` for every edge (slack at least ``S``), and a color space of
size ``C``.  :class:`ListEdgeColoringInstance` packages a graph (or a
subgraph given as an edge set) together with per-edge lists and provides
the degree / slack / availability accounting that both the solver
(Lemma D.2) and the verification module need.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import InitVar, dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.graphs.core import Graph


@dataclass
class ListEdgeColoringInstance:
    """A list edge coloring instance on a (sub)graph.

    Attributes:
        graph: the host graph.
        lists: per-edge color lists, keyed by edge index.
        color_space: size ``C`` of the color space; colors are
            ``0 .. C - 1``.
        edge_set: the instance's edges (defaults to the keys of ``lists``).
        validate: skip the per-list validation (every color in range, no
            color repeated) when False; constructors that built the lists
            themselves, e.g. :func:`uniform_instance`, pass lists that are
            valid by construction.
    """

    graph: Graph
    lists: Dict[int, List[int]]
    color_space: int
    edge_set: Set[int] = field(default_factory=set)
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        if not self.edge_set:
            self.edge_set = set(self.lists.keys())
        if not validate:
            return
        space = self.color_space
        for e in self.edge_set:
            if e not in self.lists:
                raise ValueError(f"edge {e} has no list")
            lst = self.lists[e]
            # min/max run at C speed; the per-color scan only happens on
            # the error path to name the offending color.
            if lst and (min(lst) < 0 or max(lst) >= space):
                for c in lst:
                    if not (0 <= c < space):
                        raise ValueError(f"color {c} of edge {e} outside the color space")
            # A repeated color would count twice towards the (degree+1)
            # condition while offering only one choice.
            if len(set(lst)) != len(lst):
                c = next(c for c, k in Counter(lst).items() if k > 1)
                raise ValueError(f"the list of edge {e} repeats color {c}")

    # ------------------------------------------------------------------ degrees
    def node_degrees(self) -> List[int]:
        """Node degrees counting only instance edges."""
        degrees = [0] * self.graph.num_nodes
        edge_u, edge_v = self.graph.endpoint_arrays()
        for e in self.edge_set:
            degrees[edge_u[e]] += 1
            degrees[edge_v[e]] += 1
        return degrees

    def edge_degree(self, e: int, degrees: Optional[List[int]] = None) -> int:
        """Edge degree of ``e`` within the instance."""
        if degrees is None:
            degrees = self.node_degrees()
        u, v = self.graph.edge_endpoints(e)
        return degrees[u] + degrees[v] - 2

    def max_edge_degree(self) -> int:
        """Δ̄ of the instance."""
        degrees = self.node_degrees()
        return max((self.edge_degree(e, degrees) for e in self.edge_set), default=0)

    # ------------------------------------------------------------------ slack
    def slack(self, e: int, degrees: Optional[List[int]] = None) -> float:
        """|L_e| / deg(e) (infinity when the edge degree is zero)."""
        degree = self.edge_degree(e, degrees)
        if degree <= 0:
            return float("inf")
        return len(self.lists[e]) / degree

    def min_slack(self) -> float:
        """The smallest slack over all instance edges."""
        degrees = self.node_degrees()
        return min((self.slack(e, degrees) for e in self.edge_set), default=float("inf"))

    def has_slack(self, s: float) -> bool:
        """Whether the instance belongs to P(Δ̄, s, C) (|L_e| > s · deg(e) for all edges)."""
        degrees = self.node_degrees()
        for e in self.edge_set:
            if len(self.lists[e]) <= s * self.edge_degree(e, degrees):
                return False
        return True

    def is_degree_plus_one(self) -> bool:
        """Whether every list has at least deg(e) + 1 colors."""
        degrees = self.node_degrees()
        edge_u, edge_v = self.graph.endpoint_arrays()
        lists = self.lists
        for e in self.edge_set:
            if len(lists[e]) < degrees[edge_u[e]] + degrees[edge_v[e]] - 1:
                return False
        return True

    # ------------------------------------------------------------------ availability
    def available_colors(self, e: int, coloring: Dict[int, int]) -> List[int]:
        """Colors of ``L_e`` not used by any already-colored adjacent edge."""
        used = {
            coloring[f]
            for f in self.graph.adjacent_edges(e)
            if f in coloring
        }
        return [c for c in self.lists[e] if c not in used]

    def uncolored_degree(self, e: int, coloring: Dict[int, int]) -> int:
        """Number of adjacent instance edges that are not yet colored."""
        return sum(
            1
            for f in self.graph.adjacent_edges(e)
            if f in self.edge_set and f not in coloring
        )

    def restricted(self, edges: Iterable[int]) -> "ListEdgeColoringInstance":
        """The sub-instance on the given edges (lists are shared, not copied)."""
        subset = set(edges)
        return ListEdgeColoringInstance(
            graph=self.graph,
            lists={e: self.lists[e] for e in subset},
            color_space=self.color_space,
            edge_set=subset,
        )


def uniform_instance(graph: Graph, num_colors: Optional[int] = None) -> ListEdgeColoringInstance:
    """The standard K-edge-coloring instance: every edge gets the list {0, .., K-1}.

    ``K`` defaults to ``2Δ − 1``, so the instance is a (degree+1)-list
    instance (``deg(e) + 1 ≤ 2Δ − 1``).
    """
    if num_colors is None:
        num_colors = max(1, 2 * graph.max_degree - 1)
    palette = list(range(num_colors))
    lists = {e: list(palette) for e in graph.edges()}
    # Every list is a fresh copy of the same in-range, repeat-free
    # palette: skip the per-list validation.
    return ListEdgeColoringInstance(
        graph=graph, lists=lists, color_space=num_colors, validate=False
    )


def degree_plus_one_instance(
    graph: Graph,
    color_space: Optional[int] = None,
    lists: Optional[Dict[int, Sequence[int]]] = None,
) -> ListEdgeColoringInstance:
    """A (degree+1)-list instance.

    Without explicit ``lists``, edge ``e`` receives the first
    ``deg(e) + 1`` colors of the color space (which defaults to ``2Δ − 1``);
    with explicit lists the function validates the (degree+1) condition.
    """
    if color_space is None:
        color_space = max(1, 2 * graph.max_degree - 1)
    if lists is None:
        built = {e: list(range(min(color_space, graph.edge_degree(e) + 1))) for e in graph.edges()}
    else:
        built = {e: list(lists[e]) for e in lists}
    instance = ListEdgeColoringInstance(graph=graph, lists=built, color_space=color_space)
    if not instance.is_degree_plus_one():
        raise ValueError("the provided lists violate the (degree+1) condition")
    return instance
