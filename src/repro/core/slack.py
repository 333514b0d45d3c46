"""List edge coloring instances and slack bookkeeping (Section 2).

The paper characterizes list edge coloring instances by the family
``P(Δ̄, S, C)``: graphs of maximum edge degree Δ̄, lists larger than
``S · deg(e)`` for every edge (slack at least ``S``), and a color space of
size ``C``.  :class:`ListEdgeColoringInstance` packages a graph (or a
subgraph given as an edge set) together with per-edge lists and provides
the degree / slack / availability accounting that both the solver
(Lemma D.2) and the verification module need.

This module is the only one that knows the list format.  An instance
keeps every list in ascending order and treats it as read-only; equal
lists may be one shared object (:func:`uniform_instance` maps every edge
to one palette list).  The solver reads lists only as color bitmasks,
and :meth:`ListEdgeColoringInstance.mask_list` is the one list-to-mask
conversion: the masks aligned with an edge sequence, one mask built per
run of one list (a shared palette is converted once per call).
:meth:`ListEdgeColoringInstance.list_masks` keys the same masks by edge.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from itertools import compress, count, islice, repeat
from operator import is_not, lt
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.graphs.core import Graph


def _ascending(colors: Sequence[int]) -> bool:
    """Whether ``colors`` is strictly ascending (so also repeat-free)."""
    return all(map(lt, colors, islice(colors, 1, None)))


@dataclass
class ListEdgeColoringInstance:
    """A list edge coloring instance on a (sub)graph.

    Attributes:
        graph: the host graph.
        lists: per-edge color lists, keyed by edge index.  Every list is
            ascending: a list that is not is replaced by a sorted copy in
            a new dict, so the caller's dict and lists are never mutated.
            The lists are read-only, and equal lists may be one object.
        color_space: size ``C`` of the color space; colors are
            ``0 .. C - 1``.
        edge_set: the instance's edges (defaults to the keys of ``lists``).
        validate: skip the per-list validation (every color in range, no
            color repeated) when False; constructors that built the lists
            themselves, e.g. :func:`uniform_instance`, pass lists that are
            valid by construction.
    """

    graph: Graph
    lists: Dict[int, Sequence[int]]
    color_space: int
    edge_set: Set[int] = field(default_factory=set)
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        if not self.edge_set:
            self.edge_set = set(self.lists.keys())
        # One check per run of one list object in dict order: a shared
        # list is checked (and, if unsorted, copied) once per run.
        lists = self.lists
        last: Optional[Sequence[int]] = None
        last_sorted: Sequence[int] = ()
        for e, lst in self.lists.items():
            if lst is not last:
                last = lst
                last_sorted = lst if _ascending(lst) else sorted(lst)
            if last_sorted is not lst:
                if lists is self.lists:
                    lists = dict(lists)
                lists[e] = last_sorted
        self.lists = lists
        if not validate:
            return
        space = self.color_space
        last = None
        for e in self.edge_set:
            if e not in lists:
                raise ValueError(f"edge {e} has no list")
            lst = lists[e]
            if lst is last:
                continue
            last = lst
            if lst and (lst[0] < 0 or lst[-1] >= space):
                c = lst[0] if lst[0] < 0 else lst[-1]
                raise ValueError(f"color {c} of edge {e} outside the color space")
            # A repeated color would count twice towards the (degree+1)
            # condition while offering only one choice.  In a sorted list
            # repeats are neighbours.
            if not _ascending(lst):
                c = next(a for a, b in zip(lst, islice(lst, 1, None)) if a == b)
                raise ValueError(f"the list of edge {e} repeats color {c}")

    def mask_list(self, edges: Sequence[int]) -> List[int]:
        """The color bitmasks of ``edges``' lists, aligned with ``edges``.

        Bit ``c`` of a mask is set iff ``c`` is in the list.  This is the
        one list-to-mask conversion; the solver reads lists only through
        it.  Masks are built per call, never cached: with sparse huge
        color ids one mask is megabytes.  One mask is built per run of
        one list object (found by identity at C speed), and a run whose
        list equals the previous run's reuses its mask.  Lists are
        ascending and repeat-free, so a list spanning ``len`` colors is
        an interval: its mask is one shift.
        """
        lists = self.lists
        objects = list(map(lists.__getitem__, edges))
        if not objects:
            return []
        # The run boundaries: every position whose list object differs
        # from its predecessor's, between 0 and the end.
        changes = compress(count(1), map(is_not, islice(objects, 1, None), objects))
        starts = [0, *changes, len(objects)]
        masks: List[int] = []
        last: Optional[Sequence[int]] = None
        mask = 0
        for lo, hi in zip(starts, islice(starts, 1, None)):
            lst = objects[lo]
            if lst != last:
                last = lst
                if lst and lst[-1] - lst[0] == len(lst) - 1:
                    # Ascending and repeat-free, so an interval of colors.
                    mask = ((1 << len(lst)) - 1) << lst[0]
                else:
                    mask = 0
                    for c in lst:
                        mask |= 1 << c
            masks.extend(repeat(mask, hi - lo))
        return masks

    def list_masks(self, edges: Iterable[int]) -> Dict[int, int]:
        """The masks of :meth:`mask_list`, keyed by edge."""
        edges = list(edges)
        return dict(zip(edges, self.mask_list(edges)))

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

    def is_degree_plus_one(self) -> bool:
        """Whether every list has at least deg(e) + 1 colors.

        An instance on every graph edge reads the graph's own degrees; a
        sub-instance counts its node degrees first.
        """
        graph = self.graph
        if len(self.edge_set) == graph.num_edges:
            degrees = graph.degree_array()
            edges: Iterable[int] = graph.edges()
        else:
            degrees = self.node_degrees()
            edges = self.edge_set
        edge_u, edge_v = graph.endpoint_arrays()
        lists = self.lists
        for e in edges:
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

    All edges share one palette list object.

    ``K`` defaults to ``2Δ − 1``, so the instance is a (degree+1)-list
    instance (``deg(e) + 1 ≤ 2Δ − 1``).
    """
    if num_colors is None:
        num_colors = max(1, 2 * graph.max_degree - 1)
    # Every edge maps to one shared palette list, which is in range,
    # ascending and repeat-free by construction: skip the validation.
    lists = dict.fromkeys(graph.edges(), list(range(num_colors)))
    return ListEdgeColoringInstance(
        graph=graph, lists=lists, color_space=num_colors, validate=False
    )
