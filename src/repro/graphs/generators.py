"""Workload generators.

The paper has no experimental workloads; these generators provide the
graph families that the introduction motivates (bounded-degree networks
whose degree is independent of the network size) plus standard families
used by distributed-coloring evaluations:

* ``regular_bipartite_graph`` — Δ-regular 2-colored bipartite graphs,
  the setting of Sections 5–7.
* ``random_regular_graph`` — Δ-regular general graphs, by networkx's
  pairing loop run on plain sets (bit-identical to networkx's output).
* ``erdos_renyi_graph`` — G(n, p).
* ``random_bipartite_graph`` — bipartite G(n_u, n_v, p).
* ``cycle_graph`` / ``path_graph`` — the Δ = 2 lower-bound family of
  Linial used for the log* n experiments.
* ``complete_graph`` / ``complete_bipartite_graph`` — extreme-degree
  stress cases.
* ``hypercube_graph``, ``grid_graph``, ``tree_graph``, ``power_law_graph``
  — additional topologies for the examples and benchmarks.

All generators are deterministic given ``seed``.
"""

from __future__ import annotations

import random
from collections import defaultdict
from operator import itemgetter
from typing import List, Optional, Tuple

from repro.graphs.bipartite import Bipartition
from repro.graphs.core import Graph


def _rng(seed: Optional[int]) -> random.Random:
    return random.Random(seed if seed is not None else 0)


def cycle_graph(n: int) -> Graph:
    """A cycle on ``n >= 3`` nodes (Δ = 2)."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 nodes")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    """A path on ``n >= 1`` nodes."""
    if n < 1:
        raise ValueError("a path needs at least 1 node")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    """The complete graph K_n."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(n, edges)


def star_graph(leaves: int) -> Graph:
    """A star with one center (node 0) and ``leaves`` leaves."""
    return Graph(leaves + 1, [(0, i + 1) for i in range(leaves)])


def complete_bipartite_graph(n_left: int, n_right: int) -> Graph:
    """The complete bipartite graph K_{n_left, n_right}."""
    edges = [(i, n_left + j) for i in range(n_left) for j in range(n_right)]
    return Graph(n_left + n_right, edges)


def grid_graph(rows: int, cols: int) -> Graph:
    """A rows x cols grid graph (Δ <= 4)."""
    def index(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((index(r, c), index(r, c + 1)))
            if r + 1 < rows:
                edges.append((index(r, c), index(r + 1, c)))
    return Graph(rows * cols, edges)


def hypercube_graph(dimension: int) -> Graph:
    """The ``dimension``-dimensional hypercube (Δ = dimension)."""
    n = 1 << dimension
    edges = []
    for v in range(n):
        for bit in range(dimension):
            w = v ^ (1 << bit)
            if v < w:
                edges.append((v, w))
    return Graph(n, edges)


def tree_graph(n: int, branching: int = 2, seed: Optional[int] = None) -> Graph:
    """A random tree on ``n`` nodes with maximum ``branching`` children per node."""
    if n < 1:
        raise ValueError("a tree needs at least 1 node")
    rng = _rng(seed)
    edges: List[Tuple[int, int]] = []
    children = [0] * n
    available = [0]
    for v in range(1, n):
        parent = rng.choice(available)
        edges.append((parent, v))
        children[parent] += 1
        if children[parent] >= branching:
            available.remove(parent)
        available.append(v)
    return Graph(n, edges)


def regular_bipartite_graph(
    n_per_side: int, degree: int, seed: Optional[int] = None
) -> Tuple[Graph, Bipartition]:
    """A Δ-regular bipartite graph with ``n_per_side`` nodes on each side.

    Built as a union of ``degree`` edge-disjoint perfect matchings: with a
    random permutation σ of the left side and a random permutation π of
    the right side, matching ``k`` connects left node ``u`` to right node
    ``π((σ(u) + k) mod n)``.  Every node has degree exactly ``degree``.
    Returns the graph together with its bipartition; left nodes are
    ``0 .. n_per_side - 1`` and right nodes follow.
    """
    if degree > n_per_side:
        raise ValueError("degree cannot exceed the side size")
    rng = _rng(seed)
    sigma = list(range(n_per_side))
    pi = list(range(n_per_side))
    rng.shuffle(sigma)
    rng.shuffle(pi)
    edges: List[Tuple[int, int]] = []
    for k in range(degree):
        for u in range(n_per_side):
            edges.append((u, n_per_side + pi[(sigma[u] + k) % n_per_side]))
    graph = Graph(2 * n_per_side, edges)
    sides = [0] * n_per_side + [1] * n_per_side
    return graph, Bipartition(sides)


def random_bipartite_graph(
    n_left: int, n_right: int, p: float, seed: Optional[int] = None
) -> Tuple[Graph, Bipartition]:
    """A bipartite G(n_left, n_right, p) random graph with its bipartition."""
    rng = _rng(seed)
    edges = [
        (u, n_left + v)
        for u in range(n_left)
        for v in range(n_right)
        if rng.random() < p
    ]
    graph = Graph(n_left + n_right, edges)
    sides = [0] * n_left + [1] * n_right
    return graph, Bipartition(sides)


def random_regular_graph(n: int, degree: int, seed: Optional[int] = None) -> Graph:
    """A random Δ-regular simple graph (the pairing model).

    The pairing loop is networkx 3.6.1's ``random_regular_graph``
    (3-clause BSD license, Copyright (c) 2004-2025, NetworkX Developers),
    run without building a networkx graph, and its output is
    bit-identical to networkx's for the same seed:

    * the generator is ``_rng(seed)``, the ``random.Random`` networkx makes
      from an int seed;
    * each attempt shuffles ``list(range(n)) * degree`` stubs, pairs them
      into a set of ``(lo, hi)`` edges and retries the unpaired stubs in
      further rounds; an attempt with no suitable pair left restarts;
    * the edges come in networkx's ``G.edges()`` order after
      ``G.add_edges_from(edges)``: the set's iteration order, stably
      sorted by the lower endpoint.
    """
    if n * degree % 2 != 0:
        raise ValueError("n * degree must be even")
    if not 0 <= degree < n:
        raise ValueError("degree must be in [0, n)")
    if degree == 0:
        return Graph(n, [])
    rng = _rng(seed)

    def suitable(edges, potential_edges) -> bool:
        # False when every pair of the leftover stubs is already an edge.
        # The swap rebinds the outer s1 too, as in networkx; the restarts,
        # and so the edges, can depend on it.
        if not potential_edges:
            return True
        for s1 in potential_edges:
            for s2 in potential_edges:
                if s1 == s2:
                    break
                if s1 > s2:
                    s1, s2 = s2, s1
                if (s1, s2) not in edges:
                    return True
        return False

    def try_creation():
        edges = set()
        stubs = list(range(n)) * degree
        while stubs:
            potential_edges = defaultdict(int)
            rng.shuffle(stubs)
            stubiter = iter(stubs)
            for s1, s2 in zip(stubiter, stubiter):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    potential_edges[s1] += 1
                    potential_edges[s2] += 1
            if not suitable(edges, potential_edges):
                return None
            stubs = [
                node for node, potential in potential_edges.items() for _ in range(potential)
            ]
        return edges

    edges = try_creation()
    while edges is None:
        edges = try_creation()
    return Graph(n, sorted(edges, key=itemgetter(0)))


def erdos_renyi_graph(n: int, p: float, seed: Optional[int] = None) -> Graph:
    """An Erdős–Rényi G(n, p) random graph."""
    rng = _rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def power_law_graph(n: int, attachment: int = 2, seed: Optional[int] = None) -> Graph:
    """A Barabási–Albert style preferential-attachment graph."""
    if attachment < 1 or attachment >= n:
        raise ValueError("attachment must be in [1, n)")
    rng = _rng(seed)
    edges: List[Tuple[int, int]] = []
    targets = list(range(attachment))
    repeated: List[int] = list(range(attachment))
    for v in range(attachment, n):
        chosen = set()
        while len(chosen) < attachment:
            chosen.add(rng.choice(repeated) if repeated else rng.randrange(v))
        for w in chosen:
            edges.append((w, v))
        repeated.extend(chosen)
        repeated.extend([v] * attachment)
    del targets
    return Graph(n, edges)


def graph_with_scrambled_ids(graph: Graph, seed: Optional[int] = None, id_space_factor: int = 4) -> Graph:
    """A copy of ``graph`` whose node identifiers are a random injection into a poly(n) space.

    Used by the log*-n experiments: identifier magnitudes (not just node
    counts) drive the number of color-reduction iterations of Linial's
    algorithm.
    """
    rng = _rng(seed)
    n = graph.num_nodes
    space = max(1, n * max(1, id_space_factor))
    ids = rng.sample(range(space), n)
    edges = [graph.edge_endpoints(e) for e in graph.edges()]
    return Graph(n, edges, node_ids=ids)


def list_edge_coloring_lists(
    graph: Graph,
    slack: float = 1.0,
    color_space: Optional[int] = None,
    seed: Optional[int] = None,
) -> Tuple[List[List[int]], int]:
    """Random color lists for a (degree+1)-style list edge coloring instance.

    Each edge ``e`` receives a list of ``max(1, ceil(slack * (deg(e) + 1)))``
    distinct colors drawn from ``{0, ..., color_space - 1}``.  With
    ``slack = 1`` this is exactly a (degree+1)-list instance.  Returns the
    lists (indexed by edge) and the color-space size used.

    The color space defaults to ``2 * max_degree`` (enough for 2Δ−1
    colorings) but never smaller than the largest list.
    """
    rng = _rng(seed)
    largest_needed = 0
    sizes = []
    for e in graph.edges():
        size = max(1, int(-(-slack * (graph.edge_degree(e) + 1) // 1)))
        sizes.append(size)
        largest_needed = max(largest_needed, size)
    if color_space is None:
        color_space = max(largest_needed, 2 * max(1, graph.max_degree))
    if color_space < largest_needed:
        raise ValueError("color_space too small for the requested slack")
    lists = [sorted(rng.sample(range(color_space), sizes[e])) for e in graph.edges()]
    return lists, color_space
