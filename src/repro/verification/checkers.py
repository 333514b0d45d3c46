"""Output checkers.

Every algorithm's output can be verified independently of how it was
produced: proper vertex/edge colorings, list containment, defective
coloring defect bounds, and orientation in-degree consistency.  The
checkers return explicit violation lists so tests and benchmarks can
report *what* failed, not just that something did.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.graphs.core import Graph


def is_proper_vertex_coloring(graph: Graph, colors: Sequence[int]) -> bool:
    """Whether no edge has both endpoints of the same color."""
    for e in graph.edges():
        u, v = graph.edge_endpoints(e)
        if colors[u] == colors[v]:
            return False
    return True


def is_proper_edge_coloring(
    graph: Graph,
    colors: Dict[int, int],
    edge_set: Optional[Iterable[int]] = None,
    require_all: bool = True,
) -> bool:
    """Whether adjacent edges always have different colors.

    Args:
        graph: the host graph.
        colors: edge colors, keyed by edge index.
        edge_set: edges that must be colored (defaults to all edges).
        require_all: when true, every edge of ``edge_set`` must be colored.
    """
    edges = list(edge_set) if edge_set is not None else list(graph.edges())
    if require_all and any(e not in colors for e in edges):
        return False
    # Vectorized boolean fast path (the checker is in the timed region of
    # several benchmark outcomes): two adjacent colored edges share a
    # color iff some (endpoint, color) pair occurs twice, which one sort
    # over the composite keys detects.  Exactly equivalent to asking
    # whether the violation list below is empty; any unusual input
    # (non-int colors, huge values) falls back to the reference scan.
    from repro.core.engine import _np

    if _np is not None and len(colors) >= 256 and hasattr(graph, "endpoint_arrays_np"):
        np = _np
        try:
            ids = np.fromiter(colors.keys(), dtype=np.int64, count=len(colors))
            cvals = np.fromiter(colors.values(), dtype=np.int64, count=len(colors))
        except (TypeError, OverflowError):
            return not proper_edge_coloring_violations(graph, colors)
        uniq, code = np.unique(cvals, return_inverse=True)
        num_codes = int(uniq.size)
        if graph.num_nodes * num_codes < 2**62:
            eu_all, ev_all = graph.endpoint_arrays_np()
            keys = np.concatenate((eu_all[ids], ev_all[ids])) * num_codes + np.concatenate(
                (code, code)
            )
            keys.sort()
            return not bool((keys[1:] == keys[:-1]).any())
    return not proper_edge_coloring_violations(graph, colors)


def proper_edge_coloring_violations(
    graph: Graph, colors: Dict[int, int]
) -> List[Tuple[int, int]]:
    """Pairs of adjacent colored edges sharing a color."""
    violations: List[Tuple[int, int]] = []
    for v in graph.nodes():
        seen: Dict[int, int] = {}
        for e in graph.incident_edges(v):
            if e not in colors:
                continue
            color = colors[e]
            if color in seen:
                violations.append((seen[color], e))
            else:
                seen[color] = e
    return violations


def list_coloring_violations(
    graph: Graph,
    colors: Dict[int, int],
    lists: Dict[int, Sequence[int]],
) -> List[Tuple[str, int]]:
    """Violations of a list edge coloring: conflicts or colors outside the lists.

    Returns tuples ``("conflict", edge)`` / ``("list", edge)``.
    """
    violations: List[Tuple[str, int]] = []
    for a, b in proper_edge_coloring_violations(graph, colors):
        violations.append(("conflict", a))
        violations.append(("conflict", b))
    # One set per distinct list object (a uniform instance shares one
    # palette), keyed by id; the memo holds each object, so no id is
    # reused while it lives.
    allowed: Dict[int, Tuple[Sequence[int], Set[int]]] = {}
    for e, c in colors.items():
        if e in lists:
            options = lists[e]
            entry = allowed.get(id(options))
            if entry is None:
                entry = allowed[id(options)] = (options, set(options))
            if c not in entry[1]:
                violations.append(("list", e))
    return violations


def defective_vertex_coloring_violations(
    graph: Graph,
    classes: Sequence[int],
    max_defect: float,
) -> List[Tuple[int, int]]:
    """Nodes whose same-class degree exceeds ``max_defect``."""
    violations = []
    for v in graph.nodes():
        same = sum(1 for w in graph.neighbors(v) if classes[w] == classes[v])
        if same > max_defect + 1e-9:
            violations.append((v, same))
    return violations


def defective_edge_coloring_violations(
    graph: Graph,
    colors: Dict[int, int],
    bounds: Dict[int, float],
    edge_set: Optional[Iterable[int]] = None,
) -> List[Tuple[int, int, float]]:
    """Edges whose same-colored neighborhood exceeds their per-edge bound.

    ``bounds`` maps edge index to the allowed number of same-colored
    neighbors (Definition 5.1's right-hand side).
    """
    edges = list(edge_set) if edge_set is not None else list(colors.keys())
    per_node_color: Dict[Tuple[int, int], int] = {}
    for e in edges:
        u, v = graph.edge_endpoints(e)
        c = colors[e]
        per_node_color[(u, c)] = per_node_color.get((u, c), 0) + 1
        per_node_color[(v, c)] = per_node_color.get((v, c), 0) + 1
    violations = []
    for e in edges:
        u, v = graph.edge_endpoints(e)
        c = colors[e]
        defect = per_node_color.get((u, c), 0) + per_node_color.get((v, c), 0) - 2
        if defect > bounds[e] + 1e-9:
            violations.append((e, defect, bounds[e]))
    return violations


def is_maximal_matching(graph: Graph, matching: Iterable[int]) -> bool:
    """Whether the edge set is a matching and no edge can be added to it."""
    matched = [False] * graph.num_nodes
    for e in matching:
        u, v = graph.edge_endpoints(e)
        if matched[u] or matched[v]:
            return False
        matched[u] = True
        matched[v] = True
    for e in graph.edges():
        u, v = graph.edge_endpoints(e)
        if not matched[u] and not matched[v]:
            return False
    return True


def is_maximal_independent_set(graph: Graph, independent: Iterable[int]) -> bool:
    """Whether the node set is independent and no node can be added to it."""
    chosen = set(independent)
    for v in chosen:
        for w in graph.neighbors(v):
            if w in chosen:
                return False
    for v in graph.nodes():
        if v in chosen:
            continue
        if all(w not in chosen for w in graph.neighbors(v)):
            return False
    return True


def orientation_in_degrees(
    graph: Graph,
    orientation: Dict[int, Tuple[int, int]],
) -> List[int]:
    """In-degrees implied by an orientation (used to cross-check the algorithms' bookkeeping)."""
    x = [0] * graph.num_nodes
    for _e, (_tail, head) in orientation.items():
        x[head] += 1
    return x
