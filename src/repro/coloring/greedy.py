"""Greedy (list) coloring scheduled by color classes.

Given a proper ``c``-coloring of the conflict graph, the classic greedy
schedule iterates over the ``c`` classes; in iteration ``i`` every vertex
(or edge) of class ``i`` simultaneously picks the smallest color of its
list that no already-colored neighbor uses.  Nodes of the same class are
never adjacent, so the step is conflict-free; each class costs one
communication round.

This is the final step of every recursion in the paper (coloring the
constant-degree or ``β/ε``-degree leftover graphs) and, combined with
Linial's O(Δ̄²)-edge coloring, it is also the classic
O(Δ² + log* n)-round baseline for (2Δ−1)-edge coloring.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.coloring.color_reduction import polynomial_step, reduction_schedule, shared_eval_cache
from repro.core.engine import _np, resolve_use_numpy
from repro.distributed.rounds import RoundTracker
from repro.graphs.core import Graph


class UsedColorMasks:
    """Shareable, updatable per-node used-color bitmask state.

    One integer per node; bit ``c`` is set iff some incident edge uses
    color ``c``.  In a *proper* edge coloring the incident colors of a
    node are pairwise distinct, so presence bits are exact state: an
    assignment sets one bit at each endpoint — no reference counting is
    ever needed.

    This is the availability state the greedy passes used to build
    internally and discard per call, extracted so a caller can own and
    maintain *one* object across passes:
    :func:`repro.core.list_edge_coloring.list_edge_coloring` owns one for
    the whole solve and hands it to every greedy pass as its
    ``used_colors`` state (shared, never rebuilt).  The inconsistency
    check in :meth:`assign` is deliberate: it turns state-corruption bugs
    into immediate errors instead of silently improper colorings.
    """

    __slots__ = ("_masks",)

    def __init__(self, num_nodes: int) -> None:
        self._masks: List[int] = [0] * num_nodes

    @classmethod
    def from_edge_coloring(cls, graph: Graph, colors: Dict[int, int]) -> "UsedColorMasks":
        """Masks for an existing proper coloring keyed by edge index."""
        state = cls(graph.num_nodes)
        edge_u, edge_v = graph.endpoint_arrays()
        for e, c in colors.items():
            state.assign(edge_u[e], edge_v[e], c)
        return state

    @property
    def num_nodes(self) -> int:
        return len(self._masks)

    def mask(self, v: int) -> int:
        """The used-color bitmask of node ``v``."""
        return self._masks[v]

    def assign(self, u: int, v: int, color: int) -> None:
        """Record the edge ``{u, v}`` taking ``color`` (both endpoints)."""
        bit = 1 << color
        masks = self._masks
        if (masks[u] | masks[v]) & bit:
            raise ValueError(
                f"color {color} already used at an endpoint of ({u}, {v}); "
                "the maintained coloring would no longer be proper"
            )
        masks[u] |= bit
        masks[v] |= bit


def greedy_vertex_coloring_by_classes(
    graph: Graph,
    schedule: Sequence[int],
    lists: Optional[Sequence[Sequence[int]]] = None,
    palette_size: Optional[int] = None,
    tracker: Optional[RoundTracker] = None,
) -> List[int]:
    """Greedy vertex coloring scheduled by the classes of ``schedule``.

    Args:
        graph: the graph to color.
        schedule: a proper coloring of ``graph`` used as the schedule.
        lists: optional per-node color lists; defaults to
            ``{0, ..., palette_size - 1}``.
        palette_size: size of the default palette; defaults to Δ + 1.
        tracker: one round is charged per non-empty schedule class.

    Returns the chosen colors, indexed by node.
    """
    if palette_size is None:
        palette_size = graph.max_degree + 1
    colors: List[Optional[int]] = [None] * graph.num_nodes
    classes = sorted(set(schedule))
    for cls in classes:
        members = [v for v in graph.nodes() if schedule[v] == cls]
        if not members:
            continue
        for v in members:
            used = {colors[w] for w in graph.neighbors(v) if colors[w] is not None}
            candidates: Iterable[int] = lists[v] if lists is not None else range(palette_size)
            choice = next((c for c in candidates if c not in used), None)
            if choice is None:
                raise ValueError(f"node {v} has no available color; its list/palette is too small")
            colors[v] = choice
        if tracker is not None:
            tracker.charge(1, "greedy-classes")
    return [c if c is not None else 0 for c in colors]


def greedy_edge_coloring_by_classes(
    graph: Graph,
    schedule: Dict[int, int],
    lists: Optional[Dict[int, Sequence[int]]] = None,
    palette_size: Optional[int] = None,
    edge_set: Optional[Set[int]] = None,
    existing_colors: Optional[Dict[int, int]] = None,
    tracker: Optional[RoundTracker] = None,
    used_colors: Optional[UsedColorMasks] = None,
    list_masks: Optional[Dict[int, int]] = None,
) -> Dict[int, int]:
    """Greedy list edge coloring scheduled by the classes of ``schedule``.

    Only the edges in ``edge_set`` (default: all edges present in
    ``schedule``) are colored.  ``existing_colors`` are colors of adjacent
    edges colored by earlier stages; they are treated as occupied but are
    not modified.

    The pick is the smallest available color: from ``list_masks``, or from
    the default palette.  ``lists`` are scanned in list order, which is the
    same pick on sorted lists.

    Args:
        graph: the host graph (edges are referenced by index).
        schedule: a proper edge coloring of the edges to color (no two
            adjacent edges of ``edge_set`` may share a schedule class).
        lists: optional per-edge color lists; default palette is
            ``{0, ..., palette_size - 1}`` with ``palette_size`` defaulting
            to ``2Δ − 1``.
        tracker: one round is charged per non-empty schedule class.
        used_colors: optional caller-owned :class:`UsedColorMasks`,
            exactly reflecting ``existing_colors`` (which is then not
            read).  Availability reads the masks directly and assignments
            land in them **in place**, so callers running many greedy
            passes against one growing coloring share the state instead
            of rebuilding it per pass.  Requires that no target edge is
            already colored — presence-only state cannot express
            re-coloring over an existing entry.
        list_masks: optional per-edge color lists as bitmasks (bit ``c``
            set iff ``c`` is in the list), in place of ``lists``.

    Returns the new colors, keyed by edge index.
    """
    if lists is not None and list_masks is not None:
        raise ValueError("pass lists or list_masks, not both")
    targets = set(schedule.keys()) if edge_set is None else set(edge_set)
    if palette_size is None:
        palette_size = max(1, 2 * graph.max_degree - 1)
    result: Dict[int, int] = {}
    # Group the targets by schedule class in one pass (the per-class
    # choices are simultaneous, so the order within a class is free).
    by_class: Dict[int, List[int]] = {}
    for e in sorted(targets):
        by_class.setdefault(schedule[e], []).append(e)
    edge_u, edge_v = graph.endpoint_arrays()
    # An edge's blocked colors are exactly those used at its two
    # endpoints, kept as one bitmask per node (bit ``c`` set iff color
    # ``c`` is used there).  Three sources for those masks:
    #
    # * the caller-owned ``used_colors`` state, read and updated in place;
    # * internal masks, when no target edge is colored yet — zero for
    #   every node, plus the pre-existing colors at the target endpoints;
    # * none: when some target edge is already colored, the (always
    #   exact) per-edge scan over the precomputed line-graph rows.
    node_masks: Optional[List[int]]
    if used_colors is not None:
        if existing_colors and any(e in existing_colors for e in targets):
            raise ValueError(
                "used_colors requires that no target edge is already colored"
            )
        node_masks = used_colors._masks
    else:
        colored = dict(existing_colors) if existing_colors else {}
        if any(e in colored for e in targets):
            node_masks = None
            offsets, flat = graph.edge_adjacency_csr()
        else:
            node_masks = [0] * graph.num_nodes
            if colored:
                xadj, inc = graph.incidence_csr()
                for node in {edge_u[e] for e in targets} | {edge_v[e] for e in targets}:
                    mask = 0
                    for f in inc[xadj[node] : xadj[node + 1]]:
                        color = colored.get(f)
                        if color is not None:
                            mask |= 1 << color
                    node_masks[node] = mask
    full_mask = (1 << palette_size) - 1
    for cls in sorted(by_class):
        members = by_class[cls]
        round_choices: List[Tuple[int, int]] = []
        for e in members:
            if node_masks is not None:
                blocked = node_masks[edge_u[e]] | node_masks[edge_v[e]]
            else:
                blocked = 0
                for f in flat[offsets[e] : offsets[e + 1]]:
                    color = colored.get(f)
                    if color is not None:
                        blocked |= 1 << color
            if lists is None:
                available = (
                    list_masks[e] if list_masks is not None else full_mask
                ) & ~blocked
                # The lowest set bit is the smallest available color.
                choice = (available & -available).bit_length() - 1 if available else None
            else:
                choice = next((c for c in lists[e] if not (blocked >> c) & 1), None)
            if choice is None:
                raise ValueError(f"edge {e} has no available color; its list/palette is too small")
            round_choices.append((e, choice))
        for e, c in round_choices:
            result[e] = c
            if node_masks is not None:
                bit = 1 << c
                node_masks[edge_u[e]] |= bit
                node_masks[edge_v[e]] |= bit
            else:
                colored[e] = c
        if tracker is not None:
            tracker.charge(1, "greedy-edge-classes")
    return result


def _linial_rows_python(
    colors: List[int],
    rows: List[List[int]],
    schedule: Sequence[tuple],
    tracker: Optional[RoundTracker],
) -> List[int]:
    """Reference engine for the line-graph Linial steps (one position per edge)."""
    for q, d in schedule:
        cache = shared_eval_cache(q, d)
        new_colors: List[int] = []
        for position, row in enumerate(rows):
            new_colors.append(
                polynomial_step(colors[position], [colors[j] for j in row], q, d, cache)
            )
        colors = new_colors
        if tracker is not None:
            tracker.charge(1, "linial")
    return colors


def _linial_flat_numpy(
    colors_np: "Any",
    flat: "Any",
    counts: "Any",
    schedule: Sequence[tuple],
    tracker: Optional[RoundTracker],
) -> List[int]:
    """Vectorized Linial steps over CSR rows (bit-identical to the reference).

    ``flat`` holds the concatenated per-position neighbor positions,
    ``counts`` the row lengths.  Per reduction step, the polynomial
    values of *all* positions at the candidate point ``x`` are evaluated
    in one base-q digit sweep (exact ``int64`` arithmetic — the same
    ``%``/``//``/modmul chain as :func:`repro.coloring.color_reduction.
    polynomial_value`), and the per-position conflict checks collapse to
    one segmented comparison over the flattened rows.  Every position
    picks the same smallest conflict-free ``x`` the reference engine
    picks.
    """
    np = _np
    num = int(colors_np.shape[0])
    offsets = np.zeros(num + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    nonempty = counts > 0
    nonempty_offsets = offsets[:-1][nonempty]
    has_rows = bool(nonempty.any())
    for q, d in schedule:
        # Base-q digits, decomposed once per step; a value at ``x`` is
        # then one multiply-add sweep.  Digits and powers are < q, so the
        # unreduced sum stays far inside int64 and one final ``% q``
        # matches the reference's iterative modular chain exactly.
        digits = []
        remaining = colors_np.copy()
        for _ in range(d + 1):
            digits.append(remaining % q)
            remaining //= q
        result = np.empty(num, dtype=np.int64)
        unresolved = np.arange(num, dtype=np.int64)
        for x in range(q):
            # Once only a few stragglers remain, per-position rescans are
            # cheaper than further full-width sweeps; polynomial_step
            # picks the same smallest conflict-free point.
            if unresolved.size * 16 < num and x >= 2:
                break
            value = digits[0].copy()
            power = 1
            for i in range(1, d + 1):
                power = (power * x) % q
                np.add(value, digits[i] * power, out=value)
            value %= q
            # Positions whose value collides with a row neighbor's value.
            conflicted = np.zeros(num, dtype=bool)
            if has_rows:
                eq = value[flat] == np.repeat(value, counts)
                conflicted[nonempty] = np.add.reduceat(eq, nonempty_offsets) > 0
            free = unresolved[~conflicted[unresolved]]
            result[free] = x * q + value[free]
            unresolved = unresolved[conflicted[unresolved]]
            if not unresolved.size:
                break
        if unresolved.size:
            cache = shared_eval_cache(q, d)
            colors_list = colors_np.tolist()
            flat_list = flat.tolist()
            offsets_list = offsets.tolist()
            for p in unresolved.tolist():
                row = flat_list[offsets_list[p] : offsets_list[p + 1]]
                result[p] = polynomial_step(
                    colors_list[p], [colors_list[j] for j in row], q, d, cache
                )
        colors_np = result
        if tracker is not None:
            tracker.charge(1, "linial")
    return colors_np.tolist()


def _schedule_setup_numpy(
    graph: Graph,
    edge_list: List[int],
    tracker: Optional[RoundTracker],
) -> Optional[Dict[int, int]]:
    """Vectorized setup + engine run for :func:`proper_edge_schedule`.

    Replaces the per-part python setup loops — endpoint gathering, the
    per-node incident maps, the initial identifier colors and the merged
    line-graph row building — with array passes over the part: incident
    counts come from one ``bincount``, the grouped position lists from
    one stable argsort, and the per-position rows (each position's
    same-endpoint peers) from ramp-indexed gathers that drop the
    position itself.  Row *order* differs from the python construction
    (u-side peers are grouped by discovery side, not by insertion), but
    the engines are order-insensitive — conflicts are existence checks
    and :func:`polynomial_step` reduces rows to sets — so the schedule
    is bit-identical.  Returns ``None`` when the int64 headroom guards
    trip (huge identifier spaces fall back to the python setup and its
    arbitrary-precision engine).
    """
    np = _np
    k = len(edge_list)
    ids_np = np.fromiter(edge_list, dtype=np.int64, count=k)
    all_u, all_v = graph.endpoint_arrays_np()
    eu = all_u[ids_np]
    ev = all_v[ids_np]
    try:
        node_ids_np = np.asarray(graph.node_ids, dtype=np.int64)
    except OverflowError:
        return None
    a = node_ids_np[eu]
    b = node_ids_np[ev]
    low = np.minimum(a, b)
    high = np.maximum(a, b)
    id_base = int(high.max()) + 1
    # Headroom: the initial colors are < id_base²; overflow would corrupt
    # them silently, so bail out to the python setup first.
    if id_base >= 2**31:
        return None
    colors_np = low * id_base + high
    space = int(colors_np.max()) + 1
    cnt = np.bincount(np.concatenate((eu, ev)), minlength=graph.num_nodes)
    degree_bound = int((cnt[eu] + cnt[ev] - 2).max())
    schedule = reduction_schedule(space, max(1, degree_bound))
    if not schedule:
        return dict(zip(edge_list, colors_np.tolist()))
    if max((d + 1) * q * q for q, d in schedule) >= 2**62:
        return None
    # Incident CSR over the part: positions grouped by endpoint node.
    pos = np.arange(k, dtype=np.int64)
    pos_cat = np.concatenate((pos, pos))
    order = np.argsort(np.concatenate((eu, ev)), kind="stable")
    inc_pos = pos_cat[order]
    inc_xadj = np.zeros(cnt.shape[0] + 1, dtype=np.int64)
    np.cumsum(cnt, out=inc_xadj[1:])

    def side_peers(side_nodes):
        """Per position: its endpoint's full group minus the position itself."""
        group_sizes = cnt[side_nodes]
        total = int(group_sizes.sum())
        cum = np.cumsum(group_sizes)
        ramp = (
            np.arange(total, dtype=np.int64)
            - np.repeat(cum - group_sizes, group_sizes)
            + np.repeat(inc_xadj[side_nodes], group_sizes)
        )
        values = inc_pos[ramp]
        return values[values != np.repeat(pos, group_sizes)]

    flat_u = side_peers(eu)
    flat_v = side_peers(ev)
    counts_u = cnt[eu] - 1
    counts_v = cnt[ev] - 1
    counts = counts_u + counts_v
    flat = np.empty(int(counts.sum()), dtype=np.int64)
    starts = np.zeros(k, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])

    def scatter(side_flat, side_counts, side_starts):
        total = int(side_counts.sum())
        if not total:
            return
        cum = np.cumsum(side_counts)
        ramp = (
            np.arange(total, dtype=np.int64)
            - np.repeat(cum - side_counts, side_counts)
            + np.repeat(side_starts, side_counts)
        )
        flat[ramp] = side_flat

    scatter(flat_u, counts_u, starts)
    scatter(flat_v, counts_v, starts + counts_u)
    colors = _linial_flat_numpy(colors_np, flat, counts, schedule, tracker)
    return dict(zip(edge_list, colors))


def proper_edge_schedule(
    graph: Graph,
    edge_set: Iterable[int],
    tracker: Optional[RoundTracker] = None,
    scan_path: str = "auto",
) -> Dict[int, int]:
    """A proper O(d̄²)-coloring of the edges in ``edge_set``, usable as a greedy schedule.

    ``d̄`` is the maximum edge degree *within* ``edge_set``.  The schedule
    is computed by running Linial's algorithm on the line graph of the
    subgraph induced by ``edge_set`` (O(log* n) charged rounds).
    ``scan_path`` selects the reduction-step engine exactly like the
    orientation knob (``"auto"`` / ``"numpy"`` / ``"python"``); both
    engines produce bit-identical schedules.
    """
    edge_list = sorted(set(edge_set))
    if not edge_list:
        return {}
    if len(edge_list) == 1:
        # One edge: its line graph is a single node with no neighbors, so
        # every reduction step picks evaluation point 0 and the new color
        # is f_c(0) = c mod q.
        e = edge_list[0]
        u, v = graph.edge_endpoints(e)
        a = graph.node_id(u)
        b = graph.node_id(v)
        if a > b:
            a, b = b, a
        color = a * (max(a, b) + 1) + b
        for q, _d in reduction_schedule(color + 1, 1):
            color %= q
            if tracker is not None:
                tracker.charge(1, "linial")
        return {e: color}
    # A reduction step sweeps both endpoint rows of every position, so
    # the per-step element count is ~2m, not m — the measured numpy
    # crossover sits near 64 edges, half the shared threshold.
    if resolve_use_numpy(scan_path, 2 * len(edge_list)) and hasattr(
        graph, "endpoint_arrays_np"
    ):
        # Vectorized setup + engine: the per-part incident maps and row
        # building collapse to array passes (see _schedule_setup_numpy);
        # ``None`` means a headroom guard tripped — fall through to the
        # python setup and engine below.
        vectorized = _schedule_setup_numpy(graph, edge_list, tracker)
        if vectorized is not None:
            return vectorized
    # Run Linial on the line graph of the edge subset without
    # materializing it: line node ``i`` is ``edge_list[i]``; its
    # identifier is the edge identifier the induced subgraph would
    # assign (endpoint-id pair over the subset's id base); its neighbors
    # are the other positions sharing an endpoint — read off the per-node
    # position rows, so neither the line edges nor a Graph are built.
    all_u, all_v = graph.endpoint_arrays()
    endpoints = [(all_u[e], all_v[e]) for e in edge_list]
    incident: Dict[int, List[int]] = {}
    for position, (u, v) in enumerate(endpoints):
        incident.setdefault(u, []).append(position)
        incident.setdefault(v, []).append(position)
    node_ids = graph.node_ids
    id_base = max(node_ids[v] for v in incident) + 1
    colors: List[int] = []
    for u, v in endpoints:
        a = node_ids[u]
        b = node_ids[v]
        if a > b:
            a, b = b, a
        colors.append(a * id_base + b)
    space = max(colors) + 1
    degree_bound = 0
    for u, v in endpoints:
        d = len(incident[u]) + len(incident[v]) - 2
        if d > degree_bound:
            degree_bound = d
    schedule = reduction_schedule(space, max(1, degree_bound))
    if not schedule:
        # The identifier colors are already minimal: no rows needed.
        return {edge_list[position]: colors[position] for position in range(len(edge_list))}
    # Merged line-graph rows (each position's adjacent positions),
    # built once and reused by every reduction step.
    rows: List[List[int]] = []
    for position, (u, v) in enumerate(endpoints):
        row = [j for j in incident[u] if j != position]
        row.extend(j for j in incident[v] if j != position)
        rows.append(row)
    colors = _linial_rows_python(colors, rows, schedule, tracker)
    return {edge_list[position]: colors[position] for position in range(len(edge_list))}

