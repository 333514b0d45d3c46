"""Greedy (list) coloring scheduled by color classes.

Given a proper ``c``-coloring of the conflict graph, the classic greedy
schedule iterates over the ``c`` classes; in iteration ``i`` every edge
of class ``i`` simultaneously picks the smallest color of its list that
no already-colored neighbor uses.  Edges of the same class are never
adjacent, so the step is conflict-free; each class costs one
communication round.  A list is a color bitmask (or the default
palette), and the pick is its lowest free bit.

This is the final step of every recursion in the paper (coloring the
constant-degree or ``β/ε``-degree leftover graphs) and, combined with
Linial's O(Δ̄²)-edge coloring, it is also the classic
O(Δ² + log* n)-round baseline for (2Δ−1)-edge coloring.

Both halves ship as engine twins, chosen by :mod:`repro.core.engine`:
:func:`proper_edge_schedule` counts ``(endpoint, value)`` pairs per
evaluation point in numpy, or lays the line-graph rows out for the
python twin of :mod:`repro.coloring.color_reduction`, and
:func:`greedy_edge_coloring_by_classes` runs each schedule class as
one numpy array pass over int64 color masks or as its per-edge python
loop.
The pairs are bit-identical: same colors, in the same dict order, same
charges and same used-color masks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.coloring.color_reduction import (
    _base_q_digits,
    _values_at,
    polynomial_steps,
    reduction_schedule,
)
from repro.core import engine
from repro.core.engine import NUMPY_SCAN_THRESHOLD, _np
from repro.distributed.rounds import RoundTracker
from repro.graphs.core import Graph

#: Mean edges per non-empty schedule class from which the numpy leaf
#: engages when no engine is forced: below it the per-class numpy
#: dispatch costs more than the per-edge loop saves.
LEAF_NUMPY_EDGES_PER_CLASS = 48

#: Batch size (edges) from which :func:`proper_edge_schedule` runs its
#: numpy engine when no engine is forced: below it the numpy dispatch of
#: a reduction step costs more than the python twin's row scans.
SCHEDULE_NUMPY_EDGES = 24

#: Masks the numpy leaf handles: 62 bits, so ``avail & -avail`` and the
#: float64 bit index stay exact in int64.
_LEAF_MASK_LIMIT = 1 << 62


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


def greedy_edge_coloring_by_classes(
    graph: Graph,
    schedule: Dict[int, int],
    palette_size: Optional[int] = None,
    edge_set: Optional[Set[int]] = None,
    tracker: Optional[RoundTracker] = None,
    used_colors: Optional[UsedColorMasks] = None,
    list_masks: Optional[Dict[int, int]] = None,
) -> Dict[int, int]:
    """Greedy list edge coloring scheduled by the classes of ``schedule``.

    Only the edges in ``edge_set`` (default: all edges present in
    ``schedule``) are colored.  Colors of adjacent edges colored by
    earlier stages come in as ``used_colors``; they are treated as
    occupied but are not modified.

    The pick is the lowest free bit of the edge's list mask, or of the
    default palette: the smallest available color.  The numpy engine
    (:func:`_greedy_classes_numpy`) runs each class as one array pass;
    it serves the picks whose list masks and touched node masks fit in
    62 bits, and, when no engine is forced, only from
    :data:`LEAF_NUMPY_EDGES_PER_CLASS` edges per class on.  Everything
    else runs the per-edge loop below, its bit-identical twin.

    Args:
        graph: the host graph (edges are referenced by index).
        schedule: a proper edge coloring of the edges to color (no two
            adjacent edges of ``edge_set`` may share a schedule class).
        palette_size: size of the default palette ``{0, ...,
            palette_size - 1}`` used without ``list_masks``; defaults to
            ``2Δ − 1``.
        tracker: one round is charged per non-empty schedule class.
        used_colors: optional caller-owned :class:`UsedColorMasks` of the
            colors already used at every node (default: none).
            Availability reads the masks directly and assignments land in
            them **in place**, so callers running many greedy passes
            against one growing coloring share the state instead of
            rebuilding it per pass.  The target edges must not be
            colored yet.
        list_masks: optional per-edge color lists as bitmasks (bit ``c``
            set iff ``c`` is in the list), in place of the default palette.

    Returns the new colors, keyed by edge index, class by class and by
    edge within a class.  An edge without an available color raises
    ``ValueError`` with the classes before its own applied to
    ``used_colors``.
    """
    targets = sorted(set(schedule.keys()) if edge_set is None else set(edge_set))
    classes = list(map(schedule.__getitem__, targets))
    if palette_size is None:
        palette_size = max(1, 2 * graph.max_degree - 1)
    # An edge's blocked colors are exactly those used at its two
    # endpoints, kept as one bitmask per node (bit ``c`` set iff color
    # ``c`` is used there).
    node_masks = used_colors._masks if used_colors is not None else [0] * graph.num_nodes
    full_mask = (1 << palette_size) - 1
    if targets:
        # The leaf's per-step work is one class; scale the mean class size
        # so the shared threshold sits at the measured crossover.
        per_class = len(targets) // len(set(classes))
        if engine.use_numpy(per_class * NUMPY_SCAN_THRESHOLD // LEAF_NUMPY_EDGES_PER_CLASS):
            vectorized = _greedy_classes_numpy(
                graph, targets, classes, list_masks, full_mask, node_masks, tracker
            )
            if vectorized is not None:
                return vectorized
    result: Dict[int, int] = {}
    # Group the targets by schedule class in one pass (the per-class
    # choices are simultaneous, so the order within a class is free).
    by_class: Dict[int, List[int]] = {}
    for e, cls in zip(targets, classes):
        by_class.setdefault(cls, []).append(e)
    edge_u, edge_v = graph.endpoint_arrays()
    for cls in sorted(by_class):
        members = by_class[cls]
        round_choices: List[Tuple[int, int]] = []
        for e in members:
            available = (full_mask if list_masks is None else list_masks[e]) & ~(
                node_masks[edge_u[e]] | node_masks[edge_v[e]]
            )
            if not available:
                raise ValueError(f"edge {e} has no available color; its list/palette is too small")
            # The lowest set bit is the smallest available color.
            round_choices.append((e, (available & -available).bit_length() - 1))
        for e, c in round_choices:
            result[e] = c
            bit = 1 << c
            node_masks[edge_u[e]] |= bit
            node_masks[edge_v[e]] |= bit
        if tracker is not None:
            tracker.charge(1, "greedy-edge-classes")
    return result


def _greedy_classes_numpy(
    graph: Graph,
    targets: List[int],
    classes: List[int],
    list_masks: Optional[Dict[int, int]],
    full_mask: int,
    node_masks: List[int],
    tracker: Optional[RoundTracker],
) -> Optional[Dict[int, int]]:
    """The numpy engine of :func:`greedy_edge_coloring_by_classes`.

    A stable sort of the (sorted) targets by class keeps the twin's
    order: class, then edge.  Each class is one array pass over int64
    masks: ``avail = list_mask & ~(used[u] | used[v])``, its lowest set
    bit is the pick, and ``used[u] |= bit``, ``used[v] |= bit``.  Members
    of a class share no endpoint, so the fancy-indexed ``|=`` is exact.
    The touched nodes' masks are written back into ``node_masks``, also
    when a class fails: the error names the class's first edge (by
    index) without a color, with the earlier classes applied and the
    failing one not, as in the twin.  Returns ``None`` when a list mask,
    the palette or a touched node mask does not fit in 62 bits, or a
    class id does not fit int64.
    """
    np = _np
    k = len(targets)
    try:
        cls = np.fromiter(classes, dtype=np.int64, count=k)
        if list_masks is None:
            masks = np.full(k, full_mask, dtype=np.int64)
        else:
            masks = np.fromiter(map(list_masks.__getitem__, targets), dtype=np.int64, count=k)
    except OverflowError:
        return None
    if int(masks.max()) >= _LEAF_MASK_LIMIT or int(masks.min()) < 0:
        return None
    all_u, all_v = graph.endpoint_arrays_np()
    # A stable sort of 16-bit keys is a radix sort.
    small = int(cls.min()) >= 0 and int(cls.max()) < 1 << 16
    order = np.argsort(cls.astype(np.uint16) if small else cls, kind="stable")
    masks = masks[order]
    edges = np.fromiter(targets, dtype=np.int64, count=k)[order]
    eu = all_u[edges]
    ev = all_v[edges]
    # Compact node index over the touched nodes only.
    touched_flag = np.zeros(graph.num_nodes, dtype=bool)
    touched_flag[eu] = True
    touched_flag[ev] = True
    touched = np.flatnonzero(touched_flag).tolist()
    before = [node_masks[v] for v in touched]
    if max(before) >= _LEAF_MASK_LIMIT:
        return None
    local = np.cumsum(touched_flag) - 1
    lu = local[eu]
    lv = local[ev]
    used = np.array(before, dtype=np.int64)
    sorted_cls = cls[order]
    cuts = [0, *(np.flatnonzero(sorted_cls[1:] != sorted_cls[:-1]) + 1).tolist(), k]
    picks = np.empty(k, dtype=np.int64)
    failed = None
    applied = 0
    for start, stop in zip(cuts, cuts[1:]):
        uu = lu[start:stop]
        vv = lv[start:stop]
        available = masks[start:stop] & ~(used[uu] | used[vv])
        bits = available & -available
        if not bits.all():
            failed = start + int(np.flatnonzero(bits == 0)[0])
            break
        used[uu] |= bits
        used[vv] |= bits
        picks[start:stop] = bits
        applied += 1
    for v, mask in zip(touched, used.tolist()):
        node_masks[v] = mask
    if tracker is not None and applied:
        tracker.charge(applied, "greedy-edge-classes")
    if failed is not None:
        raise ValueError(
            f"edge {int(edges[failed])} has no available color; its list/palette is too small"
        )
    # A single set bit converts exactly to float64: frexp's exponent is
    # its index + 1.
    colors = np.frexp(picks.astype(np.float64))[1] - 1
    return dict(zip(edges.tolist(), colors.tolist()))


def _schedule_counts_numpy(
    graph: Graph,
    edge_list: List[int],
    tracker: Optional[RoundTracker],
) -> Optional[Dict[int, int]]:
    """The numpy engine of :func:`proper_edge_schedule`: no line-graph rows.

    Per step it takes the base-``q`` digits once.  Per point ``x`` it
    evaluates ``f_c(x)`` for every batch edge and counts the ``(endpoint,
    value)`` pairs in one ``bincount`` over the touched nodes × ``q``.
    Edge ``{u, v}`` with value ``f`` has ``cnt[u, f] + cnt[v, f] − 2``
    agreeing neighbors (distinct edges of a simple graph share at most
    one endpoint) and takes the first ``x`` where that is 0, as
    :func:`repro.coloring.color_reduction.polynomial_step` does.  The
    twin ignores same-colored neighbors; there are none: the endpoint-id
    colors are distinct and every step is conflict-free.

    Returns ``None``, having charged nothing, when the identifier colors
    or a step's ``(d + 1)·q²`` leave no int64 headroom, when a step's
    count table exceeds ``max(2**16, 16·k)`` entries (a star's is ≈ n²),
    or when a row finds no free point.  The python twin then runs the
    batch: its steps agree up to the declined one, so it ends with the
    same schedule and charges, or raises the same ``ValueError``.
    """
    np = _np
    k = len(edge_list)
    all_u, all_v = graph.endpoint_arrays_np()
    edges = np.fromiter(edge_list, dtype=np.int64, count=k)
    ends = np.stack((all_u[edges], all_v[edges]))
    touched = np.zeros(graph.num_nodes, dtype=bool)
    touched[ends] = True
    ids = list(map(graph.node_id, np.flatnonzero(touched).tolist()))
    id_base = max(ids) + 1
    # Headroom: the initial colors are < id_base²; overflow would corrupt
    # them silently, so bail out to the python setup first.
    if id_base >= 2**31:
        return None
    # Endpoint slots: the touched-node index of each edge's u and v.
    ends = (np.cumsum(touched) - 1)[ends]
    node_ids = np.array(ids, dtype=np.int64)[ends]
    colors = node_ids.min(axis=0) * id_base + node_ids.max(axis=0)
    cnt = np.bincount(ends.ravel())
    degree_bound = int(cnt[ends].sum(axis=0).max()) - 2
    schedule = reduction_schedule(int(colors.max()) + 1, max(1, degree_bound))
    for q, d in schedule:
        if len(ids) * q > max(1 << 16, 16 * k) or (d + 1) * q * q >= 2**62:
            return None
        digits = _base_q_digits(colors, q, d)
        slots = ends * q
        pending = np.ones(k, dtype=bool)
        reduced = np.empty_like(colors)
        for x in range(q):
            value = _values_at(digits, x, q)
            keys = value + slots
            free = (np.bincount(keys.ravel())[keys].sum(axis=0) == 2) & pending
            reduced[free] = x * q + value[free]
            pending &= ~free
            if not pending.any():
                break
        else:
            return None  # a row found no free point
        colors = reduced
    if tracker is not None and schedule:
        tracker.charge(len(schedule), "linial")
    return dict(zip(edge_list, colors.tolist()))


def proper_edge_schedule(
    graph: Graph,
    edge_set: Iterable[int],
    tracker: Optional[RoundTracker] = None,
) -> Dict[int, int]:
    """A proper O(d̄²)-coloring of the edges in ``edge_set``, usable as a greedy schedule.

    ``d̄`` is the maximum edge degree *within* ``edge_set``.  The schedule
    is computed by running Linial's algorithm on the line graph of the
    subgraph induced by ``edge_set`` (O(log* n) charged rounds), without
    building it.  The numpy engine (:func:`_schedule_counts_numpy`) needs
    no rows: it counts ``(endpoint, value)`` pairs per evaluation point.
    The python twin lays the rows out as CSR and runs
    :func:`repro.coloring.color_reduction.polynomial_steps` over them.
    When no engine is forced, the numpy engine serves batches from
    :data:`SCHEDULE_NUMPY_EDGES` edges on.  Both produce bit-identical
    schedules and charges.
    """
    edge_list = sorted(set(edge_set))
    if not edge_list:
        return {}
    # Scale the batch so the shared threshold sits at the measured crossover.
    if engine.use_numpy(len(edge_list) * NUMPY_SCAN_THRESHOLD // SCHEDULE_NUMPY_EDGES):
        # ``None``: the engine declined the batch; the python twin runs it.
        counted = _schedule_counts_numpy(graph, edge_list, tracker)
        if counted is not None:
            return counted
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
    # Merged line-graph rows (each position's adjacent positions) as
    # CSR, built once and reused by every reduction step.
    offsets = [0]
    flat: List[int] = []
    for position, (u, v) in enumerate(endpoints):
        flat += [j for j in incident[u] if j != position]
        flat += [j for j in incident[v] if j != position]
        offsets.append(len(flat))
    colors = polynomial_steps(colors, offsets, flat, schedule, tracker)
    return {edge_list[position]: colors[position] for position in range(len(edge_list))}
