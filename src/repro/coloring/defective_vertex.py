"""Defective vertex colorings.

The CONGEST algorithm (Theorem 6.3) and the LOCAL list-coloring algorithm
(Theorem D.4) both start every recursion level with a defective vertex
coloring with O(1) colors whose monochromatic degree is roughly Δ/2
(Lemma 6.2, which the paper obtains from the Refine procedure of
Barenboim–Elkin–Kuhn [11]).

This module implements a two-step substitute for Lemma 6.2:

1. :func:`polynomial_defective_reduction` — the one-round defective color
   reduction (Kuhn-style weak coloring): from a proper O(Δ²)-coloring it
   produces a ``p``-defective O((Δ·t/p)²)-coloring, ``t`` a small constant.
2. :func:`defective_coloring_local_search` — a deterministic
   conflict-minimizing refinement down to a constant number of classes.
   Nodes switch classes only when that reduces their monochromatic degree
   by more than ``slack``, and only when they are local identifier minima
   among switching candidates, so concurrent switches never interact and
   the number of monochromatic edges strictly decreases.  At termination
   every node has at most ``deg(v)/num_classes + slack`` neighbors in its
   own class — for 4 classes and ``slack = εΔ`` this is stronger than the
   (εΔ + ⌊Δ/2⌋)-defect of Lemma 6.2.

:func:`defective_split_coloring` packages the two steps behind the
interface the higher-level algorithms need.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.coloring.color_reduction import (
    min_conflict_step_numpy,
    minimum_conflict_step,
    next_prime,
    shared_eval_cache,
    sweep_rows,
)
from repro.core import engine
from repro.core.engine import _np
from repro.distributed.rounds import RoundTracker
from repro.graphs.core import Graph


def polynomial_defective_reduction(
    graph: Graph,
    colors: Sequence[int],
    num_colors: int,
    target_defect: int,
    tracker: Optional[RoundTracker] = None,
) -> Tuple[List[int], int, int]:
    """One-round defective color reduction.

    Given a *proper* ``num_colors``-coloring, every node re-colors itself
    with the pair ``(x, f_c(x))`` for the evaluation point ``x`` with the
    fewest agreeing neighbors.  Two distinct polynomials of degree ≤ t
    agree on ≤ t points, so the chosen point has at most ``Δ·t/q``
    conflicts; with ``q ≥ ceil(Δ·t / max(1, target_defect))`` the result is
    ``target_defect``-defective.

    The step runs as the per-node :func:`minimum_conflict_step` loop or
    the numpy sweep's min-conflict consumer (bit-identical twins; see
    :mod:`repro.core.engine`).

    Returns ``(new_colors, new_num_colors, guaranteed_defect)``.
    """
    delta = graph.max_degree
    if delta == 0 or graph.num_nodes == 0:
        return list(colors), num_colors, 0
    target = max(1, target_defect)
    # Choose the polynomial degree t, then the field size q.
    q = next_prime(max(2, math.ceil(delta / target) + 1))
    t = max(1, math.ceil(math.log(max(2, num_colors), q)) )
    while q ** (t + 1) < num_colors or q < math.ceil(delta * t / target) + 1:
        q = next_prime(q + 1)
        t = max(1, math.ceil(math.log(max(2, num_colors), q)))
    xadj, adj = graph.adjacency_csr()
    reduced = None
    if engine.use_numpy(graph.num_nodes):
        np = _np
        rows = sweep_rows(
            np.arange(graph.num_nodes, dtype=np.int64),
            np.asarray(adj, dtype=np.int64),
            np.asarray(xadj, dtype=np.int64),
        )
        reduced = min_conflict_step_numpy(colors, rows, q, t)
    if reduced is not None:
        new_colors = reduced.tolist()
    else:
        new_colors = []
        cache = shared_eval_cache(q, t)
        for v in graph.nodes():
            neighbor_colors = [colors[w] for w in adj[xadj[v] : xadj[v + 1]]]
            new_color, _conflicts = minimum_conflict_step(
                colors[v], neighbor_colors, q, t, cache
            )
            new_colors.append(new_color)
    if tracker is not None:
        tracker.charge(1, "defective-poly-reduction")
    guaranteed = math.floor(delta * t / q)
    return new_colors, q * q, guaranteed


def _local_search_rounds_numpy(
    classes: List[int],
    node_ids: Sequence[int],
    xadj: Sequence[int],
    adj: Sequence[int],
    num_classes: int,
    slack: int,
    max_rounds: int,
    tracker: Optional[RoundTracker],
) -> Optional[Tuple[List[int], int]]:
    """Vectorized twin of the per-node local-search round loop.

    Per round, the class-load histograms live in one ``n × k`` count
    matrix (maintained incrementally by scattered adds over the
    switchers' CSR rows), unhappy detection is one masked comparison
    against the row minima (``argmin`` keeps the *first* least-loaded
    class, exactly like the reference scan), and the local-minimum
    selection is a segmented ``minimum.reduceat`` over the unhappy
    neighbors' identifiers.  Switching nodes are never adjacent, so the
    reference's sequential count updates commute and the batched scatter
    reproduces them exactly.  Returns ``None`` when identifiers exceed
    the int64 headroom (the caller falls back to the reference).
    """
    np = _np
    n = len(classes)
    try:
        ids = np.asarray(node_ids, dtype=np.int64)
    except OverflowError:
        return None
    xadj_np = np.asarray(xadj, dtype=np.int64)
    adj_np = np.asarray(adj, dtype=np.int64)
    degs = np.diff(xadj_np)
    nonempty = degs > 0
    offsets = xadj_np[:-1][nonempty]
    cls = np.asarray(classes, dtype=np.int64)
    counts = np.zeros((n, num_classes), dtype=np.int64)
    if adj_np.size:
        np.add.at(counts, (np.repeat(np.arange(n), degs), cls[adj_np]), 1)
    arange_n = np.arange(n)
    big = np.iinfo(np.int64).max
    rounds = 0
    for _ in range(max_rounds):
        current = counts[arange_n, cls]
        best_count = counts.min(axis=1)
        best_class = counts.argmin(axis=1)
        unhappy = (current - best_count) > slack
        rounds += 1
        if tracker is not None:
            tracker.charge(1, "defective-local-search")
        if not unhappy.any():
            break
        unhappy_ids = np.where(unhappy, ids, big)
        min_neighbor = np.full(n, big, dtype=np.int64)
        if adj_np.size:
            min_neighbor[nonempty] = np.minimum.reduceat(unhappy_ids[adj_np], offsets)
        switchers = unhappy & (ids < min_neighbor)
        if not switchers.any():  # pragma: no cover - a global id-minimum always switches
            break
        sw = np.nonzero(switchers)[0]
        old = cls[sw]
        new = best_class[sw].astype(np.int64)
        row_lens = degs[sw]
        total = int(row_lens.sum())
        if total:
            # Flat indices of the switchers' adjacency rows.
            cum = np.cumsum(row_lens)
            flat = (
                np.arange(total)
                - np.repeat(cum - row_lens, row_lens)
                + np.repeat(xadj_np[sw], row_lens)
            )
            neighbors = adj_np[flat]
            np.add.at(counts, (neighbors, np.repeat(old, row_lens)), -1)
            np.add.at(counts, (neighbors, np.repeat(new, row_lens)), 1)
        cls[sw] = new
    return cls.tolist(), rounds


def defective_coloring_local_search(
    graph: Graph,
    num_classes: int,
    slack: int,
    initial_classes: Optional[Sequence[int]] = None,
    tracker: Optional[RoundTracker] = None,
    max_rounds: Optional[int] = None,
) -> Tuple[List[int], int]:
    """Deterministic local-search defective coloring with ``num_classes`` classes.

    A node is *unhappy* when moving to its least-loaded class would reduce
    its monochromatic degree by more than ``slack``.  In every round, all
    unhappy nodes that are local minima (by identifier) among unhappy
    nodes switch simultaneously; switching nodes are never adjacent, so
    each switch reduces the number of monochromatic edges by more than
    ``slack`` / 2 ≥ 1 and the process terminates.

    At termination every node ``v`` has at most
    ``deg(v) / num_classes + slack`` neighbors in its own class.

    The rounds run as a per-node reference loop or its vectorized twin
    (bit-identical classes *and* round counts; see
    :mod:`repro.core.engine`).

    Returns ``(classes, rounds_used)``.
    """
    if num_classes < 2:
        raise ValueError("need at least two classes")
    slack = max(1, slack)
    n = graph.num_nodes
    if initial_classes is None:
        classes = [graph.node_id(v) % num_classes for v in graph.nodes()]
    else:
        classes = [c % num_classes for c in initial_classes]
    if max_rounds is None:
        max_rounds = max(16, 4 * graph.num_edges // slack + 16)
    rounds = 0
    xadj, adj = graph.adjacency_csr()
    if engine.use_numpy(len(adj)):
        vectorized = _local_search_rounds_numpy(
            classes,
            graph.node_ids,
            xadj,
            adj,
            num_classes,
            slack,
            max_rounds,
            tracker,
        )
        if vectorized is not None:
            return vectorized
    class_range = range(num_classes)
    # Per-node neighbor-class counts, built once and maintained
    # incrementally: a switch of node ``v`` only changes the rows of
    # ``v``'s neighbors, so later rounds (with few switches) avoid the
    # full O(m) recount.
    counts: List[List[int]] = [[0] * num_classes for _ in range(n)]
    for v in range(n):
        for w in adj[xadj[v] : xadj[v + 1]]:
            counts[v][classes[w]] += 1
    for _ in range(max_rounds):
        unhappy: Dict[int, int] = {}
        for v in range(n):
            row = counts[v]
            current = row[classes[v]]
            best_class = 0
            best_count = row[0]
            for c in class_range:
                if row[c] < best_count:
                    best_count = row[c]
                    best_class = c
            if current - best_count > slack:
                unhappy[v] = best_class
        rounds += 1
        if tracker is not None:
            tracker.charge(1, "defective-local-search")
        if not unhappy:
            break
        switched = False
        for v, target in unhappy.items():
            if all(
                w not in unhappy or graph.node_id(v) < graph.node_id(w)
                for w in adj[xadj[v] : xadj[v + 1]]
            ):
                old = classes[v]
                classes[v] = target
                switched = True
                for w in adj[xadj[v] : xadj[v + 1]]:
                    row = counts[w]
                    row[old] -= 1
                    row[target] += 1
        if not switched:  # pragma: no cover - cannot happen: a global id-minimum always switches
            break
    return classes, rounds


def defective_split_coloring(
    graph: Graph,
    num_classes: int,
    epsilon: float,
    proper_coloring: Optional[Sequence[int]] = None,
    proper_num_colors: Optional[int] = None,
    tracker: Optional[RoundTracker] = None,
) -> Tuple[List[int], int]:
    """A ``num_classes``-class defective coloring with defect ≤ deg(v)/num_classes + εΔ.

    This is the Lemma 6.2 substitute (see the module docstring): a one-round
    polynomial defective reduction seeded by the proper coloring (when one
    is supplied), followed by the local-search refinement.  The measured
    defect is strictly below the (εΔ + ⌊Δ/2⌋) bound Lemma 6.2 promises for
    4 classes.

    Returns ``(classes, max_monochromatic_degree)``.
    """
    delta = graph.max_degree
    slack = max(1, math.ceil(epsilon * max(1, delta)))
    initial: Optional[Sequence[int]] = None
    if proper_coloring is not None and delta > 0:
        reduced, _count, _defect = polynomial_defective_reduction(
            graph,
            proper_coloring,
            proper_num_colors if proper_num_colors is not None else max(proper_coloring) + 1,
            target_defect=slack,
            tracker=tracker,
        )
        initial = reduced
    classes, _rounds = defective_coloring_local_search(
        graph,
        num_classes=num_classes,
        slack=slack,
        initial_classes=initial,
        tracker=tracker,
    )
    defect = monochromatic_degree(graph, classes)
    return classes, defect


def monochromatic_degree(graph: Graph, classes: Sequence[int]) -> int:
    """The maximum number of same-class neighbors over all nodes.

    Counted by a per-node scan or by one segmented comparison over the
    CSR adjacency (bit-identical — the result is an int).
    """
    xadj, adj = graph.adjacency_csr()
    if engine.use_numpy(len(adj)) and adj:
        np = _np
        xadj_np = np.asarray(xadj, dtype=np.int64)
        adj_np = np.asarray(adj, dtype=np.int64)
        degs = np.diff(xadj_np)
        nonempty = degs > 0
        cls = np.asarray(classes, dtype=np.int64)
        same = cls[adj_np] == np.repeat(cls, degs)
        if not nonempty.any():
            return 0
        # reduceat on bools would OR, not count — sum int64 instead.
        per_node = np.add.reduceat(same.astype(np.int64), xadj_np[:-1][nonempty])
        return int(per_node.max(initial=0))
    worst = 0
    for v in graph.nodes():
        own = classes[v]
        same = 0
        for w in adj[xadj[v] : xadj[v + 1]]:
            if classes[w] == own:
                same += 1
        if same > worst:
            worst = same
    return worst
