"""Barenboim–Elkin style O(Δ^ε)-time O(Δ)-edge coloring baseline.

Reproduces the trade-off of [8] that the paper improves on: split the
edges into ``q ≈ Δ̄^(1−ε)`` classes with a defective edge coloring (so each
class has edge degree about Δ̄^ε), then color the classes in parallel with
disjoint palettes.  The number of colors is ``q · (max class degree + 1)``
— a constant-factor blow-up over 2Δ−1 that grows as ε shrinks — and the
round count is dominated by the O(Δ̄^ε)-degree greedy coloring of the
classes, reproducing the O(Δ^ε + log* n) versus 2^{O(1/ε)}·Δ trade-off
shape of [8].

The defective split is computed with the same deterministic machinery as
the rest of the repository (a defective vertex coloring of the line
graph), so the baseline is deterministic as in the original paper.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.baselines.greedy_by_classes import BaselineResult
from repro.coloring.defective_vertex import defective_coloring_local_search
from repro.coloring.greedy import greedy_edge_coloring_by_classes, proper_edge_schedule
from repro.distributed.rounds import RoundTracker
from repro.graphs.core import Graph, degrees_within


def barenboim_elkin_edge_coloring(
    graph: Graph,
    epsilon: float = 0.5,
    tracker: Optional[RoundTracker] = None,
    scan_path: str = "auto",
) -> BaselineResult:
    """An O(Δ)-edge coloring with the Barenboim–Elkin time/colors trade-off.

    Args:
        graph: the input graph.
        epsilon: trade-off parameter in (0, 1]; smaller values mean fewer
            rounds per class but more classes (and therefore more colors).
        tracker: optional round tracker.
        scan_path: engine of the defective split and the per-class
            schedules and greedy passes (see :mod:`repro.core.engine`).
    """
    if not (0.0 < epsilon <= 1.0):
        raise ValueError("epsilon must be in (0, 1]")
    own = RoundTracker()
    if graph.num_edges == 0:
        return BaselineResult(colors={}, num_colors=0, bound=0, rounds=0, algorithm="barenboim-elkin")

    bar_delta = max(1, graph.max_edge_degree)
    num_classes = max(2, math.ceil(bar_delta ** (1.0 - epsilon)))
    line = graph.line_graph()
    slack = max(1, math.ceil(bar_delta ** epsilon / 4.0))
    classes, rounds = defective_coloring_local_search(
        line,
        num_classes=num_classes,
        slack=slack,
        tracker=own,
        scan_path=scan_path,
    )

    colors: Dict[int, int] = {}
    max_class_degree = 0
    class_members: Dict[int, list] = {}
    for e in graph.edges():
        class_members.setdefault(classes[e], []).append(e)
    for members in class_members.values():
        max_class_degree = max(max_class_degree, max(degrees_within(graph, members)[1]))
    stride = max_class_degree + 1
    greedy_rounds = 0
    for class_index, members in sorted(class_members.items()):
        schedule = proper_edge_schedule(graph, members, tracker=None, scan_path=scan_path)
        class_tracker = RoundTracker()
        local = greedy_edge_coloring_by_classes(
            graph,
            schedule,
            palette_size=stride,
            edge_set=set(members),
            tracker=class_tracker,
            scan_path=scan_path,
        )
        greedy_rounds = max(greedy_rounds, class_tracker.total)
        for e, c in local.items():
            colors[e] = class_index * stride + c
    # Classes use disjoint palettes and are colored in parallel, so the
    # greedy stage costs the maximum over classes, not the sum.
    own.charge(greedy_rounds, "barenboim-elkin-greedy")

    if tracker is not None:
        tracker.merge(own)
    palette_size = stride * num_classes
    return BaselineResult(
        colors=colors,
        num_colors=len(set(colors.values())),
        bound=palette_size,
        rounds=own.total,
        algorithm="barenboim-elkin",
    )
