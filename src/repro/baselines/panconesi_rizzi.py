"""Linear-in-Δ deterministic (2Δ−1)-edge coloring baseline.

Stands in for the Panconesi–Rizzi [44] / Barenboim–Elkin–Goldenberg [10]
family of algorithms whose round complexity is linear (up to a log
factor) in Δ: Linial's O(Δ̄²)-coloring followed by the Kuhn–Wattenhofer
parallel color reduction, both run as vertex algorithms on the line
graph.  The reduction halves the number of colors in O(Δ̄) rounds per
halving and therefore reaches 2Δ−1 colors in O(Δ̄·log Δ̄ + log* n)
rounds.  The benchmarks plot its round count next to
the paper's polylog-Δ algorithm (experiment E6).
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.greedy_by_classes import BaselineResult
from repro.classic.vertex_coloring import kuhn_wattenhofer_vertex_reduction
from repro.coloring.linial import linial_vertex_coloring
from repro.distributed.rounds import RoundTracker
from repro.graphs.core import Graph


def linear_in_delta_edge_coloring(
    graph: Graph,
    tracker: Optional[RoundTracker] = None,
    scan_path: str = "auto",
) -> BaselineResult:
    """(2Δ−1)-edge coloring in O(Δ̄ log Δ̄ + log* n) rounds (linear-in-Δ baseline).

    ``scan_path`` selects the engine of the initial Linial coloring (see
    :mod:`repro.core.engine`).
    """
    own = RoundTracker()
    if graph.num_edges == 0:
        return BaselineResult(colors={}, num_colors=0, bound=0, rounds=0, algorithm="linear-in-delta")
    target = max(1, 2 * graph.max_degree - 1)
    # Line-graph nodes are the edges, and Δ̄ + 1 ≤ 2Δ − 1 = target.
    line = graph.line_graph()
    initial, num_colors = linial_vertex_coloring(line, tracker=own, scan_path=scan_path)
    reduced = kuhn_wattenhofer_vertex_reduction(line, initial, num_colors, target, tracker=own)
    colors = dict(enumerate(reduced))
    if tracker is not None:
        tracker.merge(own)
    return BaselineResult(
        colors=colors,
        num_colors=len(set(colors.values())),
        bound=target,
        rounds=own.total,
        algorithm="linear-in-delta",
    )
