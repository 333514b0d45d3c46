"""The classic O(Δ̄² + log* n)-round (2Δ−1)-edge coloring baseline.

Linial [41] computes an O(Δ̄²)-edge coloring in O(log* n) rounds; iterating
through its color classes and greedily recoloring each class from the
(2Δ−1)-color palette yields a (2Δ−1)-edge coloring after O(Δ̄²) further
rounds.  This is the baseline the paper's introduction describes as the
straightforward O(Δ² + log* n) algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.coloring.greedy import greedy_edge_coloring_by_classes
from repro.coloring.linial import linial_edge_coloring
from repro.distributed.rounds import RoundTracker
from repro.graphs.core import Graph


@dataclass
class BaselineResult:
    """Result of a baseline run: coloring, distinct colors, color bound, rounds."""

    colors: Dict[int, int]
    num_colors: int
    bound: int
    rounds: int
    algorithm: str = "baseline"


def greedy_baseline_edge_coloring(
    graph: Graph,
    tracker: Optional[RoundTracker] = None,
) -> BaselineResult:
    """(2Δ−1)-edge coloring via Linial scheduling plus greedy, O(Δ̄² + log* n) rounds."""
    own = RoundTracker()
    if graph.num_edges == 0:
        return BaselineResult(colors={}, num_colors=0, bound=0, rounds=0, algorithm="greedy-by-classes")
    palette = max(1, 2 * graph.max_degree - 1)
    schedule, _num = linial_edge_coloring(graph, tracker=own)
    colors = greedy_edge_coloring_by_classes(
        graph,
        schedule,
        palette_size=palette,
        tracker=own,
    )
    if tracker is not None:
        tracker.merge(own)
    return BaselineResult(
        colors=colors,
        num_colors=len(set(colors.values())),
        bound=palette,
        rounds=own.total,
        algorithm="greedy-by-classes",
    )
