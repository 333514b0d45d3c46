"""(Δ+1)-vertex coloring.

Two stages, mirroring the classic pipeline the paper's introduction
describes: Linial's O(Δ²)-coloring in O(log* n) rounds, followed by a
color reduction down to Δ+1 colors.  The reduction is the
Kuhn–Wattenhofer halving scheme (the linear-in-Δ edge coloring
baseline runs it on the line graph): the current classes are split
into groups of 2(Δ+1) consecutive classes, every group re-colors itself
into its own (Δ+1)-color palette one class per round, and the number of
colors halves every 2(Δ+1) rounds — O(Δ log Δ) rounds in total.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.coloring.linial import linial_vertex_coloring
from repro.distributed.rounds import RoundTracker
from repro.graphs.core import Graph


def kuhn_wattenhofer_vertex_reduction(
    graph: Graph,
    colors: Sequence[int],
    num_colors: int,
    target: int,
    tracker: Optional[RoundTracker] = None,
) -> List[int]:
    """Reduce a proper vertex coloring to ``target ≥ Δ+1`` colors by halving.

    Each stage partitions the color classes into groups of ``2·target``
    consecutive classes; within a group, the classes above ``target`` are
    processed one per round and each of their nodes greedily picks a free
    color in the group's ``target``-color palette (it has at most
    Δ ≤ target − 1 neighbors, so a free color exists).  Groups use
    disjoint palettes, so they proceed in parallel.
    """
    if target < graph.max_degree + 1:
        raise ValueError("target must be at least Δ + 1")
    current_colors = list(colors)
    current = max(num_colors, target)
    while current > target:
        group_size = 2 * target
        num_groups = -(-current // group_size)
        new_colors: List[Optional[int]] = [None] * graph.num_nodes
        # The nodes that move in round ``p`` of the stage, ascending; a
        # stage is ``target`` rounds, one per position above ``target``.
        moving_at: List[List[int]] = [[] for _ in range(target)]
        for v in graph.nodes():
            group, position = divmod(current_colors[v], group_size)
            if position < target:
                new_colors[v] = group * target + position
            else:
                moving_at[position - target].append(v)
        for moving in moving_at:
            for v in moving:
                group = current_colors[v] // group_size
                palette_start = group * target
                used = {
                    new_colors[w]
                    for w in graph.neighbors(v)
                    if new_colors[w] is not None
                    and palette_start <= new_colors[w] < palette_start + target
                }
                new_colors[v] = next(
                    c for c in range(palette_start, palette_start + target) if c not in used
                )
        if tracker is not None:
            tracker.charge(target, "kw-vertex-reduction")
        current_colors = [c for c in new_colors]  # type: ignore[misc]
        current = num_groups * target
        if num_groups == 1:
            break
    return [c for c in current_colors]


def delta_plus_one_vertex_coloring(
    graph: Graph,
    tracker: Optional[RoundTracker] = None,
) -> Tuple[List[int], int]:
    """A proper (Δ+1)-vertex coloring in O(Δ log Δ + log* n) charged rounds.

    Returns ``(colors, num_colors)`` with ``num_colors = Δ + 1``.
    """
    if graph.num_nodes == 0:
        return [], 1
    target = graph.max_degree + 1
    initial, num_colors = linial_vertex_coloring(graph, tracker=tracker)
    if num_colors <= target:
        return initial, num_colors
    reduced = kuhn_wattenhofer_vertex_reduction(graph, initial, num_colors, target, tracker=tracker)
    return reduced, target
