"""Centralized sequential greedy edge coloring.

The "trivial sequential greedy algorithm" of the paper's introduction:
process edges in a fixed order and give each the smallest color not
used by an already-colored neighbor.  This is not a distributed
algorithm; it serves as a correctness reference and as the color-count
yardstick (a greedy edge coloring never needs more than Δ̄ + 1 ≤ 2Δ − 1
colors).
"""

from __future__ import annotations

from typing import Dict

from repro.graphs.core import Graph


def sequential_greedy_edge_coloring(graph: Graph) -> Dict[int, int]:
    """Greedy edge coloring in edge-index order; uses at most Δ̄ + 1 colors."""
    colors: Dict[int, int] = {}
    for e in graph.edges():
        used = {colors[f] for f in graph.adjacent_edges(e) if f in colors}
        color = 0
        while color in used:
            color += 1
        colors[e] = color
    return colors
