"""Identifier-space helpers.

The LOCAL/CONGEST models assume unique identifiers from ``{1 .. poly(n)}``
(Section 2).  Linial's lower bound and the O(log* n) terms of all
complexities are driven by the size of this identifier space, so the
experiments need control over it.
"""

from __future__ import annotations

import math

from repro.graphs.core import Graph


def id_space_size(graph: Graph) -> int:
    """The size of the identifier space implied by the graph's node ids."""
    if graph.num_nodes == 0:
        return 1
    return max(graph.node_ids) + 1


def log_star(value: float) -> int:
    """The iterated logarithm log* (base 2), with log*(x) = 0 for x <= 1."""
    count = 0
    current = float(value)
    while current > 1.0:
        current = math.log2(current)
        count += 1
    return count
