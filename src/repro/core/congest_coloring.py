"""(8+ε)Δ-edge coloring of general graphs in the CONGEST model (Theorem 6.3).

The algorithm repeats, on the graph induced by the still-uncolored edges:

1. a defective 4-coloring of the nodes with monochromatic degree roughly
   half the current maximum degree (Lemma 6.2 / the substitute specified
   in :mod:`repro.coloring.defective_vertex`);
2. a (2+ε)Δ-edge coloring (Lemma 6.1) of the bipartite graph between the
   class pair {1,2} / {3,4} with a fresh palette;
3. the same for the pair {1,3} / {2,4};

after which only monochromatic edges remain and the maximum degree has
(roughly) halved.  Both bipartite pieces come from one pass of
:func:`~repro.graphs.bipartite.class_pair_pieces`: an edge crossing both
pairings joins the first, and since Lemma 6.1 colors every edge it is
given, that is the same piece a rescan after step 2 would leave for
step 3.  The recursion runs O(log Δ) times and the constant
degree leftover is colored greedily.  Every stage draws its colors from a
fresh contiguous range handed out by a palette allocator; the total
number of colors is compared against the (8+ε)Δ bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.coloring.defective_vertex import defective_split_coloring
from repro.coloring.greedy import greedy_edge_coloring_by_classes, proper_edge_schedule
from repro.coloring.linial import linial_vertex_coloring
from repro.coloring.palettes import PaletteAllocator
from repro.core import parameters
from repro.core.bipartite_coloring import bipartite_edge_coloring
from repro.distributed.rounds import RoundTracker
from repro.graphs.bipartite import class_pair_pieces
from repro.graphs.core import Graph, degrees_within


@dataclass
class CongestColoringResult:
    """Outcome of the Theorem 6.3 CONGEST edge coloring.

    Attributes:
        colors: proper edge coloring, keyed by edge index.
        num_colors: number of distinct colors used.
        palette_size: total number of colors allocated across all stages
            (the quantity the (8+ε)Δ bound refers to).
        bound: (8+ε)Δ for this instance.
        levels: number of recursion levels executed.
        rounds: communication rounds charged.
        level_degrees: maximum uncolored degree at the start of each level.
    """

    colors: Dict[int, int]
    num_colors: int
    palette_size: int
    bound: float
    levels: int
    rounds: int
    level_degrees: List[int] = field(default_factory=list)


_PAIRINGS: Tuple[Tuple[Set[int], Set[int]], ...] = (
    ({0, 1}, {2, 3}),
    ({0, 2}, {1, 3}),
)


def congest_edge_coloring(
    graph: Graph,
    epsilon: float = 0.5,
    params: Optional[parameters.PracticalParameters] = None,
    tracker: Optional[RoundTracker] = None,
    scan_path: str = "auto",
) -> CongestColoringResult:
    """Compute an O(Δ)-edge coloring following Theorem 6.3.

    Args:
        graph: the input graph.
        epsilon: the ε of Theorem 6.3 (the bound is (8+ε)Δ).
        params: practical parameter overrides.
        tracker: optional round tracker.
        scan_path: engine selector, forwarded to the initial Linial
            coloring, every defective split and the final schedule and
            greedy pass (``"auto"`` / ``"numpy"`` / ``"python"``).
    """
    params = params or parameters.DEFAULT_PARAMETERS
    own = RoundTracker()
    delta = graph.max_degree
    allocator = PaletteAllocator()
    colors: Dict[int, int] = {}
    level_degrees: List[int] = []

    if graph.num_edges == 0:
        if tracker is not None:
            tracker.merge(own)
        return CongestColoringResult(
            colors={}, num_colors=0, palette_size=0, bound=0.0, levels=0, rounds=0
        )

    # Initial O(Δ²)-vertex coloring, O(log* n) rounds.
    vertex_colors, vertex_color_count = linial_vertex_coloring(
        graph, tracker=own, scan_path=scan_path
    )

    epsilon_defective = epsilon / 4.0
    epsilon_bipartite = epsilon / 2.0
    uncolored: List[int] = list(graph.edges())
    max_levels = max(1, math.floor(math.log2(max(2, delta))))
    levels_run = 0

    for _level in range(max_levels):
        if not uncolored:
            break
        # The level degree is the graph's own until something is colored;
        # the defective split's restricted rows are built only when it runs.
        if colors:
            current_delta = max(degrees_within(graph, uncolored)[0])
        else:
            current_delta = delta
        level_degrees.append(current_delta)
        if current_delta <= max(4, params.final_degree // 2):
            break
        levels_run += 1

        classes, _defect = defective_split_coloring(
            graph.edge_subset_view(uncolored, scan_path=scan_path),
            num_classes=4,
            epsilon=epsilon_defective,
            proper_coloring=vertex_colors,
            proper_num_colors=vertex_color_count,
            tracker=own,
            scan_path=scan_path,
        )

        # An edge crossing both pairings goes to the first, which colors
        # every edge it is given.
        for bipartition, piece in class_pair_pieces(graph, uncolored, classes, _PAIRINGS):
            result = bipartite_edge_coloring(
                graph,
                bipartition,
                epsilon=epsilon_bipartite,
                edge_set=piece,
                params=params,
                tracker=own,
                scan_path=scan_path,
            )
            palette = allocator.allocate(result.palette_size)
            for e, c in result.colors.items():
                colors[e] = palette.start + c
        uncolored = [e for e in uncolored if e not in colors]

    # Final stage: the leftover graph has small degree; color it greedily
    # with a fresh palette of 2d − 1 colors.
    if uncolored:
        remaining_edge_degree = max(degrees_within(graph, uncolored)[1])
        palette = allocator.allocate(remaining_edge_degree + 1)
        schedule = proper_edge_schedule(
            graph, uncolored, tracker=own, scan_path=scan_path
        )
        local = greedy_edge_coloring_by_classes(
            graph,
            schedule,
            palette_size=remaining_edge_degree + 1,
            edge_set=set(uncolored),
            tracker=own,
            scan_path=scan_path,
        )
        for e, c in local.items():
            colors[e] = palette.start + c

    if tracker is not None:
        tracker.merge(own)
    return CongestColoringResult(
        colors=colors,
        num_colors=len(set(colors.values())),
        palette_size=allocator.total_allocated,
        bound=(8.0 + epsilon) * max(1, delta),
        levels=levels_run,
        rounds=own.total,
        level_degrees=level_degrees,
    )
