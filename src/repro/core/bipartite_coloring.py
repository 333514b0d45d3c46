"""(2+ε)Δ-edge coloring of 2-colored bipartite graphs (Lemma 6.1).

The algorithm splits the edge set recursively with generalized defective
2-edge colorings (λ_e = 1/2): after ``k`` levels the graph is decomposed
into ``2^k`` edge-disjoint parts whose maximum edge degree has dropped by
roughly a factor ``2^k``.  The parts of one level split in parallel, in
one :func:`~repro.core.defective_edge_coloring.defective_split_level`
call.  Each part is then properly edge-colored with
``d_i + 1`` colors by a greedy pass scheduled by a Linial O(d̄²)-edge
coloring, and the final color of an edge is the pair
``(part index, local color)``, exactly as in the proof of Lemma 6.1.
Disjoint parts receive disjoint color ranges, so the output is a proper
coloring regardless of how well the defective splits balanced the
degrees; the quality of the splits only determines the *number* of colors,
which the benchmarks compare against the (2+ε)Δ bound.

All messages exchanged (orientation proposals, token counts, color
indices bounded by poly(Δ)) fit in O(log n) bits, so the algorithm runs
in the CONGEST model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.coloring.greedy import greedy_edge_coloring_by_classes, proper_edge_schedule
from repro.core import parameters
from repro.core.defective_edge_coloring import defective_split_level, degrees_within
from repro.distributed.rounds import RoundTracker
from repro.graphs.bipartite import Bipartition
from repro.graphs.core import Graph


@dataclass
class BipartiteColoringResult:
    """Outcome of the Lemma 6.1 bipartite edge coloring.

    Attributes:
        colors: proper edge coloring, keyed by edge index.
        num_colors: number of distinct colors used.
        palette_size: size of the tuple palette 2^k·(1 + max leaf degree);
            this is the quantity Lemma 6.1 bounds by (2+ε)Δ.
        bound: the paper's (2+ε)Δ bound for this instance.
        levels: recursion depth used.
        part_count: number of leaf parts.
        max_leaf_degree: largest edge degree of a leaf part.
        rounds: communication rounds charged.
    """

    colors: Dict[int, int]
    num_colors: int
    palette_size: int
    bound: float
    levels: int
    part_count: int
    max_leaf_degree: int
    rounds: int
    defect_history: List[int] = field(default_factory=list)


def bipartite_edge_coloring(
    graph: Graph,
    bipartition: Bipartition,
    epsilon: float = 0.25,
    edge_set: Optional[Iterable[int]] = None,
    levels: Optional[int] = None,
    params: Optional[parameters.PracticalParameters] = None,
    tracker: Optional[RoundTracker] = None,
    scan_path: str = "auto",
) -> BipartiteColoringResult:
    """Color the (bichromatic) edges of a 2-colored bipartite graph with ~(2+ε)Δ colors.

    Args:
        graph: the host graph.
        bipartition: node sides; every instance edge must cross it.
        epsilon: the ε of Lemma 6.1.
        edge_set: instance edges (defaults to all edges of ``graph``).
        levels: recursion depth ``k``; defaults to a depth that leaves leaf
            parts of edge degree around ``params.leaf_degree`` (the analytic
            k of Lemma 6.1 is available as
            :func:`repro.core.parameters.lemma61_recursion_depth`).
        params: practical parameter overrides.
        tracker: optional round tracker.
        scan_path: orientation engine selector, forwarded to every
            defective split (``"auto"`` / ``"numpy"`` / ``"python"``).
    """
    params = params or parameters.DEFAULT_PARAMETERS
    edges: List[int] = sorted(set(edge_set)) if edge_set is not None else list(graph.edges())
    own = RoundTracker()

    if not edges:
        if tracker is not None:
            tracker.merge(own)
        return BipartiteColoringResult(
            colors={},
            num_colors=0,
            palette_size=0,
            bound=0.0,
            levels=0,
            part_count=0,
            max_leaf_degree=0,
            rounds=0,
        )

    node_deg, edge_degrees = degrees_within(graph, edges)
    delta = max(node_deg)
    bar_delta = max(edge_degrees)
    if levels is None:
        levels = max(0, math.ceil(math.log2(max(1, bar_delta) / max(1, params.leaf_degree))))
    # Per-split slack: after k levels the degree factor is ((1+χ)/2)^k; keep
    # (1+χ)^k ≤ 1 + ε/2 as in the proof of Lemma 6.1.
    chi = max(0.01, math.log(1.0 + epsilon / 2.0) / max(1, levels)) if levels > 0 else epsilon

    # Every part carries its edge degrees; a split hands its classes'
    # degrees to the next level.
    parts: List[Tuple[List[int], List[int]]] = [(edges, edge_degrees)]
    defect_history: List[int] = []
    for _level in range(levels):
        splitting = [
            index for index, (_, degrees) in enumerate(parts) if max(degrees) > params.leaf_degree
        ]
        # The parts are edge-disjoint subgraphs: the defective splits of one
        # level run in parallel in the distributed model (here: one engine
        # call), so the level costs the maximum over the parts, not the sum.
        splits = dict(
            zip(
                splitting,
                defective_split_level(
                    graph,
                    bipartition,
                    [parts[index][0] for index in splitting],
                    None,
                    epsilon=chi,
                    betas=[params.beta(bar_delta)] * len(splitting),
                    nu=params.resolved_nu(),
                    scan_path=scan_path,
                ),
            )
        )
        new_parts: List[Tuple[List[int], List[int]]] = []
        for index, part in enumerate(parts):
            split = splits.get(index)
            if split is None:
                new_parts.append(part)
            else:
                defect_history.append(split.max_defect)
                new_parts.append((split.red, split.red_degrees))
                new_parts.append((split.blue, split.blue_degrees))
        own.charge(
            max((split.rounds for split in splits.values()), default=0),
            "bipartite-split-level",
        )
        parts = [part for part in new_parts if part[0]]

    # Leaf coloring: each part gets its own contiguous range of stride colors.
    max_leaf_degree = max((max(degrees) for _, degrees in parts), default=0)
    stride = max_leaf_degree + 1

    colors: Dict[int, int] = {}
    leaf_rounds = 0
    for index, (part, _) in enumerate(parts):
        part_tracker = RoundTracker()
        schedule = proper_edge_schedule(
            graph, part, tracker=part_tracker, scan_path=scan_path
        )
        local = greedy_edge_coloring_by_classes(
            graph,
            schedule,
            palette_size=stride,
            edge_set=set(part),
            tracker=part_tracker,
        )
        # The parts use disjoint palettes and are colored in parallel.
        leaf_rounds = max(leaf_rounds, part_tracker.total)
        for e, c in local.items():
            colors[e] = index * stride + c
    own.charge(leaf_rounds, "bipartite-leaf-coloring")

    palette_size = stride * max(1, len(parts))
    bound = (2.0 + epsilon) * max(1, delta)
    if tracker is not None:
        tracker.merge(own)
    return BipartiteColoringResult(
        colors=colors,
        num_colors=len(set(colors.values())),
        palette_size=palette_size,
        bound=bound,
        levels=levels,
        part_count=len(parts),
        max_leaf_degree=max_leaf_degree,
        rounds=own.total,
        defect_history=defect_history,
    )
