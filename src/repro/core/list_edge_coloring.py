"""(degree+1)-list edge coloring in the LOCAL model (Section 7 / Appendix D).

Three layers, mirroring the paper:

* :func:`solve_relaxed_instance` — the Lemma D.2 solver.  On a 2-colored
  bipartite (sub)graph whose edges satisfy ``|L_e| ≥ deg(e) + 1`` it
  recursively halves the color space, using the generalized defective
  2-edge coloring of Section 5 with λ_e = |L_e ∩ left half| / |L_e| to
  split the edges, sends low-degree / low-slack edges to per-level
  *passive* sets, and finally colors the passive sets greedily from the
  deepest level upwards.  An additional post-split check re-passivates
  any edge whose list would become smaller than its new degree + 1, so
  the output is a correct list coloring for *every* input
  satisfying the (degree+1) condition, independent of how well the
  defective splits performed.  Every list and every recursion window is
  a color bitmask (bit ``c`` set iff color ``c`` is usable): a split is
  an OR, a median bit and two ANDs, and a passive edge takes the lowest
  free bit of its window.  All parts of one recursion level split in one
  :func:`~repro.core.defective_edge_coloring.defective_split_level` call:
  in the distributed model they run in parallel, the numpy engine
  orients them in lock-step, and the call charges the level its max
  over the parts.

* :func:`partially_color_bipartite` — the Lemma D.3 substitute, applied
  to the bipartite pieces of one outer iteration.  Instead of the
  paper's construction it splits every piece's uncolored edges into
  ``params.list_reduction_parts`` edge-disjoint parts with the λ = 1/2
  recursion Lemma 6.1 shares
  (:func:`~repro.core.defective_edge_coloring.split_recursion`, leaf
  degree 1; one engine call per depth across all pieces) and colors the
  parts sequentially with the Lemma D.2 solver, where an edge
  participates only while its available list is at least
  ``params.list_slack`` times its uncolored within-part degree.  Edges
  that stay uncolored were skipped, and an edge is only skipped when its
  uncolored degree is already small — which is exactly the
  degree-reduction guarantee Lemma D.3 provides.  Rounds are charged as
  if the pieces ran one after another: per piece, its split depths (the
  max over its own parts), then its Lemma D.2 solves.  Each part's
  participation is one pass over its edges and their aligned list masks:
  availability is one mask-and against the per-node used-color masks,
  participation one popcount.

* :func:`list_edge_coloring` — Theorem D.4.  A defective 4-coloring of
  the nodes splits the uncolored graph into its six bipartite class-pair
  pieces (:func:`~repro.graphs.bipartite.class_pair_pieces`, the helper
  Theorem 6.3 shares); one :func:`partially_color_bipartite` call
  partially colors all six; the uncolored degree shrinks by a
  constant factor per outer iteration, and the constant-degree leftover
  is colored greedily.  The solver reads the instance lists only as
  bitmasks (:meth:`~repro.core.slack.ListEdgeColoringInstance.mask_list`),
  so every pick, Lemma D.2's and the final greedy's alike, is the lowest
  free bit: the smallest available color.  The (degree+1)
  invariant — every uncolored edge always has more available colors than
  uncolored neighbors — is maintained throughout, so the final greedy
  step (and hence the whole algorithm) always succeeds.  One
  :class:`~repro.coloring.greedy.UsedColorMasks` serves the whole solve:
  every pass reads availability from it and every color lands in it.

The standard (2Δ−1)-edge coloring of Theorem 1.1 is the special case in
which every list is ``{0, …, 2Δ−2}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.coloring.defective_vertex import defective_split_coloring
from repro.coloring.greedy import (
    UsedColorMasks,
    greedy_edge_coloring_by_classes,
    proper_edge_schedule,
)
from repro.coloring.linial import linial_vertex_coloring
from repro.core import parameters
from repro.core.defective_edge_coloring import (
    defective_split_level,
    generalized_defective_two_edge_coloring,  # noqa: F401 - perfbench/layers.py patches it
    split_recursion,
)
from repro.core.slack import ListEdgeColoringInstance, uniform_instance
from repro.distributed.rounds import RoundTracker
from repro.graphs.bipartite import Bipartition, class_pair_pieces
from repro.graphs.core import Graph, degrees_within


@dataclass
class ListColoringResult:
    """Outcome of the Theorem D.4 list edge coloring.

    Attributes:
        colors: proper list edge coloring, keyed by edge index.
        num_colors: number of distinct colors used.
        color_space: size of the instance's color space C.
        bound: 2Δ − 1 (the Theorem 1.1 bound; meaningful for the uniform
            instance, informational for arbitrary lists).
        rounds: communication rounds charged.
        outer_iterations: number of Theorem D.4 outer recursion levels.
        level_degrees: maximum uncolored degree at the start of each level.
    """

    colors: Dict[int, int]
    num_colors: int
    color_space: int
    bound: int
    rounds: int
    outer_iterations: int
    level_degrees: List[int] = field(default_factory=list)


# ---------------------------------------------------------------------------- helpers
#: The class pairs of Theorem D.4's defective 4-coloring, one piece each.
_CLASS_PAIRS = tuple(({a}, {b}) for a in range(4) for b in range(a + 1, 4))


@dataclass
class _Part:
    """An edge-disjoint part of the Lemma D.2 recursion with its color windows.

    ``windows`` maps each edge to the colors of its list the part may
    still use, as a bitmask (bit ``c`` set iff color ``c`` is usable).
    A level's color-space split keeps ``window & below`` or
    ``window & ~below``; when the edge turns passive, its window is its
    list in the greedy batch.  ``degrees`` holds each edge's degree
    within the part, aligned with ``edges``.
    """

    edges: List[int]
    windows: Dict[int, int]
    degrees: List[int]


# ---------------------------------------------------------------------------- Lemma D.2
def solve_relaxed_instance(
    graph: Graph,
    bipartition: Bipartition,
    list_masks: Dict[int, int],
    edge_set: Optional[Iterable[int]] = None,
    params: Optional[parameters.PracticalParameters] = None,
    tracker: Optional[RoundTracker] = None,
    used_colors: Optional[UsedColorMasks] = None,
) -> Dict[int, int]:
    """Color every edge of a bipartite list instance from its list (Lemma D.2).

    Requirements: every instance edge is bichromatic w.r.t. ``bipartition``
    and its (already pruned) list has at least ``deg(e) + 1`` colors,
    where the degree counts adjacent instance edges.  The paper requires
    slack ``S ≥ e²``; this implementation stays correct for slack 1 — the
    slack only influences how early edges turn passive and therefore the
    round count.

    Every list and every recursion window is a color bitmask.  A level
    splits every part's color space at its median color by value, all
    parts in one :func:`~repro.core.defective_edge_coloring.
    defective_split_level` call, which charges the level: the union
    is the OR of the windows, λ_e is the share of the window below the
    median, and a survivor keeps the half its side of the split chose.
    A passive edge takes the lowest bit of its window that is free at
    both endpoints: the smallest available color.

    One pass over the edges checks the (degree+1) condition, ORs the
    color union and looks for an edge that is active at the first level
    (degree above ``params.leaf_degree`` and at least
    ``params.passive_slack_threshold`` times as many colors).  Without
    one, nothing splits: the first level is charged 0 under
    ``list-solver-split-level`` (first, as its split call would) and the
    edges, ascending, are the one greedy batch — ``list_masks`` itself
    when its keys are already ascending.

    Args:
        graph: the host graph.
        bipartition: node sides.
        list_masks: per-edge available color lists as bitmasks (bit
            ``c`` set iff color ``c`` is usable), already excluding the
            colors of adjacent edges colored before this call; see
            :meth:`~repro.core.slack.ListEdgeColoringInstance.list_masks`.
        edge_set: instance edges (defaults to the keys of ``list_masks``).
        params: practical parameter overrides.
        tracker: optional round tracker.
        used_colors: caller-owned per-node used-color masks of the
            colors outside the instance (the lists must already exclude
            them); the greedy passes read them and add their colors **in
            place**.  Defaults to no colors outside the instance.

    Returns the colors chosen for the instance edges.
    """
    params = params or parameters.DEFAULT_PARAMETERS
    own = RoundTracker()
    keys = list(list_masks) if edge_set is None else list(set(edge_set))
    edges: List[int] = sorted(keys)
    if not edges:
        return {}

    # One pass: the (degree+1) check, the color union and whether any
    # edge is active (not passive) at the first level.
    degrees = degrees_within(graph, edges)[1]
    leaf_degree = params.leaf_degree
    slack_threshold = params.passive_slack_threshold
    color_union = 0
    any_active = False
    for e, degree in zip(edges, degrees):
        window = list_masks[e]
        size = window.bit_count()
        if size < degree + 1:
            raise ValueError(
                f"edge {e} has {size} available colors but degree {degree}; "
                "the (degree+1) condition is violated"
            )
        color_union |= window
        if degree > leaf_degree and size >= slack_threshold * max(1, degree):
            any_active = True

    #: Per level, the windows of the edges that turned passive there.
    passive_levels: List[Dict[int, int]] = []
    if not any_active:
        # Every edge is passive at the first level: nothing splits, and
        # the level is charged 0 (first, as the split call would).  The
        # one greedy batch is the edges in ascending order.
        own.charge(0, "list-solver-split-level")
        ascending = edge_set is None and edges == keys
        passive_levels.append(list_masks if ascending else {e: list_masks[e] for e in edges})
        parts: List[_Part] = []
        max_levels = 0
    else:
        parts = [_Part(edges=edges, windows=list_masks, degrees=degrees)]
        max_levels = max(1, math.ceil(math.log2(max(2, color_union.bit_count()))) + 1)

    epsilon = max(params.epsilon, 0.5)
    for _level in range(max_levels):
        if not parts:
            break
        # Per part: the edges that turn passive here, in the order they
        # join the level's batch; and the active edges of the parts that
        # split, with their λ, β and median boundary.
        passive: List[List[Tuple[int, int]]] = []
        splitting: List[int] = []
        actives: List[List[int]] = []
        betas: List[float] = []
        boundaries: Dict[int, int] = {}
        lambdas: Dict[int, float] = {}
        for index, part in enumerate(parts):
            windows = part.windows
            part_passive: List[Tuple[int, int]] = []
            passive.append(part_passive)
            active: List[int] = []
            for e, degree in zip(part.edges, part.degrees):
                if degree <= params.leaf_degree or windows[e].bit_count() < (
                    params.passive_slack_threshold * max(1, degree)
                ):
                    part_passive.append((e, windows[e]))
                else:
                    active.append(e)
            if not active:
                continue
            # Split the part's color space in half by value (Section 7):
            # the left half is the ``len(union) // 2`` smallest colors.
            union = 0
            for e in active:
                union |= windows[e]
            union_size = union.bit_count()
            if union_size <= 1:
                part_passive.extend((e, windows[e]) for e in active)
                continue
            upper = union
            for _ in range(union_size // 2):
                upper &= upper - 1
            below = (upper & -upper) - 1  # every color below the boundary
            for e in active:
                size = windows[e].bit_count()
                lambdas[e] = (windows[e] & below).bit_count() / size if size else 0.5
            splitting.append(index)
            actives.append(active)
            betas.append(params.beta(max(part.degrees)))
            boundaries[index] = below
        # The parts of one level are edge-disjoint and use disjoint color
        # spaces: their defective splits run in parallel — one engine call
        # for the level, charged as the maximum over the parts.
        splits = defective_split_level(
            graph,
            [bipartition] * len(actives),
            actives,
            lambdas,
            epsilon=epsilon,
            betas=betas,
            nu=params.resolved_nu(),
            tracker=own,
            label="list-solver-split-level",
        )
        # A red edge keeps the colors below the boundary, a blue edge the rest.
        sides_of: Dict[int, List[Tuple[int, List[int], List[int]]]] = {
            index: [
                (boundaries[index], split.red, split.red_degrees),
                (~boundaries[index], split.blue, split.blue_degrees),
            ]
            for index, split in zip(splitting, splits)
        }
        new_parts: List[_Part] = []
        level_passive: Dict[int, int] = {}
        for index, part in enumerate(parts):
            level_passive.update(passive[index])
            windows = part.windows
            for keep, side_edges, side_degrees in sides_of.get(index, ()):
                survivors: List[int] = []
                survivor_windows: Dict[int, int] = {}
                for e, degree in zip(side_edges, side_degrees):
                    kept = windows[e] & keep
                    if kept.bit_count() >= degree + 1:
                        survivors.append(e)
                        survivor_windows[e] = kept
                    else:
                        # Correctness net: the split left this edge with
                        # too few colors; keep it at the parent level.
                        level_passive[e] = windows[e]
                if survivors:
                    if len(survivors) < len(side_edges):
                        side_degrees = degrees_within(graph, survivors)[1]
                    new_parts.append(_Part(survivors, survivor_windows, side_degrees))
        passive_levels.append(level_passive)
        parts = new_parts

    # Any still-active leaves are colored first (deepest batch).
    if parts:
        passive_levels.append({e: part.windows[e] for part in parts for e in part.edges})

    used = used_colors if used_colors is not None else UsedColorMasks(graph.num_nodes)
    result: Dict[int, int] = {}
    for batch in reversed(passive_levels):
        if not batch:
            continue
        schedule = proper_edge_schedule(graph, batch, tracker=own)
        result.update(
            greedy_edge_coloring_by_classes(
                graph,
                schedule,
                tracker=own,
                used_colors=used,
                list_masks=batch,
            )
        )

    if tracker is not None:
        tracker.merge(own)
    return result


# ---------------------------------------------------------------------------- Lemma D.3 substitute
def partially_color_bipartite(
    graph: Graph,
    instance: ListEdgeColoringInstance,
    pieces: Sequence[Tuple[Bipartition, Iterable[int]]],
    coloring: Dict[int, int],
    params: Optional[parameters.PracticalParameters] = None,
    tracker: Optional[RoundTracker] = None,
    used_colors: Optional[UsedColorMasks] = None,
) -> Dict[int, int]:
    """Partially color bipartite pieces so that their uncolored degree drops (Lemma D.3).

    ``pieces`` are the edge-disjoint ``(bipartition, edges)`` pieces of
    one Theorem D.4 outer iteration (the edges in any order; repeats are
    ignored).  The uncolored edges of every piece are split into
    ``params.list_reduction_parts`` edge-disjoint parts by one
    :func:`~repro.core.defective_edge_coloring.split_recursion` over all
    pieces (λ = 1/2 levels down to edge degree 1, β from each part's max
    degree): a depth is one engine call across the pieces.  Then the
    pieces, and within a piece its parts, are colored in order with
    :func:`solve_relaxed_instance`, where an
    edge participates only if its currently available list is at least
    ``params.list_slack`` times its uncolored within-part degree (and at
    least that degree + 1).  Edges skipped this way already have a small
    uncolored degree, which is the degree-reduction guarantee.

    The charges are those of the pieces run one after another: each
    piece's split depths (the max over its own parts), then its Lemma
    D.2 solves, merged into ``tracker`` piece by piece.

    An edge's available list is the bitmask ``list & ~(used[u] | used[v])``
    of its instance list (from
    :meth:`~repro.core.slack.ListEdgeColoringInstance.mask_list`, one
    call per part, aligned with the part's edges) minus the colors used
    at its endpoints, read straight from the used-color masks: one pass
    per part, with no per-edge dict.
    ``used_colors`` is the caller's :class:`UsedColorMasks` for
    ``coloring``; the new colors land in it in place.  Without it, masks
    are built from ``coloring``.

    Returns the newly assigned colors (``coloring`` itself is not modified).
    """
    params = params or parameters.DEFAULT_PARAMETERS
    newly: Dict[int, int] = {}
    # The pieces are edge-disjoint, so a piece's uncolored edges do not
    # depend on the other pieces' colors: every split can run first.
    roots = []
    for bipartition, edge_set in pieces:
        edges = sorted({e for e in edge_set if e not in coloring})
        if edges:
            roots.append((bipartition, edges, degrees_within(graph, edges)[1]))
    if not roots:
        return newly

    trackers = [RoundTracker() for _ in roots]
    split_levels = max(1, math.ceil(math.log2(max(2, params.list_reduction_parts))))
    leaves = split_recursion(
        graph,
        roots,
        split_levels,
        1,
        params.beta,
        max(params.epsilon, 0.5),
        trackers,
        "degree-reduction-split-level",
        nu=params.resolved_nu(),
    )

    used = (
        used_colors
        if used_colors is not None
        else UsedColorMasks.from_edge_coloring(graph, coloring)
    )
    node_masks = used._masks
    edge_u, edge_v = graph.endpoint_arrays()
    # Participation threshold per uncolored within-part degree (a part's
    # degrees never exceed its root's).
    list_slack = params.list_slack
    thresholds = [
        max(degree + 1, math.ceil(list_slack * degree))
        for degree in range(max(max(degrees) for _, _, degrees in roots) + 1)
    ]
    # The parts are edge-disjoint and only a part's own solve colors its
    # edges, so every part is still entirely uncolored when its turn comes.
    for (bipartition, _edges, _degrees), (parts, _defects), own in zip(roots, leaves, trackers):
        for part, part_degrees in parts:
            # One pass over the part: its list masks (aligned, one build
            # per run of one list), minus the colors used at either end.
            participants: Dict[int, int] = {}
            for e, degree, mask in zip(part, part_degrees, instance.mask_list(part)):
                available = mask & ~(node_masks[edge_u[e]] | node_masks[edge_v[e]])
                if available.bit_count() >= thresholds[degree]:
                    participants[e] = available
            if not participants:
                continue
            newly.update(
                solve_relaxed_instance(
                    graph,
                    bipartition,
                    participants,
                    params=params,
                    tracker=own,
                    used_colors=used,
                )
            )
        if tracker is not None:
            tracker.merge(own)
    return newly


# ---------------------------------------------------------------------------- Theorem D.4
def list_edge_coloring(
    graph: Graph,
    instance: Optional[ListEdgeColoringInstance] = None,
    params: Optional[parameters.PracticalParameters] = None,
    tracker: Optional[RoundTracker] = None,
) -> ListColoringResult:
    """Solve the (degree+1)-list edge coloring problem (Theorems 1.1 / D.4).

    Every color is picked from the instance's list masks as the lowest
    free bit, so list order never matters: an instance built from
    shuffled lists colors exactly like one built from the sorted lists.

    Args:
        graph: the input graph.
        instance: the list instance; defaults to the uniform (2Δ−1)-list
            instance, in which case the output is a (2Δ−1)-edge coloring.
        params: practical parameter overrides.
        tracker: optional round tracker.

    Raises ``ValueError`` if the instance violates the (degree+1) condition.
    """
    params = params or parameters.DEFAULT_PARAMETERS
    own = RoundTracker()
    if instance is None:
        instance = uniform_instance(graph)
    if not instance.is_degree_plus_one():
        raise ValueError("the instance violates the (degree+1)-list condition")

    bound = max(1, 2 * graph.max_degree - 1)
    # One used-color mask per node for the whole solve: every pass reads
    # availability from it, and every color lands in it.
    used = UsedColorMasks(graph.num_nodes)
    if graph.num_edges == 0:
        return ListColoringResult(
            colors={},
            num_colors=0,
            color_space=instance.color_space,
            bound=bound,
            rounds=0,
            outer_iterations=0,
        )

    vertex_colors, vertex_color_count = linial_vertex_coloring(graph, tracker=own)
    coloring: Dict[int, int] = {}
    level_degrees: List[int] = []
    max_outer = 2 * math.ceil(math.log2(max(2, graph.max_degree))) + 4
    outer = 0

    # The uncolored edge set shrinks monotonically; it is maintained
    # incrementally (filter out the edges colored in the last iteration)
    # instead of rescanning every graph edge twice per level.  Its maximum
    # degree is the graph's own until something is colored, and is
    # counted with ``degrees_within`` after that; the restricted rows the
    # defective split reads are built only when a split runs.
    uncolored: List[int] = list(graph.edges())

    while uncolored:
        if coloring:
            current_delta = max(degrees_within(graph, uncolored)[0])
        else:
            current_delta = graph.max_degree
        level_degrees.append(current_delta)
        if current_delta <= params.final_degree or outer >= max_outer:
            break
        outer += 1

        classes, _defect = defective_split_coloring(
            graph.edge_subset_view(uncolored),
            num_classes=4,
            epsilon=0.125,
            proper_coloring=vertex_colors,
            proper_num_colors=vertex_color_count,
            tracker=own,
        )
        # The six class pairs are edge-disjoint, so a piece's lists cannot
        # be invalidated by the other pieces' colorings.
        coloring.update(
            partially_color_bipartite(
                graph,
                instance,
                class_pair_pieces(graph, uncolored, classes, _CLASS_PAIRS),
                coloring,
                params=params,
                tracker=own,
                used_colors=used,
            )
        )
        uncolored = [e for e in uncolored if e not in coloring]

    # Final stage: the uncolored graph has small degree; greedy from the
    # instance list masks against the shared used-color masks, each edge
    # taking its smallest available color.
    if uncolored:
        schedule = proper_edge_schedule(graph, uncolored, tracker=own)
        new = greedy_edge_coloring_by_classes(
            graph,
            schedule,
            edge_set=set(uncolored),
            tracker=own,
            used_colors=used,
            list_masks=instance.list_masks(uncolored),
        )
        coloring.update(new)

    if tracker is not None:
        tracker.merge(own)
    return ListColoringResult(
        colors=coloring,
        num_colors=len(set(coloring.values())),
        color_space=instance.color_space,
        bound=bound,
        rounds=own.total,
        outer_iterations=outer,
        level_degrees=level_degrees,
    )
