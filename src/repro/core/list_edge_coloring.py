"""(degree+1)-list edge coloring in the LOCAL model (Section 7 / Appendix D).

Three layers, mirroring the paper:

* :func:`solve_relaxed_instance` — the Lemma D.2 solver.  On a 2-colored
  bipartite (sub)graph whose edges satisfy ``|L_e| ≥ deg(e) + 1`` it
  recursively halves the color space, using the generalized defective
  2-edge coloring of Section 5 with λ_e = |L_e ∩ left half| / |L_e| to
  split the edges, sends low-degree / low-slack edges to per-level
  *passive* sets, and finally colors the passive sets greedily from the
  deepest level upwards.  An additional post-split check (see DESIGN.md
  §3) re-passivates any edge whose list would become smaller than its new
  degree + 1, so the output is a correct list coloring for *every* input
  satisfying the (degree+1) condition, independent of how well the
  defective splits performed.  Every list and every recursion window is
  a color bitmask (bit ``c`` set iff color ``c`` is usable): a split is
  an OR, a median bit and two ANDs, and a passive edge takes the lowest
  free bit of its window.  All parts of one recursion level split in one
  :func:`~repro.core.defective_edge_coloring.defective_split_level` call:
  in the distributed model they run in parallel, and the numpy engine
  orients them in lock-step.

* :func:`partially_color_bipartite` — the Lemma D.3 substitute (DESIGN.md
  §3.3).  It splits the uncolored bipartite graph into
  ``params.list_reduction_parts`` edge-disjoint parts with λ = 1/2
  defective splits (one level-wide call per split level) and colors the
  parts sequentially with the Lemma D.2 solver, where an edge
  participates only while its available list is at least
  ``params.list_slack`` times its uncolored within-part degree.
  Edges that stay uncolored were skipped, and an edge is only skipped
  when its uncolored degree is already small — which is exactly the
  degree-reduction guarantee Lemma D.3 provides.  Availability is one
  mask-and against the per-node used-color masks, participation one
  popcount.

* :func:`list_edge_coloring` — Theorem D.4.  A defective 4-coloring of
  the nodes splits the uncolored graph into bipartite class pairs; each
  pair is partially colored with :func:`partially_color_bipartite`; the
  uncolored degree shrinks by a constant factor per outer iteration, and
  the constant-degree leftover is colored greedily.  The (degree+1)
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
    degrees_within,
    generalized_defective_two_edge_coloring,  # noqa: F401 - perfbench/layers.py patches it
)
from repro.core.slack import ListEdgeColoringInstance, uniform_instance
from repro.distributed.rounds import RoundTracker
from repro.graphs.bipartite import Bipartition
from repro.graphs.core import Graph


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


def _color_mask(colors: Sequence[int]) -> int:
    """The bitmask of a color list: bit ``c`` is set iff ``c`` is in ``colors``."""
    mask = 0
    for c in colors:
        mask |= 1 << c
    return mask


# ---------------------------------------------------------------------------- Lemma D.2
def solve_relaxed_instance(
    graph: Graph,
    bipartition: Bipartition,
    lists: Optional[Dict[int, Sequence[int]]],
    edge_set: Optional[Iterable[int]] = None,
    params: Optional[parameters.PracticalParameters] = None,
    tracker: Optional[RoundTracker] = None,
    scan_path: str = "auto",
    list_masks: Optional[Dict[int, int]] = None,
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
    defective_split_level` call: the union
    is the OR of the windows, λ_e is the share of the window below the
    median, and a survivor keeps the half its side of the split chose.
    A passive edge takes the smallest color of its window that is free
    at both endpoints, so on sorted lists the pick is the first available
    list color.

    Args:
        graph: the host graph.
        bipartition: node sides.
        lists: per-edge available color lists (already excluding the
            colors of adjacent edges colored before this call); ``None``
            when ``list_masks`` is given instead.
        edge_set: instance edges (defaults to the keys of the lists).
        params: practical parameter overrides.
        tracker: optional round tracker.
        scan_path: orientation engine selector, forwarded to
            :func:`repro.core.defective_edge_coloring.
            defective_split_level` for every split level.
        list_masks: the lists as per-edge color bitmasks, in place of
            ``lists``.
        used_colors: caller-owned per-node used-color masks of the
            colors outside the instance (the lists must already exclude
            them); the greedy passes read them and add their colors **in
            place**.  Defaults to no colors outside the instance.

    Returns the colors chosen for the instance edges.
    """
    params = params or parameters.DEFAULT_PARAMETERS
    own = RoundTracker()
    edges: List[int] = sorted(
        set(edge_set) if edge_set is not None else (lists if list_masks is None else list_masks)
    )
    if list_masks is None:
        list_masks = {e: _color_mask(lists[e]) for e in edges}
    if not edges:
        return {}

    degrees = degrees_within(graph, edges)[1]
    color_union = 0
    for e, degree in zip(edges, degrees):
        size = list_masks[e].bit_count()
        if size < degree + 1:
            raise ValueError(
                f"edge {e} has {size} available colors but degree {degree}; "
                "the (degree+1) condition is violated"
            )
        color_union |= list_masks[e]
    max_levels = max(1, math.ceil(math.log2(max(2, color_union.bit_count()))) + 1)

    parts: List[_Part] = [_Part(edges=edges, windows=list_masks, degrees=degrees)]
    #: Per level, the windows of the edges that turned passive there.
    passive_levels: List[Dict[int, int]] = []

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
        # for the level — so the level costs the maximum over the parts.
        splits = defective_split_level(
            graph,
            bipartition,
            actives,
            lambdas,
            epsilon=epsilon,
            betas=betas,
            nu=params.resolved_nu(),
            scan_path=scan_path,
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
        own.charge(max((split.rounds for split in splits), default=0), "list-solver-split-level")
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
        schedule = proper_edge_schedule(graph, batch, tracker=own, scan_path=scan_path)
        result.update(
            greedy_edge_coloring_by_classes(
                graph, schedule, tracker=own, used_colors=used, list_masks=batch
            )
        )

    if tracker is not None:
        tracker.merge(own)
    return result


# ---------------------------------------------------------------------------- Lemma D.3 substitute
def partially_color_bipartite(
    graph: Graph,
    bipartition: Bipartition,
    instance: ListEdgeColoringInstance,
    edge_set: Iterable[int],
    coloring: Dict[int, int],
    params: Optional[parameters.PracticalParameters] = None,
    tracker: Optional[RoundTracker] = None,
    scan_path: str = "auto",
    used_colors: Optional[UsedColorMasks] = None,
) -> Dict[int, int]:
    """Partially color a bipartite piece so that its uncolored degree drops (Lemma D.3).

    The uncolored edges of ``edge_set`` (any order; repeats are ignored)
    are split into ``params.list_reduction_parts`` edge-disjoint parts
    (repeated λ = 1/2 defective splits, every part of a split level in
    one :func:`~repro.core.defective_edge_coloring.defective_split_level`
    call); the parts are then colored sequentially with
    :func:`solve_relaxed_instance`, where an
    edge participates only if its currently available list is at least
    ``params.list_slack`` times its uncolored within-part degree (and at
    least that degree + 1).  Edges skipped this way already have a small
    uncolored degree, which is the degree-reduction guarantee.
    ``scan_path`` selects the orientation engine of every defective
    split (``"auto"`` / ``"numpy"`` / ``"python"``).

    An edge's available list is the bitmask ``list & ~(used[u] | used[v])``
    of its instance list minus the colors used at its endpoints.
    ``used_colors`` is the caller's :class:`UsedColorMasks` for
    ``coloring``; the new colors land in it in place.  Without it, masks
    are built from ``coloring``.

    Returns the newly assigned colors (``coloring`` itself is not modified).
    """
    params = params or parameters.DEFAULT_PARAMETERS
    own = RoundTracker()
    edges = sorted({e for e in edge_set if e not in coloring})
    newly: Dict[int, int] = {}
    if not edges:
        return newly

    split_levels = max(1, math.ceil(math.log2(max(2, params.list_reduction_parts))))
    # Every part carries its edge degrees; a split hands its classes'
    # degrees to the next level.
    parts: List[Tuple[List[int], List[int]]] = [(edges, degrees_within(graph, edges)[1])]
    for _ in range(split_levels):
        splitting = [
            index
            for index, (part, degrees) in enumerate(parts)
            if len(part) > 1 and max(degrees) > 1
        ]
        # Parts are edge-disjoint: the splits of one level run in parallel
        # (one engine call), and the level costs the max over the parts.
        splits = dict(
            zip(
                splitting,
                defective_split_level(
                    graph,
                    bipartition,
                    [parts[index][0] for index in splitting],
                    None,
                    epsilon=max(params.epsilon, 0.5),
                    betas=[params.beta(max(parts[index][1])) for index in splitting],
                    nu=params.resolved_nu(),
                    scan_path=scan_path,
                ),
            )
        )
        next_parts: List[Tuple[List[int], List[int]]] = []
        for index, part in enumerate(parts):
            split = splits.get(index)
            if split is None:
                next_parts.append(part)
            else:
                next_parts.append((split.red, split.red_degrees))
                next_parts.append((split.blue, split.blue_degrees))
        own.charge(
            max((split.rounds for split in splits.values()), default=0),
            "degree-reduction-split-level",
        )
        parts = [part for part in next_parts if part[0]]

    used = (
        used_colors
        if used_colors is not None
        else UsedColorMasks.from_edge_coloring(graph, coloring)
    )
    node_mask = used.mask
    edge_u, edge_v = graph.endpoint_arrays()
    lists = instance.lists
    # Participation threshold per uncolored degree, memoized (the same
    # few degree values recur across all parts).
    list_slack = params.list_slack
    threshold_memo: Dict[int, int] = {}
    # The parts are edge-disjoint and only a part's own solve colors its
    # edges, so every part is still entirely uncolored when its turn comes.
    for part, part_degrees in parts:
        participants: Dict[int, int] = {}
        # Equal neighbouring lists (all of them, in a uniform instance)
        # share one mask build; the comparison runs at C speed.
        last_list: Sequence[int] = ()
        last_mask = 0
        for e, degree in zip(part, part_degrees):
            if lists[e] != last_list:
                last_list = lists[e]
                last_mask = _color_mask(last_list)
            available = last_mask & ~(node_mask(edge_u[e]) | node_mask(edge_v[e]))
            threshold = threshold_memo.get(degree)
            if threshold is None:
                threshold = max(degree + 1, math.ceil(list_slack * degree))
                threshold_memo[degree] = threshold
            if available.bit_count() >= threshold:
                participants[e] = available
        if not participants:
            continue
        newly.update(
            solve_relaxed_instance(
                graph,
                bipartition,
                None,
                params=params,
                tracker=own,
                scan_path=scan_path,
                list_masks=participants,
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
    scan_path: str = "auto",
) -> ListColoringResult:
    """Solve the (degree+1)-list edge coloring problem (Theorems 1.1 / D.4).

    Args:
        graph: the input graph.
        instance: the list instance; defaults to the uniform (2Δ−1)-list
            instance, in which case the output is a (2Δ−1)-edge coloring.
        params: practical parameter overrides.
        tracker: optional round tracker.
        scan_path: orientation engine selector (``"auto"`` / ``"numpy"``
            / ``"python"``), forwarded to every defective split the
            recursion performs; both forced engines are bit-identical.

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
    # instead of rescanning every graph edge twice per level, and its
    # degrees come from a zero-copy EdgeSubsetView instead of building a
    # fresh Graph per level.
    edge_u, edge_v = graph.endpoint_arrays()
    uncolored: List[int] = list(graph.edges())

    while True:
        if not uncolored:
            break
        view = graph.edge_subset_view(uncolored)
        current_delta = view.max_degree
        level_degrees.append(current_delta)
        if current_delta <= params.final_degree or outer >= max_outer:
            break
        outer += 1

        classes, _defect = defective_split_coloring(
            view,
            num_classes=4,
            epsilon=0.125,
            proper_coloring=vertex_colors,
            proper_num_colors=vertex_color_count,
            tracker=own,
            scan_path=scan_path,
        )
        # Bucket the uncolored edges by their (unordered) class pair in
        # one pass; the pairs are edge-disjoint, so the per-pair lists
        # cannot be invalidated by the other pairs' colorings.
        pair_buckets: Dict[Tuple[int, int], List[int]] = {}
        for e in uncolored:
            cu = classes[edge_u[e]]
            cv = classes[edge_v[e]]
            if cu != cv:
                key = (cu, cv) if cu < cv else (cv, cu)
                bucket = pair_buckets.get(key)
                if bucket is None:
                    pair_buckets[key] = [e]
                else:
                    bucket.append(e)
        for class_a in range(4):
            for class_b in range(class_a + 1, 4):
                pair_edges = pair_buckets.get((class_a, class_b))
                if not pair_edges:
                    continue
                bipartition = Bipartition(
                    [0 if classes[v] == class_a else 1 for v in graph.nodes()]
                )
                new = partially_color_bipartite(
                    graph,
                    bipartition,
                    instance,
                    pair_edges,
                    coloring,
                    params=params,
                    tracker=own,
                    scan_path=scan_path,
                    used_colors=used,
                )
                coloring.update(new)
        uncolored = [e for e in uncolored if e not in coloring]

    # Final stage: the uncolored graph has small degree; greedy from the
    # instance lists against the shared used-color masks.
    if uncolored:
        schedule = proper_edge_schedule(graph, uncolored, tracker=own, scan_path=scan_path)
        new = greedy_edge_coloring_by_classes(
            graph,
            schedule,
            lists=instance.lists,
            edge_set=set(uncolored),
            tracker=own,
            used_colors=used,
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
