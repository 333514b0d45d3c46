"""Bounded incremental repair: the canonical coloring and its twin paths.

The serving plane maintains one invariant across every delta it absorbs:
the artifact's coloring is always **the** canonical priority-greedy edge
coloring of the current graph.  The canonical coloring is defined purely
by the edge set (and the sparse demand lists):

    Order edges by their normalized endpoint pair ``(u, v)`` with
    ``u < v``, lexicographically.  Every edge receives the smallest
    allowed color (smallest member of its demand list, or the minimum
    excludant of an open palette) that is not used by any
    *higher-priority* adjacent edge — an adjacent edge with a smaller
    pair.

Because each edge's color is a function of strictly higher-priority
colors only, the coloring is a unique deterministic fixed point of the
edge set: *any* procedure that reaches the fixed point produces
bit-identical colors.  That is the twin discipline of this module:

* :func:`canonical_rows` walks every edge in pair order — the obvious
  O(m) construction, and the one implementation of the rule.  It writes
  color rows: :func:`~repro.serving.artifact.build_artifact` adopts
  them as the artifact's, the ``recompute`` repair path and the
  past-budget fallback refill the artifact's rows from them, and
  ``verify`` compares the artifact's rows with them;
  :func:`full_recompute` reads them off as a pair-keyed dict;
* :func:`apply_insert` / :func:`apply_delete` / :func:`apply_set_list`
  repair the coloring after a single delta by processing a min-heap
  worklist of *possibly-affected* edges in pair order — the
  ``incremental`` path, O(repair radius) instead of O(m).

The engine works node by node, as the paper's LOCAL algorithms do: it
reads and writes the coloring in the artifact graph's color rows
(:meth:`repro.graphs.DeltaGraph.color_row`), one color list aligned
with each node's sorted neighbor row.  A popped edge ``(u, v)`` finds
its slot in both rows with one bisection each; its higher-priority
neighbors are the two row prefixes before those slots, its
lower-priority neighbors the two suffixes after them, and a recolor
writes the two slots.  No pair-keyed coloring is looked up; a pair is
built only for an edge that is pushed on the worklist.

Worklist correctness rests on one invariant: every edge pushed while
popping edge ``p`` has a strictly larger pair than ``p``, and the heap
pops in increasing pair order, so when an edge is popped all of its
higher-priority neighbors already carry final colors.  Each edge is
popped at most once per delta (a later pop can only push edges larger
than itself, hence larger than anything already popped).

The cascade is pruned with an exact affectedness test.  When a
higher-priority neighbor of ``f`` changes color from ``c_old`` to
``c_new``, the canonical color of ``f`` can change only if

* ``color(f) == c_new`` — ``f`` is now in conflict, or
* ``color(f) > c_old`` — ``c_old`` may have been freed below ``f``
  (deletions and recolors free a color; pure insertions free nothing).

Anything else leaves ``f``'s greedy scan unchanged: a newly blocked
color above ``color(f)`` is never reached, and a newly blocked color
below ``color(f)`` was necessarily already blocked (otherwise the scan
would have chosen it, not ``color(f)``).

Mid-worklist the coloring is transiently *improper* — a just-inserted
or just-recolored edge may share a color with a lower-priority neighbor
until that neighbor is popped.  This is why the engine computes blocked
sets by scanning the higher-priority neighbor colors directly: per-node
used-color bitmasks cannot represent the transient multiplicity, and
they would include lower-priority colors too.

A delta that pops more than ``radius_limit`` edges is a *fallback*.  It
keeps draining the same heap, up to a recompute-sized budget of
``max(radius_limit, num_edges // EDGES_PER_POP)`` pops; only past that
budget does it abandon the worklist for :func:`canonical_rows` on the
mutated graph.  Both routes reach the same fixed point, because every
pop is final in pair order, so the result stays bit-identical; only the
:class:`RepairReport` cost fields differ, and those never enter result
digests.

A delta the repair cannot absorb (a demand list exhausted mid-worklist)
raises :class:`RepairError` and leaves no trace: the edge set, the
demand lists and the epoch are put back, and a recompute restores the
old coloring (the unique fixed point of the old state), so nothing is
journaled and no epoch is consumed.  A deleted edge's demand list goes
with it; a re-inserted edge starts with an open palette.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.graphs.delta import _pair

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.artifact import ColoringArtifact

Pair = Tuple[int, int]

#: Recognized values of the ``repair_path`` knob.
REPAIR_PATHS = ("auto", "incremental", "recompute")

#: Default repair radius (worklist pops) past which a delta counts as a
#: fallback.
DEFAULT_RADIUS_LIMIT = 256

#: A fallback's drain budget is ``num_edges // EDGES_PER_POP`` pops (or
#: ``radius_limit``, if larger).  One pop costs as much as ≈4-6
#: recomputed edges (≈5 µs against ≈1.1 µs at n=20000, Δ=8, CPython
#: 3.11 on a 2-vCPU Xeon), so a delta that spends the whole budget costs
#: at most ≈1.3x a plain recompute.  The value stays 16 (set when a pop
#: cost ≈13 µs): it decides which deltas recompute, so it is part of
#: every ``RepairReport``'s ``touched`` count.
EDGES_PER_POP = 16


class RepairError(ValueError):
    """A delta cannot be absorbed (e.g. an edge's demand list is exhausted).

    ``code`` is the stable machine-readable failure class from
    :data:`repro.serving.protocol.ERROR_CODES` (default
    ``"repair-failed"``); the serving plane folds it into the
    structured error response so clients never parse message text.
    """

    def __init__(self, message: str, *, code: str = "repair-failed") -> None:
        super().__init__(message)
        self.code = code


def resolve_repair_path(value: Optional[str]) -> str:
    """Normalize a ``repair_path`` knob value to a concrete path.

    ``auto`` (and ``None``) resolve to ``incremental`` — the path the
    serving plane exists for; ``recompute`` forces the from-scratch
    twin.  Unknown values raise ``ValueError``.
    """
    if value is None or value == "auto":
        return "incremental"
    if value not in REPAIR_PATHS:
        raise ValueError(
            f"unknown repair_path {value!r}; expected one of {REPAIR_PATHS}"
        )
    return value


def normalize_list(colors: Iterable[int]) -> Tuple[int, ...]:
    """Canonicalize a demand list: sorted distinct non-negative ints.

    The canonical rule says "smallest member of the list", so list order
    must not carry information — normalization makes that explicit.
    """
    normalized = tuple(sorted(set(int(c) for c in colors)))
    if not normalized:
        raise RepairError("a demand list must contain at least one color", code="bad-list")
    if normalized[0] < 0:
        raise RepairError(
            f"demand list contains negative color {normalized[0]}", code="bad-list"
        )
    return normalized


def choose_color(blocked: int, demand: Optional[Tuple[int, ...]]) -> int:
    """The canonical color under a blocked-color bitmask.

    Open palette: the minimum excludant of ``blocked``.  Demand list:
    the smallest listed color whose bit is clear; raises
    :class:`RepairError` when the list is exhausted.
    """
    if demand is None:
        # Lowest clear bit: ``blocked + 1`` flips the trailing run of
        # set bits, so ``~blocked & (blocked + 1)`` keeps just that bit.
        return (~blocked & (blocked + 1)).bit_length() - 1
    for c in demand:
        if not (blocked >> c) & 1:
            return c
    raise RepairError(
        f"demand list {demand} exhausted (blocked mask {blocked:#x})",
        code="list-exhausted",
    )


@dataclass(frozen=True)
class RepairReport:
    """Cost accounting for one absorbed delta.

    These are *path-dependent* observables (the two repair paths touch
    different numbers of edges while converging on the same coloring),
    so the serving runner routes them into ``timing``-style metadata —
    never into result payloads that cross-path diffs compare.
    """

    op: str
    path: str
    epoch: int
    touched: int
    recolored: int
    fallback: bool


# --------------------------------------------------------------------- twins
def canonical_rows(
    graph,
    lists: Optional[Dict[Pair, Tuple[int, ...]]] = None,
) -> List[List[int]]:
    """The canonical coloring from scratch, as color rows: row ``u`` is
    aligned with ``graph.neighbors(u)``, as :meth:`DeltaGraph.color_row
    <repro.graphs.DeltaGraph.color_row>` is.

    ``graph`` is a :class:`repro.graphs.DeltaGraph` or a CSR ``Graph``
    (both read sorted neighbor rows); ``lists`` maps a sparse subset of
    pairs to normalized demand lists.  The walk is node ``u``, then the
    part of ``u``'s row above ``u``: the edges in pair order.  Each edge
    takes the canonical color over its endpoints' used-color masks.
    Node ``u``'s slots below ``u`` were appended while their smaller
    endpoints were walked, so every row fills by appends, and no pair
    or ``(pair, color)`` container is built for an edge without a list.
    """
    n = graph.num_nodes
    neighbors = graph.neighbors
    rows: List[List[int]] = [[] for _ in range(n)]
    masks = [0] * n
    for u in range(n):
        row = neighbors(u)
        colors_u = rows[u]
        used = masks[u]
        for v in row[bisect_right(row, u) :]:
            c = choose_color(used | masks[v], lists.get((u, v)) if lists else None)
            bit = 1 << c
            used |= bit
            masks[v] |= bit
            colors_u.append(c)
            rows[v].append(c)
    return rows


def full_recompute(
    graph,
    lists: Optional[Dict[Pair, Tuple[int, ...]]] = None,
) -> Dict[Pair, int]:
    """The canonical coloring from scratch as a pair-keyed dict, in pair
    order, read off :func:`canonical_rows`: the pair-keyed oracle for
    callers that compare against :attr:`ColoringArtifact.colors`."""
    colors: Dict[Pair, int] = {}
    for u, colors_u in enumerate(canonical_rows(graph, lists)):
        row = graph.neighbors(u)
        i = bisect_right(row, u)
        for v, c in zip(row[i:], colors_u[i:]):
            colors[u, v] = c
    return colors


def _run_worklist(
    artifact: "ColoringArtifact",
    op: str,
    path: str,
    epoch: int,
    seeds: Iterable[Pair],
    radius_limit: Optional[int],
    own: int = 0,
) -> RepairReport:
    """Restore the fixed point after a delta on ``path`` and report its cost.

    ``recompute`` skips the worklist.  Otherwise the heap is drained, and
    the delta is a fallback iff it pops more than ``radius_limit`` edges.
    A fallback keeps popping until the heap is empty or the budget of
    ``max(radius_limit, num_edges // EDGES_PER_POP)`` pops is spent; past
    the budget it recomputes the whole coloring, and ``touched`` then also
    counts the ``num_edges`` recomputed edges.  ``own`` is the delta's own
    edge when the caller already colored it (an insert).
    """
    graph = artifact.graph
    if path == "recompute":
        _fallback_recompute(artifact)
        return RepairReport(op, path, epoch, graph.num_edges, 0, False)
    limit = DEFAULT_RADIUS_LIMIT if radius_limit is None else radius_limit
    budget = max(limit, graph.num_edges // EDGES_PER_POP)
    heap: List[Pair] = []
    queued: Set[Pair] = set()
    for key in seeds:
        if key not in queued:
            queued.add(key)
            heappush(heap, key)
    pops = 0
    recolored = own
    lists = artifact.lists
    neighbors = graph.neighbors
    color_row = graph.color_row
    while heap:
        key = heappop(heap)
        queued.discard(key)
        pops += 1
        if pops > budget:
            _fallback_recompute(artifact)
            touched = own + pops + graph.num_edges
            return RepairReport(op, path, epoch, touched, recolored, True)
        # The higher-priority neighbors of (u, v), u < v, are two row
        # prefixes: u's neighbors below v and v's neighbors below u.  The
        # rows' suffixes past v and u are the lower-priority ones.  The
        # color rows are aligned, so the same positions read the colors.
        u, v = key
        row_u = neighbors(u)
        row_v = neighbors(v)
        colors_u = color_row(u)
        colors_v = color_row(v)
        iu = bisect_left(row_u, v)
        iv = bisect_left(row_v, u)
        blocked = 0
        for c in colors_u[:iu]:
            blocked |= 1 << c
        for c in colors_v[:iv]:
            blocked |= 1 << c
        c_old = colors_u[iu]
        c_new = choose_color(blocked, lists.get(key) if lists else None)
        if c_new == c_old:
            continue
        recolored += 1
        colors_u[iu] = colors_v[iv] = c_new
        artifact._recolor(c_old, c_new)  # noqa: SLF001 - engine is the friend
        # Exact affectedness test (module docstring): only lower-priority
        # neighbors that now conflict with c_new or might reclaim c_old.
        for j in range(iu + 1, len(row_u)):
            cf = colors_u[j]
            if cf == c_new or cf > c_old:
                q = (u, row_u[j])
                if q not in queued:
                    queued.add(q)
                    heappush(heap, q)
        for j in range(iv + 1, len(row_v)):
            cf = colors_v[j]
            if cf == c_new or cf > c_old:
                w = row_v[j]
                q = (w, v) if w < v else (v, w)
                if q not in queued:
                    queued.add(q)
                    heappush(heap, q)
    return RepairReport(op, path, epoch, own + pops, recolored, pops > limit)


def _fallback_recompute(artifact: "ColoringArtifact") -> None:
    rows = canonical_rows(artifact.graph, artifact.lists)
    artifact._adopt_rows(rows)  # noqa: SLF001 - engine is the friend


def _restore(artifact: "ColoringArtifact", epoch: int) -> None:
    """Finish undoing a delta that raised :class:`RepairError` mid-repair.

    The caller has already put the edge set and the demand lists back;
    this rewinds the epoch to ``epoch`` and restores the coloring.  The
    old state's coloring is its unique fixed point, so a recompute
    restores it exactly — O(m), on the error path only.
    """
    artifact._rewind(epoch)  # noqa: SLF001 - engine is the friend
    _fallback_recompute(artifact)


def _lower_neighbors(graph, key: Pair, keep: Callable[[int], bool]) -> List[Pair]:
    """The lower-priority neighbors of edge ``key`` whose color passes
    ``keep``: the slots past the edge's own in both endpoint rows."""
    u, v = key
    row_u, row_v = graph.neighbors(u), graph.neighbors(v)
    colors_u, colors_v = graph.color_row(u), graph.color_row(v)
    iu = bisect_left(row_u, v)
    iv = bisect_left(row_v, u)
    lower = [(u, w) for w, c in zip(row_u[iu + 1 :], colors_u[iu + 1 :]) if keep(c)]
    lower += [
        (w, v) if w < v else (v, w)
        for w, c in zip(row_v[iv + 1 :], colors_v[iv + 1 :])
        if keep(c)
    ]
    return lower


# -------------------------------------------------------------------- deltas
def apply_insert(
    artifact: "ColoringArtifact",
    u: int,
    v: int,
    *,
    path: str = "auto",
    radius_limit: Optional[int] = None,
) -> RepairReport:
    """Insert edge ``{u, v}`` and restore the canonical coloring."""
    path = resolve_repair_path(path)
    key = _pair(u, v)
    graph = artifact.graph
    old_epoch = artifact.epoch
    graph.insert_edge(u, v)
    epoch = artifact.epoch
    try:
        # Color the new edge first (its canonical color depends only on
        # higher-priority neighbors, all final: the prefixes of both rows
        # before its slot).  An insertion only *adds* constraints, so the
        # only directly affected edges are lower-priority neighbors
        # already wearing the new edge's color.
        a, b = key
        row_a, row_b = graph.neighbors(a), graph.neighbors(b)
        blocked = 0
        for c in graph.color_row(a)[: bisect_left(row_a, b)]:
            blocked |= 1 << c
        for c in graph.color_row(b)[: bisect_left(row_b, a)]:
            blocked |= 1 << c
        c_new = choose_color(blocked, artifact.lists.get(key))
        graph.set_color(a, b, c_new)
        artifact._assign(c_new)  # noqa: SLF001
        seeds = _lower_neighbors(graph, key, lambda c: c == c_new)
        return _run_worklist(artifact, "insert", path, epoch, seeds, radius_limit, own=1)
    except RepairError:
        graph.delete_edge(u, v)
        _restore(artifact, old_epoch)
        raise


def apply_delete(
    artifact: "ColoringArtifact",
    u: int,
    v: int,
    *,
    path: str = "auto",
    radius_limit: Optional[int] = None,
) -> RepairReport:
    """Delete edge ``{u, v}`` (and its demand list) and restore the
    canonical coloring."""
    path = resolve_repair_path(path)
    key = _pair(u, v)
    graph = artifact.graph
    if not graph.has_edge(u, v):
        raise RepairError(f"edge {key} is not present", code="absent-edge")
    # Seeds must be collected *before* the edge disappears from the
    # rows: lower-priority neighbors that might now reclaim the freed
    # color ``c_del``.
    a, b = key
    c_del = graph.color_row(a)[bisect_left(graph.neighbors(a), b)]
    seeds = _lower_neighbors(graph, key, lambda c: c > c_del)
    old_epoch = artifact.epoch
    graph.delete_edge(u, v)
    # The demand list belongs to the edge: a re-inserted edge starts
    # with an open palette.
    demand = artifact.lists.pop(key, None)
    epoch = artifact.epoch
    artifact._unassign(c_del)  # noqa: SLF001
    try:
        return _run_worklist(artifact, "delete", path, epoch, seeds, radius_limit)
    except RepairError:
        graph.insert_edge(u, v)
        if demand is not None:
            artifact.lists[key] = demand
        _restore(artifact, old_epoch)
        raise


def apply_set_list(
    artifact: "ColoringArtifact",
    u: int,
    v: int,
    colors: Optional[Sequence[int]],
    *,
    path: str = "auto",
    radius_limit: Optional[int] = None,
) -> RepairReport:
    """Change (or clear, with ``None``) the demand list of edge ``{u, v}``.

    A demand change is a *constraint* delta, not a graph delta — the
    edge set is unchanged, but the edge's canonical color may move,
    which cascades exactly like a recolor.  The artifact's epoch is
    bumped so caches keyed on it invalidate.
    """
    path = resolve_repair_path(path)
    key = _pair(u, v)
    if not artifact.graph.has_edge(u, v):
        raise RepairError(f"edge {key} is not present", code="absent-edge")
    old_epoch = artifact.epoch
    demand = artifact.lists.get(key)
    if colors is None:
        artifact.lists.pop(key, None)
    else:
        artifact.lists[key] = normalize_list(colors)
    # Demand deltas version through the artifact, not the graph overlay.
    epoch = artifact._bump_epoch()  # noqa: SLF001
    try:
        return _run_worklist(artifact, "set_list", path, epoch, [key], radius_limit)
    except RepairError:
        if demand is None:
            artifact.lists.pop(key, None)
        else:
            artifact.lists[key] = demand
        _restore(artifact, old_epoch)
        raise
