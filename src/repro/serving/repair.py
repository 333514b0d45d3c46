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

* :func:`full_recompute` walks every edge in pair order — the obvious
  O(m) construction, and the ``recompute`` repair path;
* :func:`apply_insert` / :func:`apply_delete` / :func:`apply_set_list`
  repair the coloring after a single delta by processing a min-heap
  worklist of *possibly-affected* edges in pair order — the
  ``incremental`` path, O(repair radius) instead of O(m).

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

When the number of popped edges exceeds ``radius_limit`` the engine
abandons the worklist and falls back to :func:`full_recompute` on the
mutated graph — a different route to the same fixed point, so the
result stays bit-identical; only the :class:`RepairReport` cost fields
differ, and those never enter result digests.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.artifact import ColoringArtifact

Pair = Tuple[int, int]

#: Recognized values of the ``repair_path`` knob.
REPAIR_PATHS = ("auto", "incremental", "recompute")

#: Default worklist budget before the incremental path falls back to a
#: from-scratch recompute of the mutated graph.
DEFAULT_RADIUS_LIMIT = 256


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


def _pair(u: int, v: int) -> Pair:
    return (u, v) if u < v else (v, u)


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

    def as_dict(self) -> Dict[str, object]:
        return {
            "op": self.op,
            "path": self.path,
            "epoch": self.epoch,
            "touched": self.touched,
            "recolored": self.recolored,
            "fallback": self.fallback,
        }


# --------------------------------------------------------------------- twins
def full_recompute(
    graph,
    lists: Optional[Dict[Pair, Tuple[int, ...]]] = None,
) -> Dict[Pair, int]:
    """The canonical coloring from scratch: every edge in pair order.

    ``graph`` is anything with ``edge_pairs()`` (a
    :class:`repro.graphs.DeltaGraph` or a CSR ``Graph``); ``lists`` maps
    a sparse subset of pairs to normalized demand lists.
    """
    lists = lists or {}
    if hasattr(graph, "edge_pairs"):
        pairs = graph.edge_pairs()
    else:  # CSR Graph: endpoint pairs by edge index
        pairs = (graph.edge_endpoints(e) for e in graph.edges())
    colors: Dict[Pair, int] = {}
    masks: Dict[int, int] = {}
    for key in sorted(pairs):
        u, v = key
        blocked = masks.get(u, 0) | masks.get(v, 0)
        c = choose_color(blocked, lists.get(key))
        colors[key] = c
        bit = 1 << c
        masks[u] = masks.get(u, 0) | bit
        masks[v] = masks.get(v, 0) | bit
    return colors


def _run_worklist(
    artifact: "ColoringArtifact",
    seeds: Iterable[Pair],
    radius_limit: int,
) -> Tuple[int, int, bool]:
    """Drain the repair worklist; returns ``(touched, recolored, overflow)``.

    On overflow (more than ``radius_limit`` pops) the artifact is left
    mid-repair and the caller must fall back to a full recompute.
    """
    heap: List[Pair] = []
    queued: Set[Pair] = set()
    for key in seeds:
        if key not in queued:
            queued.add(key)
            heappush(heap, key)
    touched = 0
    recolored = 0
    graph = artifact.graph
    colors = artifact.colors
    lists = artifact.lists
    while heap:
        key = heappop(heap)
        queued.discard(key)
        touched += 1
        if touched > radius_limit:
            return touched, recolored, True
        # One adjacency pass per pop: higher-priority neighbors feed the
        # blocked mask, lower-priority ones are kept as push candidates.
        blocked = 0
        lower: List[Pair] = []
        for a, b in (key, (key[1], key[0])):
            for w in graph.neighbors(a):
                if w == b:
                    continue
                q = (a, w) if a < w else (w, a)
                if q < key:
                    blocked |= 1 << colors[q]
                else:
                    lower.append(q)
        c_old = colors[key]
        c_new = choose_color(blocked, lists.get(key))
        if c_new == c_old:
            continue
        recolored += 1
        artifact._recolor(key, c_old, c_new)  # noqa: SLF001 - engine is the friend
        # Exact affectedness test (module docstring): only lower-priority
        # neighbors that now conflict with c_new or might reclaim c_old.
        for q in lower:
            if q not in queued:
                cf = colors[q]
                if cf == c_new or cf > c_old:
                    queued.add(q)
                    heappush(heap, q)
    return touched, recolored, False


def _fallback_recompute(artifact: "ColoringArtifact") -> None:
    colors = full_recompute(artifact.graph, artifact.lists)
    artifact._replace_coloring(colors)  # noqa: SLF001 - engine is the friend


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
    limit = DEFAULT_RADIUS_LIMIT if radius_limit is None else radius_limit
    key = _pair(u, v)
    artifact.graph.insert_edge(u, v)
    epoch = artifact.epoch
    if path == "recompute":
        _fallback_recompute(artifact)
        return RepairReport("insert", path, epoch, artifact.graph.num_edges, 0, False)
    # Color the new edge first (its canonical color depends only on
    # higher-priority neighbors, all final).  An insertion only *adds*
    # constraints, so the only directly affected edges are
    # lower-priority neighbors already wearing the new edge's color.
    colors = artifact.colors
    blocked = 0
    lower: List[Pair] = []
    for a, b in (key, (key[1], key[0])):
        for w in artifact.graph.neighbors(a):
            if w == b:
                continue
            q = (a, w) if a < w else (w, a)
            if q < key:
                blocked |= 1 << colors[q]
            else:
                lower.append(q)
    c_new = choose_color(blocked, artifact.lists.get(key))
    artifact._assign(key, c_new)  # noqa: SLF001
    seeds = [q for q in lower if colors[q] == c_new]
    touched, recolored, overflow = _run_worklist(artifact, seeds, limit)
    if overflow:
        _fallback_recompute(artifact)
        return RepairReport(
            "insert", path, epoch, touched + artifact.graph.num_edges, recolored, True
        )
    return RepairReport("insert", path, epoch, touched + 1, recolored + 1, False)


def apply_delete(
    artifact: "ColoringArtifact",
    u: int,
    v: int,
    *,
    path: str = "auto",
    radius_limit: Optional[int] = None,
) -> RepairReport:
    """Delete edge ``{u, v}`` and restore the canonical coloring."""
    path = resolve_repair_path(path)
    limit = DEFAULT_RADIUS_LIMIT if radius_limit is None else radius_limit
    key = _pair(u, v)
    if not artifact.graph.has_edge(u, v):
        raise RepairError(f"edge {key} is not present", code="absent-edge")
    c_del = artifact.colors[key]
    # Seeds must be collected *before* the edge disappears from
    # neighbor rows: lower-priority neighbors that might now reclaim
    # the freed color ``c_del``.
    seeds: List[Pair] = []
    for a, b in (key, (key[1], key[0])):
        for w in artifact.graph.neighbors(a):
            if w == b:
                continue
            q = (a, w) if a < w else (w, a)
            if q > key and artifact.colors[q] > c_del:
                seeds.append(q)
    artifact.graph.delete_edge(u, v)
    epoch = artifact.epoch
    artifact._unassign(key, c_del)  # noqa: SLF001
    if path == "recompute":
        _fallback_recompute(artifact)
        return RepairReport("delete", path, epoch, artifact.graph.num_edges, 0, False)
    touched, recolored, overflow = _run_worklist(artifact, seeds, limit)
    if overflow:
        _fallback_recompute(artifact)
        return RepairReport(
            "delete", path, epoch, touched + artifact.graph.num_edges, recolored, True
        )
    return RepairReport("delete", path, epoch, touched, recolored, False)


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
    limit = DEFAULT_RADIUS_LIMIT if radius_limit is None else radius_limit
    key = _pair(u, v)
    if not artifact.graph.has_edge(u, v):
        raise RepairError(f"edge {key} is not present", code="absent-edge")
    if colors is None:
        artifact.lists.pop(key, None)
    else:
        artifact.lists[key] = normalize_list(colors)
    # Demand deltas version through the artifact, not the graph overlay.
    epoch = artifact._bump_epoch()  # noqa: SLF001
    if path == "recompute":
        _fallback_recompute(artifact)
        return RepairReport(
            "set_list", path, epoch, artifact.graph.num_edges, 0, False
        )
    touched, recolored, overflow = _run_worklist(artifact, [key], limit)
    if overflow:
        _fallback_recompute(artifact)
        return RepairReport(
            "set_list", path, epoch, touched + artifact.graph.num_edges, recolored, True
        )
    return RepairReport("set_list", path, epoch, touched, recolored, False)
