"""The persistent build product of the offline phase: ``ColoringArtifact``.

An artifact bundles everything the online plane needs to answer queries
without re-solving:

* the **graph** as an epoch-versioned :class:`repro.graphs.DeltaGraph`
  (live sorted neighbor rows + overlay accounting);
* the **coloring**, stored in the graph's color rows: one color list
  aligned with each live neighbor row, so an edge's color sits in two
  mirrored slots and a node's colors are one list read.  No pair-keyed
  copy is kept; :attr:`ColoringArtifact.colors` derives one, keyed by
  normalized endpoint pair (the one key that survives epochs, since
  the edge indices of a :class:`Graph` built from the current edge set
  shift as edges come and go), for digests, persistence checks and
  tests;
* sparse **demand lists** (pair → sorted color tuple) for edges whose
  palette is constrained;
* the **palette table** (color → multiplicity), maintained incrementally
  by the repair engine.

Canonical artifacts (built by :func:`build_artifact`, or loaded from
JSON) carry the canonical priority-greedy coloring and accept deltas.
The build writes that coloring straight into the color rows, and a full
:meth:`ColoringArtifact.save` writes the JSON straight from them: the
offline phase builds no per-edge tuple or list, so the cyclic collector
has no O(m) container heap to scan.
Lookup artifacts (wrapped around an arbitrary pipeline coloring via
:func:`artifact_from_coloring`) serve reads only — their coloring is
whatever the offline pipeline produced, so there is no canonical fixed
point for the repair engine to restore.
"""

from __future__ import annotations

import json
import operator
import os
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import jsonlog
from repro.graphs.core import Graph
from repro.graphs.delta import DeltaGraph, _pair
from repro.obs import get_registry, tracer
from repro.serving.journal import (
    DeltaJournal,
    RotationPolicy,
    delta_record,
    journal_path,
)
from repro.serving.repair import (
    RepairError,
    RepairReport,
    apply_delete,
    apply_insert,
    apply_set_list,
    canonical_rows,
    normalize_list,
)

Pair = Tuple[int, int]

#: On-disk format tag; bump on breaking layout changes.
ARTIFACT_FORMAT = "repro-coloring-artifact/v1"

#: The artifact JSON's separators: no whitespace.
_COMPACT = (",", ":")


@dataclass(frozen=True)
class RebasePolicy:
    """When to fold the :class:`DeltaGraph` overlay into its base.

    The overlay is accounting only (reads go to the live rows): two
    pair sets that a long-lived session must not let grow without
    bound.  A rebase clears them in O(overlay) and builds no graph.
    The policy triggers when the overlay holds at least ``min_overlay``
    entries **and** ``overlay_size / base_edges`` reaches
    ``threshold``, so the accounting stays within a fraction of the
    base.

    A rebase is epoch-preserving (the edge set is unchanged), so it is
    invisible to the serving plane's deterministic core: cached answers
    and response streams are bit-identical between a rebasing session
    and a never-rebasing twin (pinned by the rebase twin tests).
    """

    threshold: float = 0.25
    min_overlay: int = 8

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {self.threshold!r}")
        if self.min_overlay < 1:
            raise ValueError(f"min_overlay must be >= 1, got {self.min_overlay!r}")

    def should_rebase(self, graph: DeltaGraph) -> bool:
        overlay = graph.overlay_size
        if overlay < self.min_overlay:
            return False
        return overlay >= self.threshold * max(1, graph.base_edges)


def resolve_rebase_policy(value) -> Optional[RebasePolicy]:
    """Normalize a ``rebase_policy`` knob to a policy or ``None``.

    ``"auto"`` resolves to the default :class:`RebasePolicy`; ``None``
    and ``"off"`` disable automatic rebasing; a :class:`RebasePolicy`
    passes through.
    """
    if value is None or value == "off":
        return None
    if value == "auto":
        return RebasePolicy()
    if isinstance(value, RebasePolicy):
        return value
    raise ValueError(
        f"unknown rebase_policy {value!r}; expected 'auto', 'off', None "
        "or a RebasePolicy"
    )


def _in_pair_order(pairs: List[Pair]) -> bool:
    """Whether ``pairs`` are normalized and strictly increasing."""
    return all(u < v for u, v in pairs) and all(map(operator.lt, pairs, pairs[1:]))


class ColoringArtifact:
    """Graph + coloring + repair state, versioned by an epoch counter.

    The epoch advances on every absorbed delta (graph mutations bump the
    underlying :class:`DeltaGraph`; demand-list changes bump an artifact
    offset) and is the version tag serving caches fold into their keys.

    ``colors`` maps every edge's normalized ``u < v`` pair to its
    color, in any order, and is written into the graph's color rows;
    ``None`` adopts the colors the rows already hold.
    """

    def __init__(
        self,
        graph: DeltaGraph,
        colors: Optional[Mapping[Pair, int]] = None,
        lists: Optional[Dict[Pair, Tuple[int, ...]]] = None,
        *,
        canonical: bool = True,
        builder: str = "canonical",
    ) -> None:
        self.graph = graph
        if colors is not None:
            graph.fill_colors(sorted(colors.items()))
        self.lists: Dict[Pair, Tuple[int, ...]] = dict(lists or {})
        self.canonical = canonical
        self.builder = builder
        self._epoch_base = 0
        self._palette = self._count_palette()
        # Delta records pending a journal append: populated only when
        # journal tracking is on (loaded/saved artifacts), drained by
        # ``save``.  In-memory artifacts that are never persisted pay
        # nothing.  ``_journal_records`` counts records in the journal
        # file (rotation policies cap it without re-reading the file on
        # every append).  ``_journal`` is the one journal this artifact
        # appends to, holding its file open between journal saves.
        self._journal_tracking = False
        self._pending_deltas: List[Dict[str, object]] = []
        self._journal_records = 0
        self._journal: Optional[DeltaJournal] = None

    # ------------------------------------------------------------------ meta
    @property
    def epoch(self) -> int:
        """Version counter covering graph *and* demand-list deltas."""
        return self._epoch_base + self.graph.epoch

    @property
    def journal_records(self) -> int:
        """Records in the on-disk journal (what a full save folds)."""
        return self._journal_records

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    @property
    def num_colors(self) -> int:
        """Number of distinct colors currently in use."""
        return len(self._palette)

    @property
    def max_color(self) -> int:
        """Largest color in use, or ``-1`` on an edgeless graph."""
        return max(self._palette) if self._palette else -1

    def stats(self) -> Dict[str, object]:
        """Summary row for the ``stats`` query op and the CLI."""
        return {
            "epoch": self.epoch,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "num_colors": self.num_colors,
            "max_color": self.max_color,
            "num_lists": len(self.lists),
            "overlay_size": self.graph.overlay_size,
            "base_edges": self.graph.base_edges,
            "canonical": self.canonical,
            "builder": self.builder,
        }

    @property
    def colors(self) -> Dict[Pair, int]:
        """The coloring as a fresh pair-keyed dict, in pair order (O(m)).

        A snapshot derived from the color rows: writing to it changes
        nothing.  Serving reads go to the rows (:meth:`color`,
        :meth:`node_colors`, :meth:`schedule`).
        """
        return {(u, v): c for u, v, c in self.graph.colored_edges()}

    # ----------------------------------------------------------------- reads
    def color(self, u: int, v: int) -> int:
        """Current color of edge ``{u, v}``."""
        graph = self.graph
        if 0 <= u < graph.num_nodes:
            row = graph.neighbors(u)
            i = bisect_left(row, v)
            if i < len(row) and row[i] == v:
                return graph.color_row(u)[i]
        raise RepairError(f"edge {_pair(u, v)} is not present", code="absent-edge")

    def node_colors(self, v: int) -> List[int]:
        """Sorted colors on the edges incident to node ``v`` (one row read)."""
        if not 0 <= v < self.graph.num_nodes:
            raise RepairError(
                f"node {v} out of range for {self.graph.num_nodes} nodes",
                code="node-out-of-range",
            )
        return sorted(self.graph.color_row(v))

    def schedule(self, v: int) -> List[Tuple[int, int]]:
        """Node ``v``'s transmission schedule: ``(color, neighbor)`` by color.

        In a proper edge coloring each color class is a matching, so the
        color doubles as a collision-free time slot — the slot in which
        ``v`` talks to that neighbor.
        """
        if not 0 <= v < self.graph.num_nodes:
            raise RepairError(
                f"node {v} out of range for {self.graph.num_nodes} nodes",
                code="node-out-of-range",
            )
        return sorted(zip(self.graph.color_row(v), self.graph.neighbors(v)))

    # ---------------------------------------------------------------- deltas
    def insert(self, u: int, v: int, **kwargs) -> RepairReport:
        """Absorb an edge insertion (see :func:`repro.serving.repair.apply_insert`)."""
        self._require_canonical("insert")
        report = apply_insert(self, u, v, **kwargs)
        self._record_delta("insert", u, v, None)
        return report

    def delete(self, u: int, v: int, **kwargs) -> RepairReport:
        """Absorb an edge deletion (see :func:`repro.serving.repair.apply_delete`)."""
        self._require_canonical("delete")
        report = apply_delete(self, u, v, **kwargs)
        self._record_delta("delete", u, v, None)
        return report

    def set_list(
        self, u: int, v: int, colors: Optional[Sequence[int]], **kwargs
    ) -> RepairReport:
        """Absorb a demand-list change (see :func:`repro.serving.repair.apply_set_list`)."""
        self._require_canonical("set_list")
        report = apply_set_list(self, u, v, colors, **kwargs)
        self._record_delta("set_list", u, v, colors)
        return report

    def _record_delta(self, op: str, u: int, v: int, colors) -> None:
        """Queue a journal record for a just-absorbed delta (when tracking)."""
        if self._journal_tracking:
            self._pending_deltas.append(delta_record(self.epoch, op, u, v, colors))

    # ---------------------------------------------------------------- rebase
    def rebase(self) -> int:
        """Fold the graph overlay into its base; return entries folded.

        Epoch-preserving: the edge set, the coloring and every result
        cache entry stay valid — a rebase is maintenance, not a delta,
        and is therefore never journaled (replay rebuilds its own
        overlay and may rebase on its own schedule without affecting the
        replayed state).
        """
        return self.graph.rebase()

    def maybe_rebase(self, policy: Optional[RebasePolicy]) -> int:
        """Rebase iff ``policy`` says the overlay has outgrown the base.

        Returns the overlay entries folded (0 when no rebase happened).
        """
        if policy is not None and policy.should_rebase(self.graph):
            return self.rebase()
        return 0

    def _require_canonical(self, op: str) -> None:
        if not self.canonical:
            raise RepairError(
                f"cannot apply {op!r}: artifact built by {self.builder!r} is "
                "lookup-only (no canonical fixed point to repair towards); "
                "rebuild with build_artifact() to serve deltas",
                code="lookup-only",
            )

    # ------------------------------------------------- repair-engine hooks
    # The state is (color rows, palette); the epoch versions it.  The
    # engine writes the color rows itself and reports each color it
    # adds or drops here.
    def _assign(self, c: int) -> None:
        self._palette[c] = self._palette.get(c, 0) + 1

    def _unassign(self, c: int) -> None:
        remaining = self._palette[c] - 1
        if remaining:
            self._palette[c] = remaining
        else:
            del self._palette[c]

    def _recolor(self, c_old: int, c_new: int) -> None:
        palette = self._palette
        remaining = palette[c_old] - 1
        if remaining:
            palette[c_old] = remaining
        else:
            del palette[c_old]
        palette[c_new] = palette.get(c_new, 0) + 1

    def _count_palette(self) -> Dict[int, int]:
        """Color → multiplicity, counted off the color rows (every edge
        has two slots)."""
        graph = self.graph
        slots = Counter(chain.from_iterable(map(graph.color_row, graph.nodes())))
        return {c: count // 2 for c, count in slots.items()}

    def _adopt_rows(self, color_rows: List[List[int]]) -> None:
        """Refill the color rows in place from
        :func:`~repro.serving.repair.canonical_rows` output (aligned with
        the current neighbor rows) and recount the palette."""
        for v, colors_v in enumerate(color_rows):
            self.graph.color_row(v)[:] = colors_v
        self._palette = self._count_palette()

    def _bump_epoch(self) -> int:
        self._epoch_base += 1
        return self.epoch

    def _rewind(self, epoch: int) -> None:
        """Set the epoch back to ``epoch`` (an undone delta moved it)."""
        self._epoch_base = epoch - self.graph.epoch

    # ----------------------------------------------------------- invariants
    def verify(self) -> bool:
        """Check every artifact invariant; raises ``RepairError`` on drift.

        Color-row shape (every color row as long as its neighbor row,
        the two slots of every edge equal, no slot uncolored),
        properness (adjacent edges never share a color), demand-list
        respect, palette-table consistency, and — for canonical
        artifacts — bit-identity of the color rows with a from-scratch
        :func:`~repro.serving.repair.canonical_rows` of the current
        graph.  This is the twin-discipline anchor the tests lean on.
        """
        graph = self.graph
        # ``colors`` reads every edge's slot in its smaller endpoint's
        # row; ``mirror`` reads the slot in the larger endpoint's row.
        mirror: Dict[Pair, int] = {}
        for v in graph.nodes():
            row, colors_v = graph.neighbors(v), graph.color_row(v)
            if len(colors_v) != len(row):
                raise RepairError(
                    f"node {v} has {len(colors_v)} color slots for {len(row)} neighbors"
                )
            below = bisect_left(row, v)
            mirror.update(zip([(w, v) for w in row[:below]], colors_v[:below]))
        colors = self.colors
        if mirror != colors:
            key = next(k for k, c in colors.items() if mirror.get(k) != c)
            raise RepairError(f"edge {key} has two different colors")
        if min(colors.values(), default=0) < 0:
            raise RepairError("an edge is uncolored")
        for v in graph.nodes():
            colors_v = graph.color_row(v)
            if len(set(colors_v)) != len(colors_v):
                raise RepairError(f"color collision at node {v}")
        for key, demand in self.lists.items():
            if key in colors and colors[key] not in demand:
                raise RepairError(
                    f"edge {key} wears color {colors[key]} outside its list {demand}"
                )
        if dict(Counter(colors.values())) != self._palette:
            raise RepairError("palette table out of sync with colors")
        if self.canonical and list(map(graph.color_row, graph.nodes())) != canonical_rows(
            graph, self.lists
        ):
            raise RepairError("coloring is not the canonical fixed point")
        return True

    # -------------------------------------------------------------- persist
    @classmethod
    def from_json(cls, payload: Mapping) -> "ColoringArtifact":
        """Rebuild an artifact from the JSON a full :meth:`save` writes.

        The overlay is folded on save, so the loaded graph starts with
        an empty overlay; the epoch is restored as the artifact offset.
        """
        fmt = payload.get("format")
        if fmt != ARTIFACT_FORMAT:
            raise RepairError(f"unsupported artifact format {fmt!r}")
        edges = payload["edges"]
        pairs = [(int(u), int(v)) for u, v, _c in edges]
        colored = zip(pairs, [int(c) for _u, _v, c in edges])
        if not _in_pair_order(pairs):  # not the layout ``save`` writes
            colored = sorted((_pair(*key), c) for key, c in colored)
        base = Graph(
            int(payload["num_nodes"]),
            pairs,
            node_ids=[int(i) for i in payload["node_ids"]],
        )
        graph = DeltaGraph(base)
        graph.fill_colors(colored)
        lists = {
            _pair(int(u), int(v)): normalize_list(cs)
            for u, v, cs in payload.get("lists", [])
        }
        artifact = cls(
            graph,
            None,
            lists,
            canonical=bool(payload.get("canonical", True)),
            builder=str(payload.get("builder", "canonical")),
        )
        artifact._epoch_base = int(payload.get("epoch", 0))
        return artifact

    def _write_full(self, path: str, fsync: bool = False) -> None:
        """Atomically rewrite the full artifact JSON (journal untouched).

        One ``repro-coloring-artifact/v1`` line: the header fields and
        ``node_ids``, then every edge as ``[u,v,color]`` and every demand
        list as ``[u,v,[colors]]``, both in pair order.  These are the
        bytes ``json.dumps(..., separators=(",", ":"))`` writes for that
        object; the edges are formatted as text straight from the color
        rows, so a save builds no per-edge list for the collector to scan.
        """
        graph = self.graph
        head = json.dumps(
            {
                "format": ARTIFACT_FORMAT,
                "builder": self.builder,
                "canonical": self.canonical,
                "epoch": self.epoch,
                "num_nodes": graph.num_nodes,
                "node_ids": graph.node_ids,
            },
            separators=_COMPACT,
        )
        edges = ",".join([f"[{u},{v},{c}]" for u, v, c in graph.colored_edges()])
        lists = json.dumps(
            [[u, v, list(self.lists[(u, v)])] for u, v in sorted(self.lists)],
            separators=_COMPACT,
        )
        # ``head`` without its closing brace, then the two row fields.
        line = f'{head[:-1]},"edges":[{edges}],"lists":{lists}}}'
        jsonlog.rewrite(path, [line], fsync)

    def save(
        self,
        path: str,
        *,
        journal: bool = False,
        fsync: bool = False,
        rotation: Optional[RotationPolicy] = None,
    ) -> None:
        """Persist the artifact at ``path``.

        ``journal=False`` (the default) writes the full snapshot: the
        artifact JSON, formatted from the color rows (:meth:`_write_full`),
        is rewritten atomically (:func:`repro.jsonlog.rewrite`), then the
        now-superseded ``<path>.journal`` is deleted — everything it
        recorded is baked into the new base.

        ``journal=True`` appends the deltas absorbed since the last save
        to ``<path>.journal`` instead — O(deltas) disk work instead of
        O(m), the long-lived daemon's per-delta durability path.  It
        requires the artifact JSON to exist (first saves are full saves)
        and delta tracking to be on, which :meth:`load` and every full
        :meth:`save` arm automatically.  The journal's append handle
        stays open between journal saves (the base is checked only when
        it opens) until a full save or :meth:`close` releases it.  With
        a ``rotation`` policy, a journal that outgrew a cap is folded
        right after the append by a full save (the ``journal.rotate``
        span).
        """
        if journal:
            if not self._journal_tracking:
                raise RepairError(
                    "journal save needs delta tracking: load() the artifact or "
                    "full-save it once first"
                )
            log = self._journal
            if log is None or log.path != journal_path(path) or log.fsync != fsync:
                if not os.path.exists(path):
                    raise RepairError(
                        f"journal save without a base artifact at {path}; "
                        "full-save first"
                    )
                self.close()
                log = self._journal = DeltaJournal(journal_path(path), fsync=fsync)
            log.append(self._pending_deltas)
            self._journal_records += len(self._pending_deltas)
            self._pending_deltas = []
            if rotation is not None and rotation.should_rotate(log, self._journal_records):
                with tracer().span("journal.rotate", artifact=path):
                    self.save(path, fsync=fsync)
                get_registry().counter("journal.rotations").inc()
            return
        self._write_full(path, fsync=fsync)
        self.close()
        DeltaJournal(journal_path(path)).clear()
        self._journal_tracking = True
        self._pending_deltas = []
        self._journal_records = 0

    def close(self) -> None:
        """Release the journal's held append handle (idempotent).

        An artifact collected without ``close`` still closes its handle
        (the appender's finalizer); a journal save after ``close``
        reopens the journal.
        """
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    @classmethod
    def load(cls, path: str) -> "ColoringArtifact":
        """Read an artifact written by :meth:`save`, replaying its journal.

        A record of ``<path>.journal`` above the base JSON's epoch is
        re-absorbed in order; records the base already folded in are
        skipped (a fold killed before it deleted the journal leaves only
        such records).  So the loaded artifact lands on the exact state
        of the last acknowledged delta — bit-identical, because each
        replayed delta repairs toward the same canonical fixed point the
        original session maintained.  A torn trailing record
        (interrupted append) is skipped by the journal layer; an epoch
        that fails to line up raises :class:`RepairError`.
        """
        with open(path, "r", encoding="utf-8") as handle:
            artifact = cls.from_json(json.load(handle))
        artifact._journal_tracking = True
        records = DeltaJournal(journal_path(path)).records()
        for record in records:
            epoch = int(record["epoch"])
            if epoch <= artifact.epoch:
                continue  # already folded into the base JSON
            op = record["op"]
            u, v = int(record["u"]), int(record["v"])
            if op == "insert":
                artifact.insert(u, v)
            elif op == "delete":
                artifact.delete(u, v)
            elif op == "set_list":
                artifact.set_list(u, v, record.get("colors"))
            else:
                raise RepairError(f"journal record with unknown op {op!r}")
            if artifact.epoch != epoch:
                raise RepairError(
                    f"journal replay drifted: record epoch {epoch}, "
                    f"artifact epoch {artifact.epoch}"
                )
        artifact._journal_records = len(records)
        # Replay re-queued the records it applied; they are already
        # durable in the journal, so a later journal save must not
        # re-append them.
        artifact._pending_deltas = []
        return artifact

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ColoringArtifact(n={self.num_nodes}, m={self.num_edges}, "
            f"colors={self.num_colors}, epoch={self.epoch}, "
            f"builder={self.builder!r})"
        )


# ---------------------------------------------------------------- builders
def build_artifact(
    graph: Graph,
    lists: Optional[Mapping[Pair, Sequence[int]]] = None,
) -> ColoringArtifact:
    """Offline build: the canonical artifact for ``graph``.

    ``lists`` optionally constrains a sparse subset of edges to demand
    lists (normalized on ingest).  The canonical coloring is computed as
    color rows (:func:`~repro.serving.repair.canonical_rows`, walking
    ``graph``'s sorted rows in pair order) that the
    :class:`DeltaGraph` adopts as they are.  The product accepts deltas
    and is the input to :class:`repro.serving.session.ServingSession`.
    """
    normalized: Dict[Pair, Tuple[int, ...]] = {}
    for (u, v), demand in (lists or {}).items():
        key = _pair(int(u), int(v))
        if not graph.has_edge(*key):
            raise RepairError(f"demand list for absent edge {key}")
        normalized[key] = normalize_list(demand)
    delta_graph = DeltaGraph(graph, canonical_rows(graph, normalized))
    return ColoringArtifact(delta_graph, None, normalized)


def artifact_from_coloring(
    graph: Graph,
    edge_colors: Sequence[int],
    *,
    builder: str = "pipeline",
) -> ColoringArtifact:
    """Wrap a pipeline's edge-indexed coloring as a lookup-only artifact.

    ``edge_colors[e]`` is the color of edge index ``e`` in ``graph`` —
    the shape every ``core/`` pipeline emits.  The artifact serves reads
    (color/schedule/palette lookups) but refuses deltas: an arbitrary
    pipeline coloring has no canonical fixed point to repair towards.
    """
    if len(edge_colors) != graph.num_edges:
        raise RepairError(
            f"coloring has {len(edge_colors)} entries for {graph.num_edges} edges"
        )
    edge_u, edge_v = graph.endpoint_arrays()
    colors = {
        _pair(int(edge_u[e]), int(edge_v[e])): int(edge_colors[e])
        for e in range(graph.num_edges)
    }
    return ColoringArtifact(DeltaGraph(graph), colors, canonical=False, builder=builder)
