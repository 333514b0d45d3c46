"""The persistent build product of the offline phase: ``ColoringArtifact``.

An artifact bundles everything the online plane needs to answer queries
without re-solving:

* the **graph** as an epoch-versioned :class:`repro.graphs.DeltaGraph`
  (CSR base + mutation overlay);
* the **coloring**, keyed by normalized endpoint pair — the one key
  that survives epochs, since snapshot edge indices shift as edges come
  and go;
* sparse **demand lists** (pair → sorted color tuple) for edges whose
  palette is constrained;
* the **palette table** (color → multiplicity), maintained incrementally
  by the repair engine.

Canonical artifacts (built by :func:`build_artifact`, or loaded from
JSON) carry the canonical priority-greedy coloring and accept deltas.
Lookup artifacts (wrapped around an arbitrary pipeline coloring via
:func:`artifact_from_coloring`) serve reads only — their coloring is
whatever the offline pipeline produced, so there is no canonical fixed
point for the repair engine to restore.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import jsonlog
from repro.graphs.core import Graph
from repro.graphs.delta import DeltaGraph
from repro.serving.journal import (
    DeltaJournal,
    RotationPolicy,
    clear_segments,
    delta_record,
    journal_path,
    segment_paths,
)
from repro.serving.repair import (
    RepairError,
    RepairReport,
    apply_delete,
    apply_insert,
    apply_set_list,
    full_recompute,
    normalize_list,
)

Pair = Tuple[int, int]

#: On-disk format tag; bump on breaking layout changes.
ARTIFACT_FORMAT = "repro-coloring-artifact/v1"


def _pair(u: int, v: int) -> Pair:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class RebasePolicy:
    """When to fold the :class:`DeltaGraph` overlay into a fresh CSR base.

    Every overlay entry taxes every ``neighbors()`` call on its nodes,
    so a long-lived session must rebase once the overlay outgrows the
    base — but a rebase is an O(n + m) snapshot, so not after every
    delta.  The policy triggers when the overlay holds at least
    ``min_overlay`` entries **and** ``overlay_size / base_edges``
    reaches ``threshold``, which amortizes the O(m) fold against the
    Θ(threshold · m) deltas that grew the overlay.

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
        return overlay >= self.threshold * max(1, graph.base.num_edges)


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


class ColoringArtifact:
    """Graph + coloring + repair state, versioned by an epoch counter.

    The epoch advances on every absorbed delta (graph mutations bump the
    underlying :class:`DeltaGraph`; demand-list changes bump an artifact
    offset) and is the version tag serving caches fold into their keys.
    """

    def __init__(
        self,
        graph: DeltaGraph,
        colors: Dict[Pair, int],
        lists: Optional[Dict[Pair, Tuple[int, ...]]] = None,
        *,
        canonical: bool = True,
        builder: str = "canonical",
    ) -> None:
        self.graph = graph
        self.colors = colors
        self.lists: Dict[Pair, Tuple[int, ...]] = dict(lists or {})
        self.canonical = canonical
        self.builder = builder
        self._epoch_base = 0
        self._palette: Dict[int, int] = {}
        for c in colors.values():
            self._palette[c] = self._palette.get(c, 0) + 1
        # Delta records pending a journal append: populated only when
        # journal tracking is on (loaded/saved artifacts), drained by
        # ``save``.  In-memory artifacts that are never persisted pay
        # nothing.  ``_journal_records`` counts records in the *active*
        # journal file (rotation policies cap it without re-reading the
        # file on every append).
        self._journal_tracking = False
        self._pending_deltas: List[Dict[str, object]] = []
        self._journal_records = 0

    # ------------------------------------------------------------------ meta
    @property
    def epoch(self) -> int:
        """Version counter covering graph *and* demand-list deltas."""
        return self._epoch_base + self.graph.epoch

    @property
    def journal_records(self) -> int:
        """Records in the active on-disk journal (what a full save folds)."""
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

    def palette_table(self) -> Dict[int, int]:
        """Color → multiplicity, sorted by color (a defensive copy)."""
        return {c: self._palette[c] for c in sorted(self._palette)}

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
            "base_edges": self.graph.base.num_edges,
            "canonical": self.canonical,
            "builder": self.builder,
        }

    # ----------------------------------------------------------------- reads
    def color(self, u: int, v: int) -> int:
        """Current color of edge ``{u, v}``."""
        key = _pair(u, v)
        try:
            return self.colors[key]
        except KeyError:
            raise RepairError(
                f"edge {key} is not present", code="absent-edge"
            ) from None

    def node_colors(self, v: int) -> List[int]:
        """Sorted colors on the edges incident to node ``v`` (O(degree) scan)."""
        if not 0 <= v < self.graph.num_nodes:
            raise RepairError(
                f"node {v} out of range for {self.graph.num_nodes} nodes",
                code="node-out-of-range",
            )
        colors = self.colors
        return sorted(colors[_pair(v, w)] for w in self.graph.neighbors(v))

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
        colors = self.colors
        return sorted(
            ((colors[_pair(v, w)], w) for w in self.graph.neighbors(v)),
        )

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
        """Fold the graph overlay into a fresh CSR base; return entries folded.

        Epoch-preserving: the edge set, the coloring and every result
        cache entry stay valid — a rebase is maintenance, not a delta,
        and is therefore never journaled (replay rebuilds its own
        overlay and may rebase on its own schedule without affecting the
        replayed state).
        """
        folded = self.graph.overlay_size
        if folded:
            self.graph.rebase()
        return folded

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
    # The state is (colors, palette); the epoch versions it.
    def _assign(self, key: Pair, c: int) -> None:
        self.colors[key] = c
        self._palette[c] = self._palette.get(c, 0) + 1

    def _unassign(self, key: Pair, c: int) -> None:
        del self.colors[key]
        remaining = self._palette[c] - 1
        if remaining:
            self._palette[c] = remaining
        else:
            del self._palette[c]

    def _recolor(self, key: Pair, c_old: int, c_new: int) -> None:
        self.colors[key] = c_new
        remaining = self._palette[c_old] - 1
        if remaining:
            self._palette[c_old] = remaining
        else:
            del self._palette[c_old]
        self._palette[c_new] = self._palette.get(c_new, 0) + 1

    def _replace_coloring(self, colors: Dict[Pair, int]) -> None:
        self.colors = colors
        self._palette = {}
        for c in colors.values():
            self._palette[c] = self._palette.get(c, 0) + 1

    def _bump_epoch(self) -> int:
        self._epoch_base += 1
        return self.epoch

    # ----------------------------------------------------------- invariants
    def verify(self) -> bool:
        """Check every artifact invariant; raises ``RepairError`` on drift.

        Properness (adjacent edges never share a color), demand-list
        respect, palette-table consistency, and — for canonical
        artifacts — bit-identity with a from-scratch
        :func:`~repro.serving.repair.full_recompute` of the current
        graph.  This is the twin-discipline anchor the tests lean on.
        """
        colors = self.colors
        present = set()
        for key in self.graph.edge_pairs():
            present.add(key)
            if key not in colors:
                raise RepairError(f"edge {key} has no color")
        if len(colors) != len(present):
            extra = sorted(set(colors) - present)[:3]
            raise RepairError(f"colors for absent edges: {extra}")
        for v in self.graph.nodes():
            seen = 0
            for w in self.graph.neighbors(v):
                bit = 1 << colors[_pair(v, w)]
                if seen & bit:
                    raise RepairError(f"color collision at node {v}")
                seen |= bit
        for key, demand in self.lists.items():
            if key in colors and colors[key] not in demand:
                raise RepairError(
                    f"edge {key} wears color {colors[key]} outside its list {demand}"
                )
        palette: Dict[int, int] = {}
        for c in colors.values():
            palette[c] = palette.get(c, 0) + 1
        if palette != self._palette:
            raise RepairError("palette table out of sync with colors")
        if self.canonical and colors != full_recompute(self.graph, self.lists):
            raise RepairError("coloring is not the canonical fixed point")
        return True

    # -------------------------------------------------------------- persist
    def to_json(self) -> Dict[str, object]:
        """A JSON-safe dict capturing the artifact at the current epoch."""
        return {
            "format": ARTIFACT_FORMAT,
            "builder": self.builder,
            "canonical": self.canonical,
            "epoch": self.epoch,
            "num_nodes": self.graph.num_nodes,
            "node_ids": list(self.graph.node_ids),
            "edges": [
                [u, v, self.colors[(u, v)]] for u, v in sorted(self.colors)
            ],
            "lists": [
                [u, v, list(self.lists[(u, v)])] for u, v in sorted(self.lists)
            ],
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> "ColoringArtifact":
        """Rebuild an artifact persisted by :meth:`to_json`.

        The overlay is folded on save, so the loaded graph starts with a
        fresh CSR base; the epoch is restored as the artifact offset.
        """
        fmt = payload.get("format")
        if fmt != ARTIFACT_FORMAT:
            raise RepairError(f"unsupported artifact format {fmt!r}")
        edges = [(int(u), int(v)) for u, v, _c in payload["edges"]]
        graph = Graph(
            int(payload["num_nodes"]),
            edges,
            node_ids=[int(i) for i in payload["node_ids"]],
        )
        colors = {
            _pair(int(u), int(v)): int(c) for u, v, c in payload["edges"]
        }
        lists = {
            _pair(int(u), int(v)): normalize_list(cs)
            for u, v, cs in payload.get("lists", [])
        }
        artifact = cls(
            DeltaGraph(graph),
            colors,
            lists,
            canonical=bool(payload.get("canonical", True)),
            builder=str(payload.get("builder", "canonical")),
        )
        artifact._epoch_base = int(payload.get("epoch", 0))
        return artifact

    def _write_full(self, path: str, fsync: bool = False) -> None:
        """Atomically rewrite the full artifact JSON (journal untouched)."""
        jsonlog.rewrite(path, [json.dumps(self.to_json(), separators=(",", ":"))], fsync)

    def _rotate(self, path: str, rotation: RotationPolicy, fsync: bool) -> None:
        """Online compact-and-rotate the active journal (cap was hit).

        Ordering is the durability argument: (1) the in-memory
        artifact — which already contains every journaled delta — is
        atomically full-saved, so from that instant every journal
        record is at or below the base epoch and replay skips it;
        (2) the active journal is renamed to the next ``.journal.N``
        segment; (3) segments beyond ``keep_segments`` are pruned.  A
        SIGKILL between any two steps loses nothing: before (1) the
        old base + journal replay; after (1) the new base supersedes
        whatever journal files remain.
        """
        from repro.obs import get_registry, tracer

        with tracer().span("journal.rotate", artifact=path) as span:
            self._write_full(path, fsync=fsync)
            active = journal_path(path)
            segments = segment_paths(path)
            if os.path.exists(active):
                next_n = 1
                if segments:
                    last = segments[-1]
                    next_n = int(last.rsplit(".", 1)[1]) + 1
                os.replace(active, f"{active}.{next_n}")
                if fsync:
                    jsonlog.fsync_dir(active)
                segments.append(f"{active}.{next_n}")
            self._journal_records = 0
            pruned = 0
            if rotation.keep_segments >= 0:
                excess = segments[: max(0, len(segments) - rotation.keep_segments)]
                for old in excess:
                    os.remove(old)
                    pruned += 1
            span.set(segments=len(segments) - pruned, pruned=pruned)
        get_registry().counter("journal.rotations").inc()

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
        artifact JSON is rewritten atomically
        (:func:`repro.jsonlog.rewrite`) and a now-superseded
        ``<path>.journal`` — rotated segments included — is deleted:
        everything they recorded is baked into the new base.

        ``journal=True`` appends the deltas absorbed since the last save
        to ``<path>.journal`` instead — O(deltas) disk work instead of
        O(m), the long-lived daemon's per-delta durability path.  It
        requires the artifact JSON to exist (first saves are full saves)
        and delta tracking to be on, which :meth:`load` and every full
        :meth:`save` arm automatically.  With a ``rotation`` policy, an
        active journal that outgrew a cap is compact-and-rotated after
        the append (see :meth:`_rotate`).
        """
        if journal:
            if not self._journal_tracking:
                raise RepairError(
                    "journal save needs delta tracking: load() the artifact or "
                    "full-save it once first"
                )
            if not os.path.exists(path):
                raise RepairError(
                    f"journal save without a base artifact at {path}; "
                    "full-save first"
                )
            DeltaJournal(journal_path(path), fsync=fsync).append(self._pending_deltas)
            self._journal_records += len(self._pending_deltas)
            self._pending_deltas = []
            if rotation is not None and rotation.should_rotate(
                journal_path(path), self._journal_records
            ):
                self._rotate(path, rotation, fsync)
            return
        self._write_full(path, fsync=fsync)
        DeltaJournal(journal_path(path)).clear()
        clear_segments(path)
        self._journal_tracking = True
        self._pending_deltas = []
        self._journal_records = 0

    @classmethod
    def load(cls, path: str) -> "ColoringArtifact":
        """Read an artifact written by :meth:`save`, replaying its journal.

        Rotated ``<path>.journal.N`` segments are replayed in ascending
        ``N``, then the active ``<path>.journal``: in every file, a
        record above the base JSON's epoch is re-absorbed in order and
        records the base already folded in are skipped, so the loaded
        artifact lands on the exact state of the last acknowledged
        delta — bit-identical, because each replayed delta repairs
        toward the same canonical fixed point the original session
        maintained.  (Under the fold-first rotation ordering, segments
        only ever hold already-folded records — the skip makes them
        harmless history.)  A torn trailing record (interrupted append)
        is skipped by the journal layer; an epoch that fails to line up
        raises :class:`RepairError`.
        """
        with open(path, "r", encoding="utf-8") as handle:
            artifact = cls.from_json(json.load(handle))
        artifact._journal_tracking = True
        active = DeltaJournal(journal_path(path))
        journals = [DeltaJournal(p) for p in segment_paths(path)] + [active]
        for journal in journals:
            if not journal.exists():
                continue
            records = journal.records()
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
            if journal is active:
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
    lists (normalized on ingest).  The product accepts deltas and is
    the input to :class:`repro.serving.session.ServingSession`.
    """
    normalized: Dict[Pair, Tuple[int, ...]] = {}
    for (u, v), demand in (lists or {}).items():
        key = _pair(int(u), int(v))
        if not graph.has_edge(*key):
            raise RepairError(f"demand list for absent edge {key}")
        normalized[key] = normalize_list(demand)
    delta_graph = DeltaGraph(graph)
    colors = full_recompute(delta_graph, normalized)
    return ColoringArtifact(delta_graph, colors, normalized)


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


def artifact_from_list_coloring(graph: Graph, result) -> ColoringArtifact:
    """Lookup artifact from a ``ListColoringResult`` (Theorem D.4 solve)."""
    edge_colors = [result.colors[e] for e in graph.edges()]
    return artifact_from_coloring(graph, edge_colors, builder="list_edge_coloring")
