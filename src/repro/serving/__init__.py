"""Online serving plane: offline-build / online-serve split with repair.

Architecture overview
=====================

The batch pipelines in :mod:`repro.core` solve a whole instance and
throw the solver state away.  The serving plane splits that lifecycle in
two:

**Offline build** (:mod:`repro.serving.artifact`)
    :func:`build_artifact` runs the canonical priority-greedy coloring
    once over a frozen CSR graph and captures everything a server needs
    in a persistent :class:`ColoringArtifact`: the epoch-versioned
    :class:`repro.graphs.DeltaGraph`, the pair-keyed coloring, sparse
    demand lists, the palette table, and per-node used-color bitmasks
    (a per-epoch cached :class:`repro.coloring.greedy.UsedColorMasks`).
    Artifacts serialize to JSON (``save``/``load``) so a build survives
    the process that made it — the ``repro serve`` CLI writes one, any
    number of ``repro query`` invocations read it.
    :func:`artifact_from_coloring` wraps an arbitrary pipeline coloring
    (e.g. ``ListColoringResult`` with its extracted build state) as a
    lookup-only artifact.

**Online serve** (:mod:`repro.serving.session`)
    :class:`ServingSession` answers batched requests against one
    artifact: color/schedule/palette lookups and **delta requests**
    (edge insert/delete, demand-list change).  Read answers flow
    through a keyed LRU cache whose content keys reuse the runtime's
    recipe (canonical JSON + truncated sha256,
    :func:`repro.runtime.spec.canonical_json`) with the artifact epoch
    folded in — mutation invalidates by construction, not by flushing.

**Incremental repair** (:mod:`repro.serving.repair`)
    Deltas are absorbed by bounded incremental repair: a min-heap
    worklist recolors only the affected repair radius (an exact
    affectedness test prunes the cascade) and falls back to a
    from-scratch recompute when the radius blows past ``radius_limit``.
    Both paths converge on the same canonical fixed point, so repairs
    are **bit-identical** to recomputation — the ``repair_path`` knob
    (``incremental`` / ``recompute``, env ``REPRO_REPAIR_PATH``) pins
    the twin discipline in the differential test matrix, and the
    ``serving_churn`` scenario family measures the speedup the
    incremental path buys under edge churn.

**Durability & long-running serving** (:mod:`repro.serving.journal`,
:mod:`repro.serving.daemon`)
    Long-lived sessions stay bounded and survive restarts:

    * *Auto-rebase*: a :class:`RebasePolicy` (default threshold 0.25 on
      ``overlay_size / base_edges``, ``min_overlay`` 8) folds the
      :class:`~repro.graphs.DeltaGraph` overlay into a fresh CSR base
      when it outgrows the base — **epoch-preserving**, so the result
      cache and per-epoch used-color masks stay valid, and rebasing /
      never-rebasing sessions are bit-identical twins (an explicit
      ``rebase`` op exists alongside the policy; ``rebase_policy="off"``
      disables it).
    * *Delta journal*: ``save(journal=True)`` appends each absorbed
      delta ``{epoch, op, u, v, colors}`` to ``<artifact>.journal``
      (format tag ``repro-coloring-journal/v1``) instead of rewriting
      the full JSON; ``load()`` replays the journal over the base
      artifact (torn tails per :mod:`repro.jsonlog`);
      :func:`compact_artifact` folds journal → JSON.
    * *Daemon*: ``python -m repro serve --listen`` serves the
      versioned ``repro-serving/v1`` wire protocol
      (:mod:`repro.serving.protocol` is the normative spec) over a
      threading socket server — reads from any number of connections
      execute concurrently against the current epoch while writes
      serialize on the session's writer lock, journaled **before**
      acknowledgment inside that critical section (acknowledged ⇒
      durable, even under SIGKILL).  A :class:`RotationPolicy`
      (``--journal-max-bytes`` / ``--journal-max-records``) caps the
      active journal with online compact-and-rotate into
      ``<artifact>.journal.N`` segments; graceful shutdown compacts
      everything.  :func:`connect` returns the same duck-typed client
      for an in-process artifact or a daemon address.  The
      ``serving_daemon`` scenario (E13) pins socket responses
      bit-identical to an in-process session, journal-replay recovery
      after SIGKILL, and the concurrent-clients cell's speedup over a
      serialized schedule.
    * *Bounded observability*: ``ServingSession.reports`` is a ring
      buffer (``reports_cap``, default 256); lossless totals live in
      ``cache_stats()`` — long-lived sessions never grow without bound.

Entry points: :func:`repro.api.build_coloring_service`, the ``repro
serve`` / ``repro query`` CLI commands (including ``serve --listen`` /
``serve --compact``), and the ``serving_churn`` / ``serving_daemon``
runners in :mod:`repro.runtime.workloads`.
"""

from repro.serving.artifact import (
    ARTIFACT_FORMAT,
    ColoringArtifact,
    RebasePolicy,
    artifact_from_coloring,
    artifact_from_list_coloring,
    build_artifact,
    resolve_rebase_policy,
)
from repro.serving.daemon import (
    ColoringDaemon,
    DaemonClient,
    SessionClient,
    connect,
    spawn_daemon_process,
)
from repro.serving.journal import (
    JOURNAL_FORMAT,
    DeltaJournal,
    JournalError,
    RotationPolicy,
    compact_artifact,
    journal_path,
    resolve_rotation,
    segment_paths,
)
from repro.serving.protocol import (
    ERROR_CODES,
    PROTOCOL_FORMAT,
    DeltaRequest,
    ErrorResponse,
    ProtocolError,
    QueryRequest,
    RebaseRequest,
    StatsRequest,
    parse_request,
)
from repro.serving.repair import (
    DEFAULT_RADIUS_LIMIT,
    REPAIR_PATHS,
    RepairError,
    RepairReport,
    apply_delete,
    apply_insert,
    apply_set_list,
    full_recompute,
    normalize_list,
    resolve_repair_path,
)
from repro.serving.session import (
    CONTROL_OPS,
    DEFAULT_REPORTS_CAP,
    DELTA_OPS,
    READ_OPS,
    ServingSession,
    result_cache_key,
)

__all__ = [
    "ARTIFACT_FORMAT",
    "CONTROL_OPS",
    "DEFAULT_RADIUS_LIMIT",
    "DEFAULT_REPORTS_CAP",
    "DELTA_OPS",
    "ERROR_CODES",
    "JOURNAL_FORMAT",
    "PROTOCOL_FORMAT",
    "READ_OPS",
    "REPAIR_PATHS",
    "ColoringArtifact",
    "ColoringDaemon",
    "DaemonClient",
    "DeltaJournal",
    "DeltaRequest",
    "ErrorResponse",
    "JournalError",
    "ProtocolError",
    "QueryRequest",
    "RebasePolicy",
    "RebaseRequest",
    "RepairError",
    "RepairReport",
    "RotationPolicy",
    "ServingSession",
    "SessionClient",
    "StatsRequest",
    "apply_delete",
    "apply_insert",
    "apply_set_list",
    "artifact_from_coloring",
    "artifact_from_list_coloring",
    "build_artifact",
    "compact_artifact",
    "connect",
    "full_recompute",
    "journal_path",
    "normalize_list",
    "parse_request",
    "resolve_rebase_policy",
    "resolve_repair_path",
    "resolve_rotation",
    "result_cache_key",
    "segment_paths",
    "spawn_daemon_process",
]
