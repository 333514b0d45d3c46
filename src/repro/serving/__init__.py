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
    :class:`repro.graphs.DeltaGraph` with the coloring in its color rows
    (one color list aligned with each live neighbor row), sparse demand
    lists and the palette table.
    Artifacts serialize to JSON (``save``/``load``) so a build survives
    the process that made it — the ``repro serve`` CLI writes one, any
    number of ``repro query`` invocations read it.
    :func:`artifact_from_coloring` wraps an arbitrary pipeline coloring
    as a lookup-only artifact.

**Online serve** (:mod:`repro.serving.session`)
    :class:`ServingSession` answers batched requests against one
    artifact: color/schedule/palette lookups and **delta requests**
    (edge insert/delete, demand-list change).  Lookup answers flow
    through a keyed LRU cache of immutable wire lines, keyed by
    ``(artifact epoch, parsed request)`` — mutation invalidates by
    construction, not by flushing.

**Incremental repair** (:mod:`repro.serving.repair`)
    Deltas are absorbed by bounded incremental repair: a min-heap
    worklist recolors only the affected repair radius (an exact
    affectedness test prunes the cascade).  A delta whose radius passes
    ``radius_limit`` is a fallback: it keeps draining the worklist up to
    a recompute-sized budget and recomputes from scratch only past it.
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
      ``overlay_size / base_edges``, ``min_overlay`` 8) makes the
      current edge set of the :class:`~repro.graphs.DeltaGraph` its new
      base when the overlay accounting outgrows the base.  Reads go to
      the graph's live neighbor rows, so a rebase only clears that
      accounting, in O(overlay), and builds no graph.  It is
      **epoch-preserving**, so the result cache stays valid, and
      rebasing / never-rebasing sessions are bit-identical twins (an
      explicit ``rebase`` op exists alongside the policy;
      ``rebase_policy="off"`` disables it).
    * *Delta journal*: ``save(journal=True)`` appends each absorbed
      delta ``{epoch, op, u, v, colors}`` to ``<artifact>.journal``
      (format tag ``repro-coloring-journal/v1``) instead of rewriting
      the full JSON; ``load()`` replays the journal over the base
      artifact (torn tails per :mod:`repro.jsonlog`);
      :func:`compact_artifact` folds journal → JSON.
    * *Daemon*: ``python -m repro serve --listen`` serves the
      versioned ``repro-serving/v1`` wire protocol
      (:mod:`repro.serving.protocol` is the normative spec) over a
      threading socket server — every request runs inside the
      session's one mutex, and writes are journaled **before**
      acknowledgment inside that critical section (acknowledged ⇒
      durable, even under SIGKILL).  A :class:`RotationPolicy`
      (``--journal-max-bytes`` / ``--journal-max-records``) caps the
      journal: past a cap, a full save folds it into the artifact JSON
      online, as graceful shutdown does.  :func:`connect` returns
      the same duck-typed client for an in-process artifact or a
      daemon address.  The ``serving_daemon`` scenario (E13) pins
      socket responses bit-identical to an in-process session,
      journal-replay recovery after SIGKILL, and the concurrent-clients
      cell's speedup over a serialized schedule.
    * *Bounded observability*: a session keeps no per-delta record;
      lossless totals live in its own metrics registry
      (``ServingSession.metrics``), which ``cache_stats()`` reads —
      long-lived sessions never grow without bound.

Entry points: :func:`build_artifact` with :class:`ServingSession`, the
``repro serve`` / ``repro query`` CLI commands (including ``serve --listen`` /
``serve --compact``), and the ``serving_churn`` / ``serving_daemon``
runners in :mod:`repro.runtime.workloads`.
"""

from repro.serving.artifact import (
    ARTIFACT_FORMAT,
    ColoringArtifact,
    RebasePolicy,
    artifact_from_coloring,
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
    DELTA_OPS,
    READ_OPS,
    ServingSession,
    result_cache_key,
)

__all__ = [
    "ARTIFACT_FORMAT",
    "CONTROL_OPS",
    "DEFAULT_RADIUS_LIMIT",
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
    "build_artifact",
    "compact_artifact",
    "connect",
    "full_recompute",
    "journal_path",
    "normalize_list",
    "parse_request",
    "resolve_rebase_policy",
    "resolve_repair_path",
    "result_cache_key",
    "spawn_daemon_process",
]
