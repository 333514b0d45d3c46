"""Unified observability plane: tracing, metrics, and introspection.

The repo has three long-running planes — the sharded experiment runtime,
the incremental serving session, and the socket daemon.  This package is
their one window: span tracing answers "where did the time go", the
metrics registry answers "how many, how big", and the introspection
surfaces (``python -m repro obs report``, the daemon's
``{"op": "stats", "scope": "daemon"}``) render both without attaching a
debugger.  It follows the split the fault plane established: rich
internal accounting, deterministically quarantined from outputs.

**Observability model.**  Everything this package records is
*timing-like* under the twin discipline:

* **Quarantine** — spans and metrics never enter cell seeds, cache
  keys, serving responses, result rows (beyond the already-excluded
  ``timing`` field) or ``diff_rows`` comparisons.  Trace context rides
  in an optional ``"trace"`` field on executor payloads and daemon
  requests, stripped before any output-bearing object sees it.  A
  differential matrix (``tests/test_obs.py``) runs engine × plane ×
  repair-path combinations with tracing on vs off and asserts
  bit-identical stores and responses.
* **Off by default** — :func:`~repro.obs.trace.tracer` returns a shared
  no-op :class:`~repro.obs.trace.NullTracer` unless ``REPRO_TRACE`` is
  truthy; a disabled span site costs one call and one attribute check.
  The perf_smoke suite budgets disabled instrumentation at <5% of an
  E1 cell.
* **Durable sink** — traces are append-only JSONL in the
  ``repro-trace/v1`` format, written through :mod:`repro.jsonlog` like
  the result store and the delta journal.  Each process writes its own
  ``trace-<pid>.jsonl`` so parallel sweeps never interleave.
* **One store per fact** — a metric is counted once, into the
  instrument that holds it: the runtime, journal and result store count
  into the process-wide registry, and each serving session into its own
  registry, which ``cache_stats()`` reads and the daemon's stats answer
  merges with the process snapshot.  No total is kept aside and
  mirrored.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    snapshot,
)
from repro.obs.trace import (
    NULL_TRACER,
    TRACE_FORMAT,
    NullTracer,
    PhaseTimer,
    Tracer,
    configure,
    current_context,
    disable,
    load_trace,
    read_events,
    reset,
    set_context,
    trace_dir,
    tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "snapshot",
    "NULL_TRACER",
    "TRACE_FORMAT",
    "NullTracer",
    "PhaseTimer",
    "Tracer",
    "configure",
    "current_context",
    "disable",
    "load_trace",
    "read_events",
    "reset",
    "set_context",
    "trace_dir",
    "tracer",
]
