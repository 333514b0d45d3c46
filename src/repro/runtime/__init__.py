"""Scenario registry and sharded parallel experiment runtime.

The orchestration layer every repository workload runs through:

* :mod:`repro.runtime.spec` — the declarative :class:`ScenarioSpec` /
  :class:`Cell` model, per-cell seed derivation and content cache keys.
* :mod:`repro.runtime.registry` — name → spec lookup; the built-in
  E1–E11 / perf / analysis scenarios register lazily on first use.
* :mod:`repro.runtime.workloads` — the named cell runners (picklable
  across worker processes).
* :mod:`repro.runtime.executor` — the hardened executor:
  process-per-cell fan-out with timeouts, crash requeue, immediate
  retry and quarantine error rows; serial fallback; resume-from-store.
* :mod:`repro.runtime.store` — the one-file append-only JSONL store:
  the content-keyed cache, the outcome rule that picks each cell's row
  (shared by resume, compaction and the timing-excluded diff), and
  compaction.
* :mod:`repro.runtime.cli` — the ``scenarios
  list|run|report|diff|compact`` subcommands.

Determinism contract: result rows are bit-identical regardless of worker
count, shard assignment, execution order and retry policy (timing fields
and quarantine error rows excluded); see :mod:`repro.runtime.spec` for
how seeds and cache keys guarantee it and
:mod:`repro.runtime.executor` for the failure semantics (timeouts,
worker crashes, quarantine).
"""

from repro.runtime.executor import RunReport, run_scenario
from repro.runtime.registry import REGISTRY, get, names, register
from repro.runtime.spec import (
    Cell,
    Knobs,
    RetryPolicy,
    ScenarioSpec,
    cache_key,
    cell_seed,
    resolve_knobs,
    spec,
)
from repro.runtime.store import (
    ResultStore,
    default_store_path,
    diff_rows,
    is_error_row,
)

__all__ = [
    "Cell",
    "Knobs",
    "REGISTRY",
    "ResultStore",
    "RetryPolicy",
    "RunReport",
    "ScenarioSpec",
    "cache_key",
    "cell_seed",
    "default_store_path",
    "diff_rows",
    "get",
    "is_error_row",
    "names",
    "register",
    "resolve_knobs",
    "run_scenario",
    "spec",
]
