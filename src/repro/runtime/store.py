"""Append-only JSONL result store with a content-keyed cache.

Each line is one result row (canonical JSON: sorted keys, compact
separators), keyed by the cell's :func:`repro.runtime.spec.cache_key`.
The file follows the shared append-only log format of
:mod:`repro.jsonlog` (flush per row, optional fsync, torn-tail heal on
append and skip on read, mid-file corruption is an error), so an
interrupted run loses at most its last row, which a ``--resume`` run
simply recomputes.  The store never rewrites existing lines while
appending: resuming appends only the missing cells.
:meth:`ResultStore.compact` is the explicit rewrite — it atomically
keeps only each cell's outcome row (see the outcome rule below).

Row layout::

    {"spec": ..., "version": ..., "cell_index": ..., "key": ...,
     "params": {...}, "seed": ..., "knobs": {...},
     "result": {...}, "timing": {...}}

Quarantined cells (see :mod:`repro.runtime.executor`) store an *error
row* instead: same identity fields, but ``"status": "error"`` and an
``"error"`` block (exception type, message, traceback digest, attempt
count) in place of ``"result"``.  ``timing`` is the only
execution-dependent field of an ok row; every comparison helper here
(:func:`strip_timing`, :func:`diff_rows`) excludes it, and error rows
are excluded from diffs the same way — which is how "bit-identical
regardless of worker count" is both defined and tested.

**Outcome rule.**  A cell can have several rows: a non-resume rerun
appends a duplicate, quarantine-then-retry appends an ok row after an
error row, and a flaky rerun can append an error row after an ok row.
A cell's *outcome* is its last ok row, else its last error row —
whatever order they were appended in.  :func:`outcome_positions` is the
one implementation; ``--resume``, :meth:`ResultStore.rows_by_key`,
:meth:`ResultStore.compact` and :func:`diff_rows` all go through it.
"""
from __future__ import annotations

import os
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro import jsonlog
from repro.obs import get_registry
from repro.runtime.spec import canonical_json


def is_error_row(row: Dict[str, object]) -> bool:
    """Whether ``row`` is a quarantine error row rather than a result."""
    return row.get("status") == "error"


def _cache_key(row: Dict[str, object]) -> object:
    return row.get("key")


def outcome_positions(
    rows: Sequence[Dict[str, object]], identity: Callable[[Dict[str, object]], object]
) -> List[int]:
    """Ascending positions in ``rows`` of each cell's outcome row.

    Rows are grouped by ``identity``; the outcome of a group is the
    rule stated in the module docstring: its last ok row, else its last
    error row.
    """
    outcome: Dict[object, int] = {}
    for position, row in enumerate(rows):
        cell = identity(row)
        held = outcome.get(cell)
        if held is None or is_error_row(rows[held]) or not is_error_row(row):
            outcome[cell] = position
    return sorted(outcome.values())


class ResultStore:
    """An append-only JSONL file of result rows.

    ``fsync=True`` forces every append through ``os.fsync`` — the
    durability option for chaos runs where the process may be killed at
    any point (the default already survives process death; fsync also
    survives the OS going down mid-run).
    """

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = path
        self.fsync = fsync

    def append(self, row: Dict[str, object]) -> None:
        """Append one row (canonical JSON) and flush it."""
        jsonlog.append(
            self.path, [canonical_json(row)], fsync=self.fsync, heal_counter="store.heals"
        )
        get_registry().counter("store.appends").inc()

    def rows(self) -> List[Dict[str, object]]:
        """All complete rows; a torn trailing line is skipped.

        A corrupt line anywhere else raises ``ValueError`` — it means
        the file was edited or interleaved, not interrupted.
        """
        if not os.path.exists(self.path):
            return []
        return [row for _line, row in jsonlog.read(self.path, kind="store", noun="row")]

    def rows_by_key(self) -> Dict[str, Dict[str, object]]:
        """The outcome row of every stored cache key."""
        rows = self.rows()
        return {rows[p]["key"]: rows[p] for p in outcome_positions(rows, _cache_key)}

    def compact(self) -> int:
        """Atomically keep only the outcome rows; return the rows removed.

        The survivors keep their on-disk order and are written to a temp
        file that is renamed over the store, so readers never observe a
        half-compacted file.
        """
        rows = self.rows()
        keep = outcome_positions(rows, _cache_key)
        removed = len(rows) - len(keep)
        if removed:
            jsonlog.rewrite(
                self.path, [canonical_json(rows[p]) for p in keep], fsync=self.fsync
            )
        return removed


def default_store_path(spec_name: str, base_dir: Optional[str] = None) -> str:
    """Default JSONL location: ``<base>/scenarios/<spec>.jsonl``.

    ``base`` is ``REPRO_RESULTS_DIR`` when set, else
    ``benchmarks/results`` under the current working directory (the
    repository-root convention the perf harness already uses).
    """
    if base_dir is None:
        base_dir = os.environ.get("REPRO_RESULTS_DIR") or os.path.join(
            os.getcwd(), "benchmarks", "results"
        )
    return os.path.join(base_dir, "scenarios", f"{spec_name}.jsonl")


def strip_timing(
    row: Dict[str, object], ignore_knobs: bool = False
) -> Dict[str, object]:
    """A row without its execution-dependent ``timing`` field.

    With ``ignore_knobs`` the resolved engine knobs and the cache key
    (which folds them in) are dropped too — the projection used to
    compare runs across ``scan_path`` / ``repair_path`` settings, which
    are bit-identical by contract.
    """
    drop = {"timing", "knobs", "key"} if ignore_knobs else {"timing"}
    return {key: value for key, value in row.items() if key not in drop}


def _cell_identity(row: Dict[str, object]) -> object:
    """A cell's identity across knob settings (the ``ignore_knobs`` match)."""
    return (
        row.get("spec"),
        row.get("version"),
        row.get("cell_index"),
        canonical_json(row.get("params", {})),
    )


def _indexed_rows(
    rows: Iterable[Dict[str, object]], ignore_knobs: bool, include_errors: bool
) -> Dict[object, Dict[str, object]]:
    """Outcome rows without timing, keyed by cache key (or cell identity)."""
    rows = [row for row in rows if include_errors or not is_error_row(row)]
    identity = _cell_identity if ignore_knobs else _cache_key
    return {
        identity(rows[p]): strip_timing(rows[p], ignore_knobs=ignore_knobs)
        for p in outcome_positions(rows, identity)
    }


def diff_rows(
    left: Iterable[Dict[str, object]],
    right: Iterable[Dict[str, object]],
    ignore_knobs: bool = False,
    include_errors: bool = False,
) -> List[str]:
    """Human-readable differences between two row sets, timing excluded.

    Each side is reduced to its cells' outcome rows (the module's
    outcome rule), so neither the on-disk order (which depends on
    completion order under ``--resume``) nor re-appended duplicate rows
    matter.  Quarantine error rows are excluded like timing — their
    content (tracebacks, attempt counts) is execution-dependent; pass
    ``include_errors=True`` to compare them anyway.  With
    ``ignore_knobs`` rows are matched by cell identity instead and the
    knob/key fields are excluded from the comparison — the mode CI uses
    to hold the cross-plane bit-identity contract on real stores.
    Returns an empty list when equivalent.
    """
    left_index = _indexed_rows(left, ignore_knobs, include_errors)
    right_index = _indexed_rows(right, ignore_knobs, include_errors)
    problems: List[str] = []
    if len(left_index) != len(right_index):
        problems.append(
            f"distinct cell count differs: {len(left_index)} vs {len(right_index)}"
        )
    for key in sorted(set(left_index) | set(right_index), key=str):
        a, b = left_index.get(key), right_index.get(key)
        if a is None:
            problems.append(f"key {key}: only in right")
        elif b is None:
            problems.append(f"key {key}: only in left")
        elif a != b:
            problems.append(
                f"key {key}: rows differ\n  left:  {canonical_json(a)}\n  right: {canonical_json(b)}"
            )
    return problems
