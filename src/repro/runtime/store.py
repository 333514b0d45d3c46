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
drops superseded duplicate rows.

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

**Key index.**  Next to ``<name>.jsonl`` the store maintains a sidecar
``<name>.jsonl.idx`` recording ``(key, offset, length, status)`` per
row.  ``--resume`` reads only the index (O(rows) tiny lines, no JSON
row parsing) to decide what is missing, so resuming a 10⁵-row sweep
stays fast; a stale or missing index is rebuilt from the JSONL file
transparently.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro import jsonlog
from repro.obs import get_registry
from repro.runtime.spec import canonical_json


def is_error_row(row: Dict[str, object]) -> bool:
    """Whether ``row`` is a quarantine error row rather than a result."""
    return row.get("status") == "error"


@dataclass(frozen=True)
class IndexEntry:
    """One sidecar-index record locating a row inside the JSONL file."""

    key: str
    offset: int
    length: int
    status: str  # "ok" | "error"


def _index_line(entry: IndexEntry) -> str:
    return f"{entry.key} {entry.offset} {entry.length} {entry.status}"


class ResultStore:
    """An append-only JSONL file of result rows (plus a sidecar key index).

    ``fsync=True`` forces every append through ``os.fsync`` — the
    durability option for chaos runs where the process may be killed at
    any point (the default already survives process death; fsync also
    survives the OS going down mid-run).
    """

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = path
        self.fsync = fsync

    @property
    def index_path(self) -> str:
        return self.path + ".idx"

    # ------------------------------------------------------------- appending
    def append(self, row: Dict[str, object]) -> None:
        """Append one row (canonical JSON), flush, and index it."""
        line = canonical_json(row)
        offset = jsonlog.append(
            self.path, [line], fsync=self.fsync, heal_counter="store.heals"
        )
        entry = IndexEntry(
            key=str(row.get("key", "")),
            offset=offset,
            length=len(line.encode("utf-8")) + 1,
            status="error" if is_error_row(row) else "ok",
        )
        with open(self.index_path, "a", encoding="utf-8") as handle:
            jsonlog.write(handle, _index_line(entry) + "\n", self.fsync)
        get_registry().counter("store.appends").inc()

    # --------------------------------------------------------------- reading
    def rows(self) -> List[Dict[str, object]]:
        """All complete rows; a torn trailing line is skipped.

        A corrupt line anywhere else raises ``ValueError`` — it means
        the file was edited or interleaved, not interrupted.
        """
        if not os.path.exists(self.path):
            return []
        return [row for _line, row in jsonlog.read(self.path, kind="store", noun="row")]

    def _read_index(self) -> Optional[List[IndexEntry]]:
        """The sidecar index, or ``None`` when missing/stale/unparseable.

        Staleness check: the last entry must end exactly at the JSONL
        file's last newline (a torn tail past it is fine — it carries no
        index entry and heals on the next append).
        """
        if not os.path.exists(self.index_path) or not os.path.exists(self.path):
            return None
        entries: List[IndexEntry] = []
        try:
            with open(self.index_path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    key, offset, length, status = line.split(" ")
                    entries.append(IndexEntry(key, int(offset), int(length), status))
        except (ValueError, OSError):
            return None
        end = entries[-1].offset + entries[-1].length if entries else 0
        size = os.path.getsize(self.path)
        if end > size:
            return None  # index ahead of the data: rebuild
        if end < size:
            # Data past the index: either a torn tail (no newline after
            # `end`... cheap check: complete rows end in newline) or
            # rows appended without the index — verify the tail is torn.
            with open(self.path, "rb") as handle:
                handle.seek(end)
                tail = handle.read()
            if b"\n" in tail:
                return None  # complete unindexed rows exist: rebuild
        return entries

    def rebuild_index(self) -> List[IndexEntry]:
        """Rescan the JSONL file and atomically rewrite the sidecar index."""
        entries: List[IndexEntry] = []
        if os.path.exists(self.path):
            offset = 0
            with open(self.path, "rb") as handle:
                for raw in handle:
                    length = len(raw)
                    if raw.endswith(b"\n"):
                        try:
                            row = json.loads(raw.decode("utf-8"))
                        except json.JSONDecodeError:
                            row = None
                        if isinstance(row, dict) and "key" in row:
                            entries.append(
                                IndexEntry(
                                    key=str(row["key"]),
                                    offset=offset,
                                    length=length,
                                    status="error" if is_error_row(row) else "ok",
                                )
                            )
                    offset += length
        jsonlog.rewrite(
            self.index_path, [_index_line(entry) for entry in entries], fsync=self.fsync
        )
        return entries

    def key_index(self) -> Dict[str, IndexEntry]:
        """Latest index entry per cache key (O(index), no row parsing).

        The structure ``--resume`` consults: deciding which cells are
        missing needs only keys and statuses, not the row bodies, so
        resuming stays O(new work) even on very large stores.
        """
        entries = self._read_index()
        if entries is None:
            entries = self.rebuild_index()
        index: Dict[str, IndexEntry] = {}
        for entry in entries:
            index[entry.key] = entry
        return index

    def load_rows(self, keys: Iterable[str]) -> Dict[str, Dict[str, object]]:
        """Seek-read only the rows for ``keys`` (latest per key)."""
        index = self.key_index()
        out: Dict[str, Dict[str, object]] = {}
        wanted = [index[k] for k in keys if k in index]
        if not wanted:
            return out
        with open(self.path, "rb") as handle:
            for entry in sorted(wanted, key=lambda e: e.offset):
                handle.seek(entry.offset)
                out[entry.key] = json.loads(handle.read(entry.length).decode("utf-8"))
        return out

    def completed_keys(self) -> set:
        """Cache keys of every stored row (for ``--resume`` skipping)."""
        return set(self.key_index())

    def rows_by_key(self) -> Dict[str, Dict[str, object]]:
        """Latest stored row per cache key."""
        index: Dict[str, Dict[str, object]] = {}
        for row in self.rows():
            if "key" in row:
                index[row["key"]] = row
        return index

    # ------------------------------------------------------------ compaction
    def compact(self) -> int:
        """Atomically drop superseded rows; return the rows removed.

        Keeps the *latest* row per cache key (matching
        :meth:`rows_by_key`), in the order of last occurrence, writes
        the survivors to a temp file and renames it over the store —
        readers never observe a half-compacted file.  The sidecar index
        is rebuilt to match.
        """
        rows = self.rows()
        last: Dict[object, int] = {}
        for position, row in enumerate(rows):
            last[row.get("key", id(row))] = position
        keep = sorted(last.values())
        removed = len(rows) - len(keep)
        if removed == 0 and os.path.exists(self.index_path):
            return 0
        jsonlog.rewrite(
            self.path, [canonical_json(rows[position]) for position in keep], fsync=self.fsync
        )
        self.rebuild_index()
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


def _indexed_rows(
    rows: Iterable[Dict[str, object]], ignore_knobs: bool, include_errors: bool
) -> Dict[object, Dict[str, object]]:
    """Deduplicated rows, keyed by cache key (or cell identity)."""
    index: Dict[object, Dict[str, object]] = {}
    for row in rows:
        if not include_errors and is_error_row(row):
            continue
        if ignore_knobs:
            key: object = (
                row.get("spec"),
                row.get("version"),
                row.get("cell_index"),
                canonical_json(row.get("params", {})),
            )
        else:
            key = row.get("key")
        # Ok supersedes error for the same key regardless of on-disk
        # order.  Both orders occur in real stores: quarantine-then-retry
        # appends the recovered ok row *after* its error row, while a
        # later flaky re-run can append a fresh error row after an ok
        # one.  Either way the cell's definitive outcome is the ok row,
        # so under ``include_errors`` an error row never displaces it
        # (plain last-wins still applies among rows of equal status).
        if is_error_row(row) and key in index and not is_error_row(index[key]):
            continue
        index[key] = strip_timing(row, ignore_knobs=ignore_knobs)
    return index


def diff_rows(
    left: Iterable[Dict[str, object]],
    right: Iterable[Dict[str, object]],
    ignore_knobs: bool = False,
    include_errors: bool = False,
) -> List[str]:
    """Human-readable differences between two row sets, timing excluded.

    Rows are matched by cache key after deduplication (last occurrence
    wins, matching :meth:`ResultStore.rows_by_key`), so neither the
    on-disk order (which depends on completion order under ``--resume``)
    nor re-appended duplicate rows from repeated non-resume runs matter.
    Quarantine error rows are excluded like timing — their content
    (tracebacks, attempt counts) is execution-dependent; pass
    ``include_errors=True`` to compare them anyway.  Under
    ``include_errors`` an ok row **supersedes** an error row with the
    same key no matter which was appended first: quarantine-then-retry
    writes ``error`` then ``ok``, a flaky re-run writes ``ok`` then
    ``error``, and in both cases the cell's definitive outcome for the
    diff is the ok row.  With
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


def rows_equivalent(
    left: Iterable[Dict[str, object]], right: Iterable[Dict[str, object]]
) -> bool:
    """Whether two row sets are bit-identical modulo timing and order."""
    return not diff_rows(left, right)
