"""Append-only delta journal: artifact durability without rewrites.

A :class:`ColoringArtifact` persisted as JSON is a *full* snapshot —
rewriting it on every absorbed delta is O(m) disk work per O(1) change,
which is exactly the cost profile a long-lived serving daemon cannot
afford.  The journal is the append-only alternative, the serving-plane
analogue of the runtime's JSONL result store (:mod:`repro.runtime.store`):

* the journal lives **next to** the artifact JSON, at
  ``<artifact>.journal``;
* line 1 is a header ``{"format": "repro-coloring-journal/v1"}``;
* every later line is one absorbed delta, in application order::

      {"epoch": 12, "op": "insert",   "u": 3, "v": 9,  "colors": null}
      {"epoch": 13, "op": "delete",   "u": 0, "v": 4,  "colors": null}
      {"epoch": 14, "op": "set_list", "u": 1, "v": 7,  "colors": [2, 4, 6]}

  ``epoch`` is the artifact epoch *after* the delta was absorbed —
  strictly increasing, which is what makes replay verifiable and
  re-application idempotent (records at or below the base artifact's
  epoch are skipped).

**Durability contract.**  The file follows the shared append-only log
format of :mod:`repro.jsonlog`: flush per append (optionally fsync),
torn-tail heal on append and skip on read, mid-file corruption is an
error.  A SIGKILLed daemon therefore loses at most the one delta it
was mid-append on, and every delta it *acknowledged* is recoverable:
``ColoringArtifact.load`` replays the journal over the base JSON and
lands bit-identically on the pre-kill state, because every replayed
delta repairs toward the same canonical fixed point the live session
maintained (see :mod:`repro.serving.repair`).

:func:`compact_artifact` folds the journal back into the artifact JSON
(the explicit rewrite, mirroring ``scenarios compact`` on the result
store); the daemon runs it on graceful shutdown.

**Rotation.**  A weeks-long daemon cannot let the active journal grow
without bound (unbounded disk, O(journal) replay).  A
:class:`RotationPolicy` caps the active journal by bytes and/or record
count; when a cap is hit, :meth:`ColoringArtifact.save` performs an
online *compact-and-rotate*: the in-memory artifact is atomically
full-saved (the fold — after it, every journal record is at or below
the base epoch), the active journal is renamed to the next
``<artifact>.journal.N`` segment, and segments beyond
``keep_segments`` are pruned.  The ordering is SIGKILL-safe at every
point: the fold lands first, so replay (which skips records at or
below the base epoch) never double-applies a rotated record, and a
kill between fold and rename merely leaves an already-superseded
active journal.  ``load()`` replays segments in ascending ``N`` and
then the active journal, under the same drift checks; a full save or
compaction deletes segments along with the journal.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import jsonlog
from repro.obs import get_registry, tracer

#: On-disk journal format tag; bump on breaking layout changes.
JOURNAL_FORMAT = "repro-coloring-journal/v1"

#: Fields of one delta record, in canonical order.
RECORD_FIELDS = ("epoch", "op", "u", "v", "colors")


def journal_path(artifact_path: str) -> str:
    """The journal's location next to an artifact JSON file."""
    return artifact_path + ".journal"


_SEGMENT_RE = re.compile(r"\.journal\.(\d+)$")


def segment_paths(artifact_path: str) -> List[str]:
    """Existing rotated segments ``<artifact>.journal.N``, ascending ``N``."""
    base = journal_path(artifact_path)
    directory = os.path.dirname(base) or "."
    name = os.path.basename(base)
    found = []
    if os.path.isdir(directory):
        for entry in os.listdir(directory):
            if entry.startswith(name + "."):
                match = _SEGMENT_RE.search(entry)
                if match:
                    found.append((int(match.group(1)), os.path.join(directory, entry)))
    return [path for _n, path in sorted(found)]


def clear_segments(artifact_path: str) -> None:
    """Delete every rotated segment (a full save superseded them all)."""
    for path in segment_paths(artifact_path):
        os.remove(path)


@dataclass(frozen=True)
class RotationPolicy:
    """Caps on the active journal that trigger compact-and-rotate.

    ``max_bytes`` / ``max_records`` bound the active journal (either
    may be ``None`` for uncapped); ``keep_segments`` bounds how many
    rotated ``<artifact>.journal.N`` segments are retained — older
    segments are pruned, which is safe because the fold-first rotation
    ordering means a segment never holds the only copy of a record.
    """

    max_bytes: Optional[int] = None
    max_records: Optional[int] = None
    keep_segments: int = 2

    def __post_init__(self) -> None:
        for name in ("max_bytes", "max_records"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
        if self.max_bytes is None and self.max_records is None:
            raise ValueError("rotation policy needs max_bytes and/or max_records")
        if self.keep_segments < 0:
            raise ValueError(f"keep_segments must be >= 0, got {self.keep_segments!r}")

    def should_rotate(self, path: str, records: int) -> bool:
        """Has the active journal at ``path`` outgrown a cap?"""
        if self.max_records is not None and records >= self.max_records:
            return True
        if (
            self.max_bytes is not None
            and os.path.exists(path)
            and os.path.getsize(path) >= self.max_bytes
        ):
            return True
        return False


def resolve_rotation(value) -> Optional[RotationPolicy]:
    """Normalize a rotation knob: ``None``/``"off"`` disable, a policy passes."""
    if value is None or value == "off":
        return None
    if isinstance(value, RotationPolicy):
        return value
    raise ValueError(
        f"unknown rotation {value!r}; expected None, 'off' or a RotationPolicy"
    )


def delta_record(epoch: int, op: str, u: int, v: int, colors=None) -> Dict[str, object]:
    """One canonical journal record for an absorbed delta."""
    return {
        "epoch": int(epoch),
        "op": str(op),
        "u": int(u),
        "v": int(v),
        "colors": None if colors is None else [int(c) for c in colors],
    }


class JournalError(ValueError):
    """The journal is unreadable or inconsistent with its artifact."""


class DeltaJournal:
    """An append-only JSONL file of absorbed deltas next to an artifact.

    The record layer only: records in, records out.
    Interpretation (replay, epoch matching) belongs to
    :meth:`repro.serving.artifact.ColoringArtifact.load`.
    """

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = path
        self.fsync = fsync

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def clear(self) -> None:
        """Delete the journal file (after a full save folded it in)."""
        if os.path.exists(self.path):
            os.remove(self.path)

    # ------------------------------------------------------------- appending
    def append(self, records: List[Dict[str, object]]) -> None:
        """Append delta records (creating the file, header first, if new)."""
        if not records:
            return
        with tracer().span("journal.append", records=len(records)):
            jsonlog.append(
                self.path,
                [
                    json.dumps(
                        {field: record.get(field) for field in RECORD_FIELDS},
                        sort_keys=True,
                        separators=(",", ":"),
                    )
                    for record in records
                ],
                header={"format": JOURNAL_FORMAT},
                fsync=self.fsync,
                heal_counter="journal.heals",
            )
        get_registry().counter("journal.appends").inc(len(records))

    # --------------------------------------------------------------- reading
    def records(self) -> List[Dict[str, object]]:
        """All complete delta records, in file order.

        The torn tail and corruption policy is :func:`repro.jsonlog.read`'s
        (raising :class:`JournalError`); a malformed record or a
        non-increasing epoch raise too — those mean the file was edited,
        not interrupted.
        """
        if not self.exists():
            return []
        records: List[Dict[str, object]] = []
        last_epoch = None
        for lineno, row in jsonlog.read(
            self.path, fmt=JOURNAL_FORMAT, kind="journal", noun="record", error=JournalError
        ):
            if not isinstance(row, dict) or row.get("op") is None:
                raise JournalError(f"{self.path}:{lineno}: malformed delta record")
            epoch = int(row.get("epoch", -1))
            if last_epoch is not None and epoch <= last_epoch:
                raise JournalError(
                    f"{self.path}:{lineno}: non-increasing epoch {epoch} after {last_epoch}"
                )
            last_epoch = epoch
            records.append(row)
        return records


def compact_artifact(path: str, fsync: bool = False) -> int:
    """Fold ``<path>.journal`` into the artifact JSON; return records folded.

    Loads the artifact (which replays the journal), rewrites the full
    JSON atomically, and deletes the journal — the serving-plane
    ``compact``, run by the daemon on graceful shutdown and by
    ``python -m repro serve --compact``.  A journal-less artifact
    compacts to itself (returns 0).
    """
    from repro.serving.artifact import ColoringArtifact

    with tracer().span("journal.compact", artifact=path) as span:
        journal = DeltaJournal(journal_path(path), fsync=fsync)
        folded = len(journal.records()) if journal.exists() else 0
        artifact = ColoringArtifact.load(path)
        artifact.save(path, fsync=fsync)
        span.set(folded=folded)
    get_registry().counter("journal.compactions").inc()
    return folded
