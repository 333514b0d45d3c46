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
format of :mod:`repro.jsonlog`.  A :class:`DeltaJournal` holds one
:class:`~repro.jsonlog.Appender`: the handle opens on the first append,
healing a torn tail left by an earlier writer (heal on open), and stays
held, so an append is one write plus a flush (plus fsync when asked).
A write that raises drops the handle, and the next append reopens and
heals.  Reads skip a torn tail; mid-file corruption is an error.  A
SIGKILLed daemon therefore loses at most the one delta it was
mid-append on, and every delta it *acknowledged* is recoverable:
``ColoringArtifact.load`` replays the journal over the base JSON and
lands bit-identically on the pre-kill state, because every replayed
delta repairs toward the same canonical fixed point the live session
maintained (see :mod:`repro.serving.repair`).

:func:`compact_artifact` folds the journal back into the artifact JSON
(the explicit rewrite, mirroring ``scenarios compact`` on the result
store); the daemon does the same fold on graceful shutdown.

**Rotation.**  A weeks-long daemon cannot let the journal grow
without bound (unbounded disk, O(journal) replay).  A
:class:`RotationPolicy` caps the journal by bytes and/or record
count; the byte size is the held handle's position after its flush,
so checking a cap costs no ``stat``.  When a journal save pushes it
past a cap, :meth:`ColoringArtifact.save` folds it online with a full
save: the in-memory artifact is atomically rewritten as the base JSON,
then the held handle is released and the journal is deleted (the next
journal save opens a new one, header first).  The ordering is
SIGKILL-safe at every point: a
kill before the rewrite leaves the old base + journal, and a kill
between rewrite and delete leaves a journal whose records are all at
or below the new base epoch, which replay skips.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import jsonlog
from repro.obs import get_registry, tracer

#: On-disk journal format tag; bump on breaking layout changes.
JOURNAL_FORMAT = "repro-coloring-journal/v1"

#: Fields of one delta record, in canonical order.
RECORD_FIELDS = ("epoch", "op", "u", "v", "colors")

#: The record encoder, built once (``json.dumps`` with these options
#: builds a new encoder on every call).
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def journal_path(artifact_path: str) -> str:
    """The journal's location next to an artifact JSON file."""
    return artifact_path + ".journal"


@dataclass(frozen=True)
class RotationPolicy:
    """Caps on the journal that trigger an online fold.

    ``max_bytes`` / ``max_records`` bound the journal (either
    may be ``None`` for uncapped, not both).
    """

    max_bytes: Optional[int] = None
    max_records: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("max_bytes", "max_records"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
        if self.max_bytes is None and self.max_records is None:
            raise ValueError("rotation policy needs max_bytes and/or max_records")

    def should_rotate(self, journal: "DeltaJournal", records: int) -> bool:
        """Has ``journal``, holding ``records`` records, outgrown a cap?"""
        if self.max_records is not None and records >= self.max_records:
            return True
        return self.max_bytes is not None and journal.size() >= self.max_bytes


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
    :meth:`repro.serving.artifact.ColoringArtifact.load`.  Appends go
    through one held :class:`~repro.jsonlog.Appender`; :meth:`close`
    releases it.
    """

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = path
        self.fsync = fsync
        self._log = jsonlog.Appender(
            path, {"format": JOURNAL_FORMAT}, fsync, heal_counter="journal.heals"
        )

    def close(self) -> None:
        """Release the held append handle (idempotent)."""
        self._log.close()

    def clear(self) -> None:
        """Release the handle, then delete the file (a full save folded it in)."""
        self.close()
        if os.path.exists(self.path):
            os.remove(self.path)

    def size(self) -> int:
        """The journal's size in bytes (the held handle's position)."""
        return self._log.tell()

    # ------------------------------------------------------------- appending
    def append(self, records: List[Dict[str, object]]) -> None:
        """Append delta records (creating the file, header first, if new)."""
        if not records:
            return
        with tracer().span("journal.append", records=len(records)):
            self._log.write(
                "".join(
                    _RECORD_ENCODER.encode(
                        {field: record.get(field) for field in RECORD_FIELDS}
                    )
                    + "\n"
                    for record in records
                )
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
        if not os.path.exists(self.path):
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
    ``compact``, run by ``python -m repro serve --compact``.  A
    journal-less artifact compacts to itself (returns 0).
    """
    from repro.serving.artifact import ColoringArtifact

    with tracer().span("journal.compact", artifact=path) as span:
        artifact = ColoringArtifact.load(path)
        folded = artifact.journal_records
        artifact.save(path, fsync=fsync)
        span.set(folded=folded)
    get_registry().counter("journal.compactions").inc()
    return folded
