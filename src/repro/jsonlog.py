"""The append-only JSONL log format and its crash-recovery policy.

One module owns the on-disk contract shared by the result store
(:mod:`repro.runtime.store`), the delta journal
(:mod:`repro.serving.journal`) and the trace sink
(:mod:`repro.obs.trace`); each of those keeps only its row meaning.

* **Lines.**  One JSON value per line, every line newline-terminated.
  A log may start with a header object ``{"format": <tag>, ...}``,
  written when the file is new and validated on read.
* **Append** (:func:`append`, :func:`open_append`, :func:`write`).
  Writes are flushed, and fsynced when the caller asks.  Before the
  first write the torn tail is *healed*: a trailing fragment with no
  newline is what an interrupted writer leaves behind, and appending
  after it would corrupt the middle of the file, so it is truncated
  away.  The heal logs the byte offset and the dropped byte count, and
  bumps the caller's metrics counter when one is named.
* **Read** (:func:`read`).  A last line with no trailing newline is a
  torn tail: it is skipped with a warning, whether or not it parses —
  exactly what the next append's heal would drop.  Any other line that
  does not parse, a newline-terminated last line included, is
  corruption: the file was edited, not interrupted, and the caller's
  error type is raised.
* **Atomic rewrite** (:func:`rewrite`).  Write ``<path>.tmp``, flush,
  fsync when asked, then ``os.replace`` it over ``path``: readers see
  the old file or the new one, never half of either.

**Power-loss durability.**  With ``fsync=True`` the file data is
fsynced, and so is the parent directory whenever a directory entry
changes (a rewrite's rename, a new log file), via :func:`fsync_dir`.
Without it, everything here survives process death but not OS death.

This module imports nothing from :mod:`repro` at import time, so the
observability package can build on it.
"""

from __future__ import annotations

import json
import logging
import os
from typing import IO, Iterable, List, Mapping, Optional, Tuple

logger = logging.getLogger(__name__)


def fsync_dir(path: str) -> None:
    """Fsync the directory holding ``path`` (makes a rename or create durable)."""
    fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _heal(path: str, heal_counter: Optional[str]) -> int:
    """Truncate a torn trailing line of ``path``; return the resulting size.

    A missing or empty file has size 0.  ``heal_counter`` names the
    metrics counter bumped when a fragment is dropped.
    """
    try:
        size = os.path.getsize(path)
    except FileNotFoundError:
        return 0
    if size == 0:
        return 0
    with open(path, "rb+") as handle:
        handle.seek(-1, os.SEEK_END)
        if handle.read(1) == b"\n":
            return size
        handle.seek(0)
        keep = handle.read().rfind(b"\n") + 1  # 0 when no newline at all
        handle.truncate(keep)
    logger.warning(
        "%s: healed torn trailing line at byte offset %d (%d bytes dropped)",
        path,
        keep,
        size - keep,
    )
    if heal_counter is not None:
        from repro.obs import get_registry

        get_registry().counter(heal_counter).inc()
    return keep


def write(handle: IO[str], text: str, fsync: bool = False) -> None:
    """Write ``text`` to an append handle, flush, and fsync when asked."""
    handle.write(text)
    handle.flush()
    if fsync:
        os.fsync(handle.fileno())


def open_append(
    path: str,
    header: Optional[Mapping[str, object]] = None,
    fsync: bool = False,
    heal_counter: Optional[str] = None,
) -> Tuple[IO[str], int]:
    """Heal ``path`` and open it for appending; return ``(handle, offset)``.

    ``offset`` is the healed file size, where the caller's first line
    lands (the header, when one is written, comes before it).  A file
    that is empty after the heal gets ``header`` as its first line,
    buffered so the caller's first :func:`write` flushes both; with
    ``fsync`` its new directory entry is synced too.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    offset = _heal(path, heal_counter)
    handle = open(path, "a", encoding="utf-8")
    if offset == 0:
        if header is not None:
            handle.write(json.dumps(header) + "\n")
        if fsync:
            fsync_dir(path)
    return handle, offset


def append(
    path: str,
    lines: Iterable[str],
    header: Optional[Mapping[str, object]] = None,
    fsync: bool = False,
    heal_counter: Optional[str] = None,
) -> int:
    """Heal, then append encoded ``lines`` (no newlines) in one flushed write.

    Returns the byte offset of the first appended line (see
    :func:`open_append`).
    """
    handle, offset = open_append(path, header, fsync, heal_counter)
    with handle:
        write(handle, "".join(line + "\n" for line in lines), fsync)
    return offset


def read(
    path: str,
    *,
    kind: str,
    noun: str,
    fmt: Optional[str] = None,
    error: type = ValueError,
) -> List[Tuple[int, object]]:
    """Every complete line of ``path`` as ``(line number, value)`` pairs.

    With ``fmt`` the first line must be a header whose ``"format"`` is
    ``fmt``; it is validated and not returned.  A torn tail is skipped
    with a warning; corruption raises ``error`` naming the line as a
    corrupt ``noun`` of the ``kind`` (e.g. "corrupt row in the middle of
    the store").
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    rows: List[Tuple[int, object]] = []
    header_seen = fmt is None
    for index, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        if not line.endswith("\n"):  # only the last line can lack one
            logger.warning("%s: skipping torn trailing %s (line %d)", path, noun, index + 1)
            break
        try:
            row = json.loads(stripped)
        except json.JSONDecodeError:
            raise error(
                f"{path}:{index + 1}: corrupt {noun} in the middle of the {kind}"
            ) from None
        if not header_seen:
            found = row.get("format") if isinstance(row, dict) else None
            if found != fmt:
                raise error(f"{path}: unsupported {kind} format {found!r}")
            header_seen = True
            continue
        rows.append((index + 1, row))
    return rows


def rewrite(path: str, lines: Iterable[str], fsync: bool = False) -> None:
    """Atomically replace ``path`` with encoded ``lines`` (no newlines)."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        write(handle, "".join(line + "\n" for line in lines), fsync)
    os.replace(tmp, path)
    if fsync:
        fsync_dir(path)
