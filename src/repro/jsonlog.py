"""The append-only JSONL log format and its crash-recovery policy.

One module owns the on-disk contract shared by the result store
(:mod:`repro.runtime.store`), the delta journal
(:mod:`repro.serving.journal`) and the trace sink
(:mod:`repro.obs.trace`); each of those keeps only its row meaning.

* **Lines.**  One JSON value per line, every line newline-terminated.
  A log may start with a header object ``{"format": <tag>, ...}``,
  written when the file is new and validated on read.
* **Append** (:class:`Appender`; :func:`append` is its one-shot
  form: open, write once, close).  An appender holds one handle open
  across writes.  It opens lazily on the first write, and *heals on
  open*: a trailing fragment with no newline is what an interrupted
  writer leaves behind, and appending after it would corrupt the middle
  of the file, so it is truncated away.  The heal logs the byte offset
  and the dropped byte count, and bumps the caller's metrics counter
  when one is named.  Each write is one ``write`` plus ``flush`` (plus
  ``os.fsync`` when the caller asks).  A write or flush that raises
  *drops the handle*: the next write reopens, and so heals whatever
  partial line the failed one left.
* **Read** (:func:`read`).  A last line with no trailing newline is a
  torn tail: it is skipped with a warning, whether or not it parses —
  exactly what the next appender's heal on open would drop.  Any other
  line that does not parse, a newline-terminated last line included,
  is corruption: the file was edited, not interrupted, and the
  caller's error type is raised.
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

import contextlib
import json
import logging
import os
import threading
import weakref
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
) -> IO[str]:
    """Heal ``path`` and return a handle open for appending.

    A file that is empty after the heal gets ``header`` as its first
    line, buffered so the caller's first :func:`write` flushes both;
    with ``fsync`` its new directory entry is synced too.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    empty = _heal(path, heal_counter) == 0
    handle = open(path, "a", encoding="utf-8")
    if empty:
        if header is not None:
            handle.write(json.dumps(header) + "\n")
        if fsync:
            fsync_dir(path)
    return handle


class Appender:
    """A held append handle on one log: heal once on open, then write.

    The handle opens on the first :meth:`write` (:func:`open_append`:
    heal, header line when the file is new, directory fsync under
    ``fsync``) and stays open until :meth:`close`.  A write that raises
    drops the handle, so the next write reopens and heals the fragment
    it may have left.  A held handle whose file another process has
    deleted (``st_nlink == 0``) is dropped before the write, so the
    record lands in a reopened file (healed, header line) and not in the
    unlinked one.  An appender collected without :meth:`close` closes
    its handle then, so dropping one leaks no file.  Writes are
    serialized by a lock: threads may share one appender.
    """

    def __init__(
        self,
        path: str,
        header: Optional[Mapping[str, object]] = None,
        fsync: bool = False,
        heal_counter: Optional[str] = None,
    ) -> None:
        self.path = path
        self.header = header
        self.fsync = fsync
        self.heal_counter = heal_counter
        self._handle: Optional[IO[str]] = None
        self._release: Optional[weakref.finalize] = None  # closes _handle
        self._lock = threading.Lock()

    def write(self, text: str) -> None:
        """Append ``text`` (whole lines) in one flushed write."""
        with self._lock:
            if self._handle is not None and os.fstat(self._handle.fileno()).st_nlink == 0:
                self._drop()
            if self._handle is None:
                self._handle = open_append(
                    self.path, self.header, self.fsync, self.heal_counter
                )
                self._release = weakref.finalize(self, self._handle.close)
            try:
                write(self._handle, text, self.fsync)
            except BaseException:
                with contextlib.suppress(OSError):
                    self._drop()
                raise

    def tell(self) -> int:
        """The log's size in bytes: the held handle's position after its
        last flushed write, or the file's size when no handle is open."""
        with self._lock:
            if self._handle is not None:
                return self._handle.tell()
        try:
            return os.path.getsize(self.path)
        except FileNotFoundError:
            return 0

    def close(self) -> None:
        """Release the handle (idempotent); the next write reopens."""
        with self._lock:
            self._drop()

    def _drop(self) -> None:
        release, self._release, self._handle = self._release, None, None
        if release is not None:
            release()


def append(
    path: str,
    lines: Iterable[str],
    header: Optional[Mapping[str, object]] = None,
    fsync: bool = False,
    heal_counter: Optional[str] = None,
) -> None:
    """One-shot :class:`Appender`: heal, append encoded ``lines`` (no
    newlines) in one flushed write, close."""
    log = Appender(path, header, fsync, heal_counter)
    try:
        log.write("".join(line + "\n" for line in lines))
    finally:
        log.close()


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
