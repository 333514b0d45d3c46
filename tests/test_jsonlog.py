"""The shared append-only JSONL log: one recovery policy for three logs.

The result store, the delta journal and the trace sink all write
through :mod:`repro.jsonlog`; the parametrized cases pin that they
agree on torn tails, heals and corruption.  The fsync cases pin that
``fsync=True`` also syncs the parent directory after every rename, and
that ``fsync=False`` syncs nothing.
"""

from __future__ import annotations

import logging
import os
import stat

import pytest

from repro import jsonlog
from repro.graphs import generators
from repro.obs import get_registry
from repro.obs.trace import Tracer, read_events
from repro.runtime.store import ResultStore
from repro.serving import ColoringArtifact, DeltaJournal, RotationPolicy, build_artifact
from repro.serving.journal import JournalError


class _StoreLog:
    error, heal_counter = ValueError, "store.heals"

    def __init__(self, path):
        self.path = path
        self.store = ResultStore(path)

    def append(self, i):
        self.store.append({"key": str(i), "i": i})

    def read(self):
        return [row["i"] for row in self.store.rows()]


class _JournalLog:
    error, heal_counter = JournalError, "journal.heals"

    def __init__(self, path):
        self.path = path
        self.journal = DeltaJournal(path)

    def append(self, i):
        self.journal.append([{"epoch": i + 1, "op": "insert", "u": 0, "v": i + 1}])

    def read(self):
        return [record["epoch"] - 1 for record in self.journal.records()]


class _TraceLog:
    error, heal_counter = ValueError, None

    def __init__(self, path):
        self.path = path

    def append(self, i):
        tracer = Tracer(self.path)  # a fresh open heals, like a restarted process
        tracer.emit("span", 0.0, 0.0, i=i)
        tracer.close()

    def read(self):
        return [event["attrs"]["i"] for event in read_events(self.path)]


@pytest.fixture(params=[_StoreLog, _JournalLog, _TraceLog], ids=["store", "journal", "trace"])
def log(request, tmp_path):
    path = str(tmp_path / "log.jsonl")
    instance = request.param(path)
    for i in range(3):
        instance.append(i)
    return instance


def _replace_line(path, index, text):
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    lines[index] = text
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)


def test_torn_tail_is_skipped_on_read(log):
    with open(log.path, "a", encoding="utf-8") as handle:
        handle.write('{"i": 3, "torn')  # no newline: a killed writer
    assert log.read() == [0, 1, 2]


def test_heal_logs_byte_offset_then_append_lands_clean(log, caplog):
    size = os.path.getsize(log.path)
    with open(log.path, "a", encoding="utf-8") as handle:
        handle.write('{"i": 3, "torn')
    heals = get_registry().counter(log.heal_counter).value if log.heal_counter else 0
    with caplog.at_level(logging.WARNING):
        log.append(3)
    assert any(
        f"byte offset {size}" in record.getMessage() and "healed" in record.getMessage()
        for record in caplog.records
    )
    assert log.read() == [0, 1, 2, 3]
    if log.heal_counter:
        assert get_registry().counter(log.heal_counter).value == heals + 1


def test_corrupt_middle_line_raises(log):
    _replace_line(log.path, -2, "{corrupt}\n")
    with pytest.raises(log.error, match="corrupt"):
        log.read()


def test_newline_terminated_unparseable_last_line_is_corruption(log):
    # A complete line that does not parse was edited, not torn.
    _replace_line(log.path, -1, "{corrupt}\n")
    with pytest.raises(log.error, match="corrupt"):
        log.read()


@pytest.fixture()
def fsyncs(monkeypatch):
    """Record every ``os.fsync`` as "dir" or "file" instead of syncing."""
    calls = []

    def fake_fsync(fd):
        calls.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")

    monkeypatch.setattr(os, "fsync", fake_fsync)
    return calls


@pytest.mark.parametrize("fsync", [True, False])
def test_rewrite_syncs_directory_only_when_asked(tmp_path, fsyncs, fsync):
    path = str(tmp_path / "file.jsonl")
    jsonlog.rewrite(path, ['{"a":1}'], fsync=fsync)
    assert fsyncs == (["file", "dir"] if fsync else [])
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == '{"a":1}\n'


@pytest.mark.parametrize("fsync", [True, False])
def test_journal_rotation_syncs_directory_only_when_asked(tmp_path, fsyncs, fsync):
    path = str(tmp_path / "artifact.json")
    build_artifact(generators.random_regular_graph(16, 3, seed=1)).save(path)
    artifact = ColoringArtifact.load(path)
    u, v = sorted(artifact.colors)[0]
    artifact.delete(u, v)
    del fsyncs[:]
    artifact.save(path, journal=True, fsync=fsync, rotation=RotationPolicy(max_records=1))
    assert os.path.exists(path + ".journal.1")  # the cap rotated the journal
    # New journal file, full-save rename, journal-to-segment rename.
    assert fsyncs.count("dir") == (3 if fsync else 0)
    assert fsync or not fsyncs
