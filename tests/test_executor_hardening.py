"""Executor hardening: timeouts, crashes, quarantine, store resilience.

The robustness contract under test: one misbehaving cell — raising,
hanging, or SIGKILLing its worker — must not take the sweep down.  The
executor requeues a failed attempt at once (no sleep on either path),
runs a retry after worker death solo, quarantines deterministic
failures as structured error rows, and the rest of the sweep
completes; ``--resume`` skips error rows by default and
``--retry-errors`` re-executes exactly the quarantined cells.  The
store side: one JSONL file and no sidecar, one outcome rule shared by
resume, compaction and diffs (an ok row beats a later error row), atomic
compaction, fsync appends and torn-write healing with a logged byte
offset.
"""

from __future__ import annotations

import logging
import os

import pytest

from repro.runtime import get, run_scenario
from repro.runtime.executor import error_row
from repro.runtime.spec import Knobs, RetryPolicy, spec
from repro.runtime.store import ResultStore, diff_rows, is_error_row, strip_timing

#: The policy most hardening runs pass to ``run_scenario``: a tight
#: timeout and one retry, so the suite stays fast.
FAST_RETRY = RetryPolicy(timeout_seconds=5.0, max_retries=1)


def _chaos_spec(cells, name="chaos_unit"):
    return spec(name, "chaos probes", "chaos_probe", cells)


def _strip_all(rows):
    return [strip_timing(row) for row in rows]


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="timeout_seconds"):
            RetryPolicy(timeout_seconds=0)
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_attempt_is_requeued_without_sleeping(self, tmp_path, monkeypatch, workers):
        def no_sleep(seconds):
            raise AssertionError(f"the executor slept {seconds}s before a retry")

        monkeypatch.setattr("repro.runtime.executor.time.sleep", no_sleep)
        chaos = _chaos_spec(
            [
                {"mode": "raise_once", "marker_dir": str(tmp_path / "markers"), "cell": "r0"},
                {"mode": "ok", "payload": 1},
            ]
        )
        report = run_scenario(chaos, workers=workers, retry=FAST_RETRY)
        assert report.errored == 0
        assert all(row["result"]["verified"] for row in report.rows)


class TestQuarantine:
    def test_raising_cell_quarantined_rest_completes(self, tmp_path):
        chaos = _chaos_spec(
            [{"mode": "ok", "payload": 1}, {"mode": "raise"}, {"mode": "ok", "payload": 2}]
        )
        store = ResultStore(str(tmp_path / "q.jsonl"))
        report = run_scenario(chaos, workers=2, store=store, retry=FAST_RETRY)
        assert report.executed == 3
        assert report.errored == 1
        assert not report.ok
        rows = store.rows()
        assert [is_error_row(r) for r in rows] == [False, True, False]
        error = rows[1]["error"]
        assert error["kind"] == "exception"
        assert error["type"] == "RuntimeError"
        assert error["attempts"] == 1 + FAST_RETRY.max_retries
        assert len(error["traceback_digest"]) == 16
        assert "result" not in rows[1]

    def test_serial_path_quarantines_too(self, tmp_path):
        chaos = _chaos_spec([{"mode": "raise"}, {"mode": "ok"}])
        store = ResultStore(str(tmp_path / "serial.jsonl"))
        report = run_scenario(chaos, workers=1, store=store, retry=FAST_RETRY)
        assert report.errored == 1
        assert report.quarantined == [report.rows[0]["key"]]
        assert report.rows[1]["result"]["verified"]

    def test_timeout_enforced_and_reported(self, tmp_path):
        chaos = _chaos_spec(
            [{"mode": "sleep", "sleep_seconds": 30.0}, {"mode": "ok"}],
        )
        store = ResultStore(str(tmp_path / "t.jsonl"))
        retry = RetryPolicy(timeout_seconds=0.5, max_retries=1)
        report = run_scenario(chaos, workers=2, store=store, retry=retry)
        assert report.errored == 1
        row = next(r for r in report.rows if is_error_row(r))
        assert row["error"]["kind"] == "timeout"
        assert row["error"]["type"] == "CellTimeout"
        assert row["error"]["attempts"] == 2

    def test_worker_sigkill_detected_and_quarantined(self, tmp_path):
        chaos = _chaos_spec([{"mode": "kill"}, {"mode": "ok"}])
        store = ResultStore(str(tmp_path / "k.jsonl"))
        report = run_scenario(chaos, workers=2, store=store, retry=FAST_RETRY)
        assert report.errored == 1
        row = next(r for r in report.rows if is_error_row(r))
        assert row["error"]["kind"] == "crash"
        assert row["error"]["exitcode"] == -9
        # The dead worker did not deadlock the run: the ok cell finished.
        ok = next(r for r in report.rows if not is_error_row(r))
        assert ok["result"]["verified"]

    def test_crashed_cell_requeued_and_recovers(self, tmp_path):
        markers = tmp_path / "markers"
        chaos = _chaos_spec(
            [
                {"mode": "kill_once", "marker_dir": str(markers), "cell": "k0"},
                {"mode": "ok", "payload": 7},
            ]
        )
        report = run_scenario(
            chaos, workers=2, store=ResultStore(str(tmp_path / "r.jsonl")), retry=FAST_RETRY
        )
        assert report.errored == 0
        assert all(row["result"]["verified"] for row in report.rows)

    def test_flaky_raise_recovers_on_retry(self, tmp_path):
        markers = tmp_path / "markers"
        chaos = _chaos_spec(
            [{"mode": "raise_once", "marker_dir": str(markers), "cell": "r0"}]
        )
        report = run_scenario(chaos, workers=1, retry=FAST_RETRY)
        assert report.errored == 0


class TestResumeSemantics:
    @pytest.fixture()
    def errored_store(self, tmp_path):
        chaos = _chaos_spec(
            [{"mode": "ok", "payload": 1}, {"mode": "raise"}, {"mode": "ok", "payload": 2}]
        )
        store = ResultStore(str(tmp_path / "resume.jsonl"))
        run_scenario(chaos, workers=1, store=store, retry=FAST_RETRY)
        return chaos, store

    def test_resume_skips_error_rows_by_default(self, errored_store):
        chaos, store = errored_store
        resumed = run_scenario(chaos, workers=1, resume=True, store=store, retry=FAST_RETRY)
        assert resumed.executed == 0
        assert resumed.skipped == 3
        assert resumed.errored == 1  # the stored error row still surfaces

    def test_retry_errors_reexecutes_only_quarantined_cells(self, errored_store):
        chaos, store = errored_store
        resumed = run_scenario(
            chaos, workers=1, resume=True, store=store, retry=FAST_RETRY, retry_errors=True
        )
        assert resumed.executed == 1  # exactly the quarantined cell
        assert resumed.skipped == 2
        assert resumed.errored == 1  # still deterministic: it fails again

    def test_recovered_cell_supersedes_error_row(self, tmp_path):
        markers = tmp_path / "markers"
        chaos = _chaos_spec(
            [{"mode": "raise_once", "marker_dir": str(markers), "cell": "r1"}],
        )
        store = ResultStore(str(tmp_path / "heal.jsonl"))
        # No retries: the first run quarantines the cell at once.
        first = run_scenario(chaos, workers=1, store=store, retry=RetryPolicy(max_retries=0))
        assert first.errored == 1
        second = run_scenario(
            chaos, workers=1, resume=True, store=store, retry=FAST_RETRY, retry_errors=True
        )
        assert second.errored == 0
        # rows_by_key: the fresh ok row wins over the stored error row.
        assert not is_error_row(store.rows_by_key()[second.rows[0]["key"]])

    def test_compact_mid_sweep_then_resume_executes_nothing(self, tmp_path):
        """``scenarios compact`` between runs must not disturb ``--resume``.

        Compaction rewrites the JSONL file; a subsequent resume reads the
        rewritten rows, so every completed cell must still be seen as
        completed — zero cells re-execute.
        """
        chaos = _chaos_spec([{"mode": "ok", "payload": i} for i in range(3)])
        store = ResultStore(str(tmp_path / "mid.jsonl"))
        run_scenario(chaos, workers=1, store=store, retry=FAST_RETRY)
        # A second non-resume run appends superseding duplicates, the
        # situation compaction exists for.
        run_scenario(chaos, workers=1, store=store, retry=FAST_RETRY)
        assert len(store.rows()) == 6
        assert store.compact() == 3
        resumed = run_scenario(chaos, workers=1, resume=True, store=store, retry=FAST_RETRY)
        assert resumed.executed == 0
        assert resumed.skipped == 3
        assert resumed.errored == 0
        # and the compacted store holds exactly one row per cell
        assert len(store.rows()) == 3
        assert set(store.rows_by_key()) == {r["key"] for r in store.rows()}

    def test_resume_takes_ok_row_over_later_error_row(self, tmp_path):
        # A flaky non-resume rerun can append an error row after the
        # cell's ok row; the ok row is still the cell's outcome.
        chaos = _chaos_spec([{"mode": "ok", "payload": 1}])
        store = ResultStore(str(tmp_path / "flaky.jsonl"))
        (ok,) = run_scenario(chaos, workers=1, store=store, retry=FAST_RETRY).rows
        store.append(error_row(ok, {"kind": "exception", "type": "A"}, attempts=2, wall=0.1))
        resumed = run_scenario(chaos, workers=1, resume=True, store=store, retry=FAST_RETRY)
        assert (resumed.executed, resumed.skipped, resumed.errored) == (0, 1, 0)
        assert strip_timing(resumed.rows[0]) == strip_timing(ok)

    def test_store_is_one_jsonl_file(self, tmp_path):
        chaos = _chaos_spec([{"mode": "ok", "payload": i} for i in range(2)])
        store = ResultStore(str(tmp_path / "one.jsonl"))
        run_scenario(chaos, workers=1, store=store, retry=FAST_RETRY)
        run_scenario(chaos, workers=1, store=store, retry=FAST_RETRY)
        run_scenario(chaos, workers=1, resume=True, store=store, retry=FAST_RETRY)
        assert store.compact() == 2
        assert os.listdir(tmp_path) == ["one.jsonl"]


class TestErrorRowsExcludedFromDiffs:
    def test_diff_excludes_error_rows_like_timing(self):
        payload = {
            "spec": "s",
            "version": "1",
            "cell_index": 0,
            "key": "k0",
            "params": {},
            "seed": 1,
            "knobs": {},
            "repeats": 1,
            "runner": "chaos_probe",
        }
        ok = {**{k: payload[k] for k in ("spec", "version", "cell_index", "params", "seed", "knobs")},
              "key": "k1", "result": {"x": 1}, "timing": {"w": 1}}
        err_a = error_row(payload, {"kind": "exception", "type": "A"}, attempts=1, wall=0.1)
        err_b = error_row(payload, {"kind": "timeout", "type": "B"}, attempts=3, wall=9.9)
        assert diff_rows([ok, err_a], [ok, err_b]) == []
        assert diff_rows([ok, err_a], [ok]) == []
        assert diff_rows([ok, err_a], [ok, err_b], include_errors=True)

    def test_ok_row_supersedes_error_row_for_same_key_regardless_of_order(self):
        payload = {
            "spec": "s",
            "version": "1",
            "cell_index": 0,
            "key": "k0",
            "params": {},
            "seed": 1,
            "knobs": {},
            "repeats": 1,
            "runner": "chaos_probe",
        }
        ok = {
            **{k: payload[k] for k in ("spec", "version", "cell_index", "key", "params", "seed", "knobs")},
            "result": {"x": 1},
            "timing": {"w": 1},
        }
        err = error_row(payload, {"kind": "exception", "type": "A"}, attempts=1, wall=0.1)
        # quarantine-then-retry order: error first, recovered ok appended after
        assert diff_rows([err, ok], [ok], include_errors=True) == []
        # flaky re-run order: ok first, stale error appended after — the ok
        # row is still the cell's definitive outcome
        assert diff_rows([ok, err], [ok], include_errors=True) == []
        assert diff_rows([ok, err], [err, ok], include_errors=True) == []
        # but an error-only store really does differ from an ok-only one
        assert diff_rows([err], [ok], include_errors=True)
        # among rows of equal status, plain last-wins still applies
        err_late = error_row(payload, {"kind": "timeout", "type": "B"}, attempts=3, wall=9.9)
        assert diff_rows([err, err_late], [err_late], include_errors=True) == []


class TestSimulatorSweepDeterminism:
    def test_e8_rows_identical_across_worker_counts(self):
        sweep = get("e8_linial")
        serial = run_scenario(sweep, workers=1).rows
        parallel = run_scenario(sweep, workers=4).rows
        assert _strip_all(parallel) == _strip_all(serial)
        assert not diff_rows(parallel, serial)

    def test_e8_rows_identical_across_engines(self):
        sweep = get("e8_linial")
        left = run_scenario(sweep, workers=1, knobs=Knobs(scan_path="python")).rows
        right = run_scenario(sweep, workers=1, knobs=Knobs(scan_path="numpy")).rows
        assert not diff_rows(left, right, ignore_knobs=True)


class TestStoreHardening:
    def _row(self, key, x=1):
        return {"key": key, "cell_index": 0, "result": {"x": x}, "timing": {"w": 1}}

    def test_torn_write_heal_logs_offset(self, tmp_path, caplog):
        path = str(tmp_path / "torn.jsonl")
        store = ResultStore(path)
        store.append(self._row("a"))
        size = os.path.getsize(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "b", "cell_ind')  # torn: no newline
        with caplog.at_level(logging.WARNING, logger="repro.runtime.store"):
            store.append(self._row("c"))
        assert any(
            f"byte offset {size}" in record.getMessage() and "healed" in record.getMessage()
            for record in caplog.records
        )
        assert [r["key"] for r in store.rows()] == ["a", "c"]

    def test_compact_drops_superseded_rows_atomically(self, tmp_path):
        store = ResultStore(str(tmp_path / "c.jsonl"))
        store.append(self._row("a", x=1))
        store.append(self._row("b", x=2))
        store.append(self._row("a", x=3))
        before = store.rows_by_key()
        assert before["a"]["result"]["x"] == 3  # the latest row per key
        assert store.compact() == 1
        assert len(store.rows()) == 2
        assert store.rows_by_key() == before
        assert store.compact() == 0  # idempotent
        assert [r["key"] for r in store.rows()] == ["b", "a"]

    def test_compact_keeps_ok_row_over_later_error_row(self, tmp_path):
        store = ResultStore(str(tmp_path / "flaky.jsonl"))
        ok = self._row("a")
        store.append(ok)
        store.append({**self._row("a"), "status": "error", "error": {"type": "X"}})
        assert diff_rows(store.rows(), [ok]) == []
        assert store.compact() == 1
        assert store.rows() == [ok]
        assert diff_rows(store.rows(), [ok]) == []

    def test_fsync_store_appends_and_reads(self, tmp_path):
        store = ResultStore(str(tmp_path / "f.jsonl"), fsync=True)
        store.append(self._row("a"))
        assert [r["key"] for r in store.rows()] == ["a"]


class TestDegradation:
    def test_spawn_failure_degrades_to_serial(self, tmp_path, monkeypatch):
        import multiprocessing.process as mpp

        def broken_start(self):
            raise OSError("cannot fork")

        monkeypatch.setattr(mpp.BaseProcess, "start", broken_start, raising=True)
        chaos = _chaos_spec(
            [{"mode": "ok", "payload": i} for i in range(3)] + [{"mode": "raise"}]
        )
        store = ResultStore(str(tmp_path / "d.jsonl"))
        report = run_scenario(chaos, workers=4, store=store, retry=FAST_RETRY)
        assert report.executed == 4
        assert report.errored == 1  # quarantine still works in-process
        ok_rows = [r for r in report.rows if not is_error_row(r)]
        assert [r["result"]["payload"] for r in ok_rows] == [0, 1, 2]
