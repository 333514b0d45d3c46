"""Hardened scenario executor: fan cells out, survive their failures.

The executor turns a :class:`~repro.runtime.spec.ScenarioSpec` into a
list of self-contained cell *payloads* (runner name, canonical params,
derived seed, resolved knobs, cache key — no live objects) and executes
them either in one worker process per cell (``workers > 1``) or inline
(``workers <= 1``, the serial debugging fallback), appending each
finished row to the :class:`~repro.runtime.store.ResultStore` in
deterministic cell order.

**Fault tolerance.**  A cell that misbehaves cannot take the sweep down
with it.  Per attempt the executor enforces the run's
:class:`~repro.runtime.spec.RetryPolicy`:

* **timeout** — a worker past ``timeout_seconds`` wall-clock is
  terminated (SIGTERM, then SIGKILL) and the cell retried.  Only the
  process-per-cell path can enforce this; the in-process serial path
  cannot kill a hung cell and runs without timeouts.
* **crash** — a worker that dies without reporting (segfault, OOM kill,
  ``SIGKILL``) is detected through its pipe's EOF and the lost cell is
  *requeued* rather than deadlocking the run; the retry runs **solo**
  (no concurrent workers) on the assumption the crash was
  memory-pressure induced.
* **exception** — a runner that raises is retried like any other
  failure.
* **retry** — a failed attempt goes back on the queue at once, on both
  paths, through one rule (:func:`_settle_failure`): the cells are
  deterministic and the workers local processes, so a delay would
  relieve no shared resource.
* **quarantine** — a cell that exhausts ``1 + max_retries`` attempts is
  recorded as a structured *error row* (``status: "error"`` with the
  exception type, a traceback digest and the attempt count — see
  :mod:`repro.runtime.store`) and the rest of the sweep completes.
  Error rows are excluded from store diffs exactly like ``timing``.
* **degradation** — if worker processes cannot be spawned at all
  (``OSError`` from ``fork``/``spawn``), the remaining cells run
  serially in-process instead of failing the sweep.

**Determinism.**  Payloads are built in cell-index order and rows are
buffered and flushed in that same order regardless of completion order,
worker count or retries; per-cell seeds are pure functions of the spec
(:func:`repro.runtime.spec.cell_seed`), and the retry policy never
enters a seed or cache key.  Only the ``timing`` field of an ok row
varies between runs, and every comparison helper excludes it.

**Resume.**  With ``resume=True`` the executor reads the store's rows
once and skips every cell that already has an outcome row (see the
outcome rule in :mod:`repro.runtime.store`: an ok row wins over an
error row for the same key, whatever their order).  A cell whose
outcome is an error row is skipped too by default, so a flaky sweep
does not thrash; pass ``retry_errors=True`` (CLI ``--retry-errors``) to
re-execute exactly those quarantined cells.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core import engine
from repro.obs import get_registry, tracer
from repro.obs import trace as obs_trace
from repro.runtime import workloads
from repro.runtime.spec import Knobs, RetryPolicy, ScenarioSpec, cache_key, cell_seed
from repro.runtime.store import ResultStore, is_error_row


@dataclass
class RunReport:
    """Outcome of one scenario execution."""

    spec: str
    executed: int
    skipped: int
    rows: List[Dict[str, object]] = field(default_factory=list)
    wall_seconds: float = 0.0
    errored: int = 0
    quarantined: List[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return self.executed + self.skipped

    @property
    def ok(self) -> bool:
        """Whether every selected cell has a successful row."""
        return self.errored == 0


def _build_payload(spec: ScenarioSpec, index: int, cell, knobs: Knobs) -> Dict[str, object]:
    """A self-contained, picklable description of one cell execution."""
    return {
        "spec": spec.name,
        "version": spec.version,
        "runner": spec.runner,
        "cell_index": index,
        "params": dict(cell.params),
        "seed": cell_seed(spec, cell),
        "repeats": cell.repeats,
        "knobs": knobs.as_dict(),
        "key": cache_key(spec, cell, knobs),
    }


def execute_payload(payload: Dict[str, object]) -> Dict[str, object]:
    """Run one cell payload and build its result row (worker entry point).

    Both the serial and the process-per-cell paths run every cell here,
    so this is where the cell's ``scan_path`` knob becomes the engine
    scope its runner runs in (:func:`repro.core.engine.scan_path`).

    The optional ``trace`` payload field carries the parent's span
    context across the process boundary; it seeds the ambient tracing
    context and never enters the result row (built from explicit fields
    below) or the cache key (computed from spec data, not the payload).
    """
    trace_ctx = payload.get("trace")
    if trace_ctx:
        obs_trace.set_context(trace_ctx.get("trace_id"), trace_ctx.get("span_id"))
    run = workloads.get_runner(payload["runner"])
    context = workloads.CellContext(
        params=payload["params"],
        seed=payload["seed"],
        knobs=Knobs(**payload["knobs"]),
        repeats=payload["repeats"],
    )
    span = tracer().span(
        "runtime.cell.run",
        spec=payload["spec"],
        cell_index=payload["cell_index"],
        runner=payload["runner"],
    )
    with span, engine.scan_path(context.knobs.scan_path):
        start = time.perf_counter()
        result = run(context)
        wall = time.perf_counter() - start
    if not isinstance(result, dict):
        raise TypeError(
            f"runner {payload['runner']!r} returned {type(result).__name__}, expected dict"
        )
    timing = result.pop("timing", None)
    timing = dict(timing) if isinstance(timing, dict) else {}
    timing.setdefault("cell_wall_seconds", round(wall, 4))
    return {
        "spec": payload["spec"],
        "version": payload["version"],
        "cell_index": payload["cell_index"],
        "key": payload["key"],
        "params": payload["params"],
        "seed": payload["seed"],
        "knobs": payload["knobs"],
        "result": result,
        "timing": timing,
    }


def _describe_exception(exc: BaseException) -> Dict[str, object]:
    """Structured failure description for one raised exception."""
    import hashlib

    tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    return {
        "kind": "exception",
        "type": type(exc).__name__,
        "message": str(exc)[:500],
        "traceback_digest": hashlib.sha256(tb.encode("utf-8")).hexdigest()[:16],
    }


def error_row(
    payload: Dict[str, object], failure: Dict[str, object], attempts: int, wall: float
) -> Dict[str, object]:
    """The quarantine row recorded for a cell that exhausted its retries.

    Same identity fields as an ok row (so ``--resume`` matches it by
    cache key) but ``status: "error"`` and an ``error`` block instead of
    a ``result``.  Excluded from diffs like ``timing``.
    """
    return {
        "spec": payload["spec"],
        "version": payload["version"],
        "cell_index": payload["cell_index"],
        "key": payload["key"],
        "params": payload["params"],
        "seed": payload["seed"],
        "knobs": payload["knobs"],
        "status": "error",
        "error": {**failure, "attempts": attempts},
        "timing": {"cell_wall_seconds": round(wall, 4)},
    }


def _pool_context():
    """Prefer fork (cheap, inherits ad-hoc registrations); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _cell_worker(conn, payload: Dict[str, object]) -> None:
    """Process-per-cell entry: run the payload, report through the pipe.

    A worker that dies without sending anything (SIGKILL, segfault, OOM)
    leaves the parent an EOF on ``conn`` — the crash-detection signal.
    """
    try:
        row = execute_payload(payload)
    except BaseException as exc:  # report, never propagate: the pipe is the protocol
        try:
            conn.send(("error", _describe_exception(exc)))
        finally:
            conn.close()
        return
    conn.send(("ok", row))
    conn.close()


@dataclass
class _QueueItem:
    """One cell execution attempt waiting for (or holding) a worker."""

    payload: Dict[str, object]
    position: int  # index into the pending order, for ordered flushing
    attempt: int = 1
    solo: bool = False  # crash retry: run with no concurrent workers
    first_start: Optional[float] = None
    enqueued: float = 0.0  # monotonic enqueue time (queued-span duration)


@dataclass
class _Active:
    """A running worker process and its result pipe."""

    process: object
    conn: object
    item: _QueueItem
    deadline: Optional[float]


def _reap(active: _Active) -> None:
    """Close the pipe and terminate/join the worker (idempotent, forceful)."""
    try:
        active.conn.close()
    except OSError:
        pass
    process = active.process
    if process.is_alive():
        process.terminate()
        process.join(0.5)
        if process.is_alive():
            process.kill()
            process.join()
    else:
        process.join()


def _lifecycle(name: str, item: _QueueItem, dur: float, **attrs) -> None:
    """Scheduler-side span for one cell lifecycle transition."""
    tracer().emit(
        name,
        time.time() - dur,
        dur,
        spec=item.payload["spec"],
        cell_index=item.payload["cell_index"],
        attempt=item.attempt,
        **attrs,
    )


def _settle_failure(
    item: _QueueItem, failure: Dict[str, object], retry: RetryPolicy, now: float
) -> Optional[Dict[str, object]]:
    """The one retry rule of both execution paths, for a failed attempt.

    With attempts left, ``item`` is set up for its next attempt (a crash
    retry runs solo) and ``None`` is returned: the caller requeues it at
    once.  Otherwise the cell's quarantine row is returned.
    """
    registry = get_registry()
    kind = failure.get("kind", "unknown")
    registry.counter(f"runtime.failures.{kind}").inc()
    if item.attempt < 1 + retry.max_retries:
        _lifecycle("runtime.cell.retry", item, 0.0, kind=kind)
        registry.counter("runtime.retries").inc()
        item.attempt += 1
        item.solo = kind == "crash"
        item.enqueued = now
        return None
    wall = now - (item.first_start if item.first_start is not None else now)
    _lifecycle("runtime.cell.quarantined", item, wall, kind=kind)
    registry.counter("runtime.quarantined").inc()
    return error_row(item.payload, failure, item.attempt, wall)


def _run_process_per_cell(
    pending: List[Dict[str, object]],
    workers: int,
    retry: RetryPolicy,
    finalize: Callable[[int, Dict[str, object]], None],
) -> List[_QueueItem]:
    """Schedule ``pending`` over at most ``workers`` single-cell processes.

    Calls ``finalize(position, row)`` for every finished cell (ok or
    quarantined error row).  Returns the items still unexecuted if
    process spawning broke (the caller degrades them to serial
    execution); an empty list on a normal run.
    """
    context = _pool_context()
    trc = tracer()
    registry = get_registry()
    now0 = time.monotonic()
    queue: List[_QueueItem] = [
        _QueueItem(payload=p, position=i, enqueued=now0) for i, p in enumerate(pending)
    ]
    active: List[_Active] = []
    degraded = False

    def fail(item: _QueueItem, failure: Dict[str, object], now: float) -> None:
        """Requeue the attempt or finalize the cell's quarantine row."""
        row = _settle_failure(item, failure, retry, now)
        if row is None:
            queue.append(item)
        else:
            finalize(item.position, row)

    while queue or active:
        now = time.monotonic()

        # Spawn phase: fill free worker slots with eligible queue items.
        # A solo item (crash retry) runs alone — nothing starts beside
        # it, and it does not start while anything else runs.
        if not degraded:
            solo_running = any(a.item.solo for a in active)
            while len(active) < workers and not solo_running:
                eligible = next(
                    (i for i, item in enumerate(queue) if not (item.solo and active)), None
                )
                if eligible is None:
                    break
                item = queue.pop(eligible)
                parent_conn, child_conn = context.Pipe(duplex=False)
                process = context.Process(
                    target=_cell_worker, args=(child_conn, item.payload), daemon=True
                )
                try:
                    process.start()
                except OSError:
                    # Can't spawn workers any more (fd/memory pressure):
                    # degrade the rest of the sweep to serial execution.
                    parent_conn.close()
                    child_conn.close()
                    queue.append(item)
                    degraded = True
                    break
                child_conn.close()  # parent keeps only the read end -> EOF on death
                if trc.enabled:
                    _lifecycle("runtime.cell.queued", item, now - item.enqueued)
                if item.first_start is None:
                    item.first_start = now
                deadline = (
                    now + retry.timeout_seconds if retry.timeout_seconds is not None else None
                )
                active.append(_Active(process=process, conn=parent_conn, item=item, deadline=deadline))
                if item.solo:
                    solo_running = True

        if not active:
            break  # only a degraded run leaves queued items with no worker

        # Wait for the first result, crash (EOF) or deadline.
        timeout = 0.5
        next_deadline = min((a.deadline for a in active if a.deadline is not None), default=None)
        if next_deadline is not None:
            timeout = min(timeout, max(0.0, next_deadline - time.monotonic()))
        ready = multiprocessing.connection.wait([a.conn for a in active], timeout)

        for conn in ready:
            entry = next(a for a in active if a.conn is conn)
            active.remove(entry)
            try:
                kind, data = entry.conn.recv()
            except (EOFError, OSError):
                kind, data = "crash", None
            _reap(entry)
            now = time.monotonic()
            if kind == "ok":
                if trc.enabled:
                    _lifecycle(
                        "runtime.cell.done",
                        entry.item,
                        now - (entry.item.first_start or now),
                    )
                registry.counter("runtime.cells_done").inc()
                finalize(entry.item.position, data)
            elif kind == "error":
                fail(entry.item, data, now)
            else:
                exitcode = entry.process.exitcode
                fail(
                    entry.item,
                    {
                        "kind": "crash",
                        "type": "WorkerCrash",
                        "message": f"worker process died with exit code {exitcode}",
                        "exitcode": exitcode,
                        "traceback_digest": "",
                    },
                    now,
                )

        # Deadline sweep: terminate workers past their per-attempt budget.
        now = time.monotonic()
        for entry in [a for a in active if a.deadline is not None and now >= a.deadline]:
            active.remove(entry)
            _reap(entry)
            fail(
                entry.item,
                {
                    "kind": "timeout",
                    "type": "CellTimeout",
                    "message": f"attempt exceeded {retry.timeout_seconds}s wall clock",
                    "traceback_digest": "",
                },
                now,
            )

    return queue


def _run_serial(
    items: List[_QueueItem],
    retry: RetryPolicy,
    finalize: Callable[[int, Dict[str, object]], None],
) -> None:
    """In-process execution with retry/quarantine but no timeout enforcement.

    The serial path is also the degradation target when worker spawning
    breaks mid-run, in which case an item may arrive mid-retry.
    """
    for item in sorted(items, key=lambda item: item.position):
        if item.first_start is None:
            item.first_start = time.monotonic()
        row = None
        while row is None:
            try:
                row = execute_payload(item.payload)
            except Exception as exc:  # noqa: BLE001 - quarantine, don't kill the sweep
                row = _settle_failure(item, _describe_exception(exc), retry, time.monotonic())
        finalize(item.position, row)


def run_scenario(
    spec: ScenarioSpec,
    workers: int = 1,
    quick: bool = False,
    resume: bool = False,
    store: Optional[ResultStore] = None,
    knobs: Optional[Knobs] = None,
    log: Optional[Callable[[str], None]] = None,
    retry: Optional[RetryPolicy] = None,
    retry_errors: bool = False,
) -> RunReport:
    """Execute a scenario's cells; returns every row (cached and fresh).

    Args:
        spec: the scenario to run.
        workers: worker slots; ``<= 1`` runs serially in-process (the
            debugging fallback — no subprocesses, so no timeout
            enforcement or crash isolation).
        quick: restrict to the quick cell subset.
        resume: skip cells that already have an outcome row in
            ``store`` (error outcomes included, unless ``retry_errors``).
        store: JSONL store to append rows to (and read cached rows
            from); ``None`` keeps everything in memory.
        knobs: resolved execution knobs; defaults to the environment
            (:func:`repro.runtime.spec.resolve_knobs`).
        log: optional progress sink (one line per cell).
        retry: timeout/retry policy for this run; defaults to
            ``RetryPolicy()``.
        retry_errors: under ``resume``, re-execute quarantined cells
            instead of skipping their error rows.

    Returns a :class:`RunReport` whose ``rows`` list every selected cell
    in cell-index order — freshly computed rows and, under ``resume``,
    the stored rows of skipped cells.  ``errored`` counts the error rows
    among them (fresh quarantines and skipped stored ones alike), so a
    sweep is clean exactly when ``report.ok``.
    """
    from repro.runtime.spec import resolve_knobs

    knobs = knobs or resolve_knobs()
    retry = retry if retry is not None else RetryPolicy()
    start = time.perf_counter()
    payloads = [
        _build_payload(spec, index, cell, knobs) for index, cell in spec.iter_cells(quick=quick)
    ]

    trc = tracer()
    scenario_span = trc.span(
        "runtime.scenario", spec=spec.name, workers=workers, quick=quick
    )
    scenario_span.__enter__()
    if trc.enabled:
        # Propagate the scenario span into the worker subprocesses via an
        # optional payload field.  Rows are built from explicit payload
        # fields (execute_payload/error_row), so the context never
        # reaches a row, a cache key, or a diff.
        trace_ctx = {
            "trace_id": scenario_span.trace_id,
            "span_id": scenario_span.span_id,
        }
        for payload in payloads:
            payload["trace"] = trace_ctx

    cached: Dict[str, Dict[str, object]] = {}
    if resume and store is not None:
        stored = store.rows_by_key()
        for payload in payloads:
            row = stored.get(payload["key"])
            if row is not None and not (retry_errors and is_error_row(row)):
                cached[payload["key"]] = row
    pending = [p for p in payloads if p["key"] not in cached]

    fresh: Dict[str, Dict[str, object]] = {}

    def record(row: Dict[str, object]) -> None:
        fresh[row["key"]] = row
        if store is not None:
            store.append(row)
        if log is not None:
            if is_error_row(row):
                error = row.get("error", {})
                log(
                    f"{spec.name}[{row['cell_index']}] ERROR {error.get('type')} "
                    f"after {error.get('attempts')} attempt(s): {error.get('message', '')}"
                )
            else:
                wall = row["timing"].get("wall_seconds", row["timing"].get("cell_wall_seconds"))
                log(f"{spec.name}[{row['cell_index']}] {wall}s  {row['result'].get('rounds', '')}")

    # Buffer out-of-order completions; flush rows in cell-index order so
    # the on-disk order is deterministic across worker counts and retries.
    buffered: Dict[int, Dict[str, object]] = {}
    flushed = 0

    def finalize(position: int, row: Dict[str, object]) -> None:
        nonlocal flushed
        buffered[position] = row
        while flushed in buffered:
            record(buffered.pop(flushed))
            flushed += 1

    try:
        if workers > 1 and len(pending) > 1:
            leftover = _run_process_per_cell(pending, workers, retry, finalize)
            if leftover:
                _run_serial(leftover, retry, finalize)
        else:
            items = [_QueueItem(payload=p, position=i) for i, p in enumerate(pending)]
            _run_serial(items, retry, finalize)
    finally:
        scenario_span.set(executed=len(pending), cached=len(cached))
        scenario_span.__exit__(None, None, None)

    rows = [cached.get(p["key"]) or fresh[p["key"]] for p in payloads]
    errored = [row for row in rows if is_error_row(row)]
    return RunReport(
        spec=spec.name,
        executed=len(pending),
        skipped=len(cached),
        rows=rows,
        wall_seconds=round(time.perf_counter() - start, 4),
        errored=len(errored),
        quarantined=[row["key"] for row in errored],
    )
