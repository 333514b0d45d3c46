"""Span tracing: where the time went, as an append-only JSONL sink.

A :class:`Tracer` records *spans* — named, timed intervals with free-form
attributes — into a ``repro-trace/v1`` JSONL file.  Line 1 is a header
``{"format": "repro-trace/v1", "pid": ...}``; every later line is one
completed span::

    {"trace_id": "9f2c...", "span_id": "1a40...", "parent": null,
     "name": "runtime.cell.run", "t0": 1754650000.123, "dur": 0.0421,
     "attrs": {"spec": "e1_sweep", "cell_index": 0}}

``trace_id`` groups the spans of one logical operation (a scenario
sweep, a daemon request) across processes; ``parent`` is the enclosing
span's id, ``None`` at the root.  ``t0`` is wall-clock epoch seconds (so
traces from different processes interleave on a shared axis), ``dur``
is measured with ``perf_counter``.

**Quarantine rule (the timing discipline).**  Everything this module
emits is *timing-like*: spans never enter cell seeds, cache keys,
serving responses or ``diff_rows`` comparisons — the sink is a separate
file, and the instrumented call sites only ever *read* the objects they
wrap.  ``tests/test_obs.py`` pins this with a tracing-on vs tracing-off
differential matrix across engine × plane × repair-path combinations.

**Overhead budget.**  Tracing is disabled by default: :func:`tracer`
returns the process-wide :class:`NullTracer` singleton unless the
``REPRO_TRACE`` environment variable is truthy (or :func:`configure`
was called).  A disabled span is one attribute check plus a shared
no-op context manager — the ``perf_smoke`` suite budgets the disabled
instrumentation at <5% of an E1 cell.

**Durability.**  The sink follows the shared append-only log format of
:mod:`repro.jsonlog` (torn-tail heal on open, a held handle flushed per
event and dropped on a failed write, skip on read, mid-file corruption
is an error).  Each process writes its *own* file (the default
sink is ``<trace dir>/trace-<pid>.jsonl``; a forked worker inherits the
environment and resolves a fresh per-pid file), so concurrent sweeps
never interleave partial lines.

**Propagation.**  :func:`current_context` / :func:`set_context` carry
``(trace_id, span_id)`` across process and socket boundaries: the
executor stows the context in each worker payload, and the serving
daemon accepts an optional ``"trace"`` request field — both are
stripped before any output-bearing object sees them.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro import jsonlog

#: On-disk trace format tag; bump on breaking layout changes.
TRACE_FORMAT = "repro-trace/v1"

#: Fields of one span event, in canonical order.
EVENT_FIELDS = ("trace_id", "span_id", "parent", "name", "t0", "dur", "attrs")

_lock = threading.Lock()
_id_counter = 0


def _new_id() -> str:
    """A process-unique span/trace id (pid-salted counter, hex)."""
    global _id_counter
    with _lock:
        _id_counter += 1
        counter = _id_counter
    return f"{os.getpid():x}-{counter:x}"


class _NullSpan:
    """The shared no-op span: absorbs ``set`` and the context protocol."""

    __slots__ = ()

    def set(self, **_attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a cheap no-op."""

    enabled = False
    path = None

    def span(self, _name: str, **_attrs) -> _NullSpan:
        return _NULL_SPAN

    def emit(self, _name: str, _t0: float, _dur: float, **_attrs) -> None:
        return None

    def close(self) -> None:
        return None


NULL_TRACER = NullTracer()


class _Span:
    """One live span: times itself and writes its event on exit."""

    __slots__ = ("_tracer", "name", "trace_id", "span_id", "parent", "attrs", "_t0", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        trace_id, parent = current_context()
        self.trace_id = trace_id or _new_id()
        self.parent = parent
        self.span_id = _new_id()

    def set(self, **attrs) -> "_Span":
        """Attach attributes discovered mid-span (e.g. repair radius)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        _push_context(self.trace_id, self.span_id)
        self._t0 = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        dur = time.perf_counter() - self._start
        _pop_context()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._write(
            {
                "trace_id": self.trace_id,
                "span_id": self.span_id,
                "parent": self.parent,
                "name": self.name,
                "t0": round(self._t0, 6),
                "dur": round(dur, 6),
                "attrs": self.attrs,
            }
        )
        return False


class Tracer:
    """A span sink appending ``repro-trace/v1`` events to one JSONL file.

    The sink is a :class:`repro.jsonlog.Appender`: its handle opens (and
    heals) on the first event and stays held for the tracer's lifetime,
    each event is one flushed write (``fsync=True`` additionally
    survives OS death, mirroring the result store's durability knob),
    and a failed write drops the handle for the next event to reopen.
    """

    enabled = True

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = path
        self.fsync = fsync
        self._log = jsonlog.Appender(
            path, {"format": TRACE_FORMAT, "pid": os.getpid()}, fsync
        )

    # ------------------------------------------------------------------ sink
    def _write(self, event: Dict[str, object]) -> None:
        self._log.write(json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n")

    # ------------------------------------------------------------------- api
    def span(self, name: str, **attrs) -> _Span:
        """A context manager timing one named interval."""
        return _Span(self, name, attrs)

    def emit(self, name: str, t0: float, dur: float, **attrs) -> None:
        """Record an already-measured interval (scheduler-side lifecycle)."""
        trace_id, parent = current_context()
        self._write(
            {
                "trace_id": trace_id or _new_id(),
                "span_id": _new_id(),
                "parent": parent,
                "name": name,
                "t0": round(t0, 6),
                "dur": round(dur, 6),
                "attrs": attrs,
            }
        )

    def close(self) -> None:
        self._log.close()


# ------------------------------------------------------------- ambient state
# The active tracer is per-process module state: resolved lazily from the
# environment (so forked executor workers re-resolve their own per-pid
# sink), overridable in-process via configure()/disable().
_tracer: Optional[object] = None
_tracer_pid: Optional[int] = None

# Ambient (trace_id, span_id) context, per *thread*.  The threaded
# serving daemon handles connections concurrently, each carrying its own
# propagated context, so the stack and the seed both live in
# thread-local storage — a handler thread can never re-parent another
# connection's spans.  (Forked executor workers are single-threaded and
# see an ordinary per-process copy, exactly as before.)
class _ContextState(threading.local):
    def __init__(self) -> None:
        self.stack: List[Tuple[str, Optional[str]]] = []
        self.seed: Tuple[Optional[str], Optional[str]] = (None, None)


_context = _ContextState()


def _push_context(trace_id: str, span_id: str) -> None:
    _context.stack.append((trace_id, span_id))


def _pop_context() -> None:
    if _context.stack:
        _context.stack.pop()


def current_context() -> Tuple[Optional[str], Optional[str]]:
    """The ambient ``(trace_id, parent span_id)`` for a new span."""
    if _context.stack:
        return _context.stack[-1]
    return _context.seed


def set_context(trace_id: Optional[str], span_id: Optional[str] = None) -> None:
    """Seed the calling thread's ambient context (cross-process/socket
    propagation; each daemon handler thread seeds its own)."""
    _context.seed = (trace_id, span_id)


def trace_dir() -> str:
    """The per-process default sink directory.

    ``REPRO_TRACE_DIR`` when set, else ``<results>/trace`` following the
    result store's ``REPRO_RESULTS_DIR`` convention.
    """
    explicit = os.environ.get("REPRO_TRACE_DIR")
    if explicit:
        return explicit
    base = os.environ.get("REPRO_RESULTS_DIR") or os.path.join(
        os.getcwd(), "benchmarks", "results"
    )
    return os.path.join(base, "trace")


def _env_enabled() -> bool:
    value = os.environ.get("REPRO_TRACE", "").strip().lower()
    return value not in ("", "0", "false", "off", "no")


def _resolve_path() -> str:
    explicit = os.environ.get("REPRO_TRACE_FILE")
    if explicit:
        return explicit
    return os.path.join(trace_dir(), f"trace-{os.getpid()}.jsonl")


def tracer():
    """The process-wide active tracer (the :data:`NULL_TRACER` when off).

    Lazily resolved from the environment; a forked child (different pid)
    re-resolves so every process owns its own sink file.  When
    ``REPRO_TRACE_FILE`` names an exact file, a forked child derives a
    per-pid sibling (``<file>.<pid>``) instead of sharing the handle —
    two writers on one appender would interleave partial lines.
    """
    global _tracer, _tracer_pid
    pid = os.getpid()
    if _tracer is not None and _tracer_pid == pid:
        return _tracer
    if _tracer is not None and isinstance(_tracer, Tracer) and _tracer_pid != pid:
        # Forked child of a configured/enabled parent: own file, same spirit.
        _tracer = Tracer(f"{_tracer.path}.{pid}", fsync=_tracer.fsync)
        _tracer_pid = pid
        return _tracer
    if _env_enabled():
        _tracer = Tracer(_resolve_path())
    else:
        _tracer = NULL_TRACER
    _tracer_pid = pid
    return _tracer


def configure(path: str, fsync: bool = False) -> Tracer:
    """Programmatically enable tracing to ``path`` (tests, embedders)."""
    global _tracer, _tracer_pid
    if isinstance(_tracer, Tracer):
        _tracer.close()
    _tracer = Tracer(path, fsync=fsync)
    _tracer_pid = os.getpid()
    return _tracer


def disable() -> None:
    """Disable tracing for this process (back to the no-op tracer)."""
    global _tracer, _tracer_pid
    if isinstance(_tracer, Tracer):
        _tracer.close()
    _tracer = NULL_TRACER
    _tracer_pid = os.getpid()
    set_context(None, None)


def reset() -> None:
    """Forget any explicit configuration; re-resolve from the environment."""
    global _tracer, _tracer_pid
    if isinstance(_tracer, Tracer):
        _tracer.close()
    _tracer = None
    _tracer_pid = None
    set_context(None, None)


# ------------------------------------------------------------------ reading
def read_events(path: str) -> List[Dict[str, object]]:
    """All complete span events of one trace file, header validated.

    The torn tail and corruption policy is :func:`repro.jsonlog.read`'s;
    corruption or a bad header raise :class:`ValueError`.
    """
    return [
        row
        for _line, row in jsonlog.read(path, fmt=TRACE_FORMAT, kind="trace", noun="span")
        if isinstance(row, dict) and "name" in row
    ]


def iter_trace_files(path: str) -> Iterator[str]:
    """Yield the trace file(s) at ``path`` (a file, or every ``*.jsonl*``
    under a directory — per-pid sinks included)."""
    if os.path.isdir(path):
        for entry in sorted(os.listdir(path)):
            if ".jsonl" in entry:
                yield os.path.join(path, entry)
    else:
        yield path


def load_trace(path: str) -> List[Dict[str, object]]:
    """Events from a trace file or a directory of per-pid trace files."""
    events: List[Dict[str, object]] = []
    for file_path in iter_trace_files(path):
        events.extend(read_events(file_path))
    return events


class PhaseTimer:
    """Setup/solve/verify (or any named) phase split for one operation.

    Measures each phase unconditionally (two ``perf_counter`` calls — the
    numbers feed a row's ``timing`` field, which exists with tracing on
    or off) and emits a ``<name>.<phase>`` span when tracing is enabled.
    The split is *timing*: excluded from cache keys, seeds and diffs
    like every other timing field.
    """

    __slots__ = ("name", "attrs", "durations")

    def __init__(self, name: str, **attrs) -> None:
        self.name = name
        self.attrs = attrs
        self.durations: Dict[str, float] = {}

    class _Phase:
        __slots__ = ("timer", "phase", "_span", "_start")

        def __init__(self, timer: "PhaseTimer", phase: str) -> None:
            self.timer = timer
            self.phase = phase

        def __enter__(self):
            self._span = tracer().span(
                f"{self.timer.name}.{self.phase}", **self.timer.attrs
            )
            self._span.__enter__()
            self._start = time.perf_counter()
            return self

        def __exit__(self, *exc):
            wall = time.perf_counter() - self._start
            self.timer.durations[self.phase] = (
                self.timer.durations.get(self.phase, 0.0) + wall
            )
            return self._span.__exit__(*exc)

    def phase(self, phase: str) -> "PhaseTimer._Phase":
        """Time one named phase (accumulates on repeated entry)."""
        return PhaseTimer._Phase(self, phase)

    def as_timing(self, digits: int = 4) -> Dict[str, float]:
        """The split as a ``timing``-style sub-dict (rounded seconds)."""
        return {phase: round(wall, digits) for phase, wall in self.durations.items()}
