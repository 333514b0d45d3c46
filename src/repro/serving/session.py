"""The online serving loop: sessions, batched queries, keyed result cache.

A :class:`ServingSession` fronts a :class:`~repro.serving.artifact.ColoringArtifact`
with the request/response surface of the ``repro-serving/v1`` wire
protocol — :mod:`repro.serving.protocol` is the normative spec; this
module implements it for in-process callers (the CLI, the
``serving_churn`` runner) and for the daemon that shares the session
over a socket.

**Concurrency (reader/writer epochs).**  The session is safe for many
threads: read ops (``color`` / ``node_palette`` / ``schedule`` /
``stats``) execute *concurrently* under the shared side of a
writer-preferring readers/writer lock, each against a snapshot of the
current epoch (the lock guarantees no write moves the epoch mid-read);
write ops (``insert`` / ``delete`` / ``set_list`` / ``rebase``)
serialize on the exclusive side, which establishes the **total order**
the twin discipline requires — every write response carries the unique
epoch it produced, and any interleaving of clients is bit-identical to
the serial schedule that replays the writes in epoch order (pinned by
the linearizability tests).  The lock exports the
``serving.readers_active`` and ``serving.write_queue_depth`` gauges.
:attr:`ServingSession.write_hook`, when set, is invoked inside the
writer critical section after each successful delta — the daemon hangs
its journal-before-ack persistence there, so journal order equals
epoch order equals ack order.

Lookups (``color`` / ``node_palette`` / ``schedule``) are answered
through a keyed LRU cache (its own small mutex, so concurrent readers
share hits).  The key is ``(artifact.epoch, parsed)``
(:func:`result_cache_key`), where ``parsed`` is the frozen, hashable
:class:`~repro.serving.protocol.QueryRequest` — envelope fields and
unknown extra fields never split an entry, and folding the epoch in
means a delta never serves a stale answer: old-epoch entries simply
stop being addressable and age out of the LRU.  The cached value is
the answer's **immutable wire line**
(:func:`~repro.serving.protocol.encode_response`, encoded once, on the
miss): the daemon writes a hit as-is (:meth:`ServingSession.query_line`)
and in-process callers get a fresh decode of it
(:meth:`ServingSession.query`), so no caller can ever reach, let alone
corrupt, what a later identical request sees.  ``stats`` is never
cached: it is O(1), and the epoch-preserving ``rebase`` changes its
``overlay_size`` / ``base_edges``.  Delta ops are never cached (they
are mutations) and their *reports* carry path-dependent cost fields, so
:meth:`ServingSession.serve_batch` keeps reports out of the response
stream's deterministic core (see the ``serving_churn`` runner, which
digests responses across ``repair_path`` values).

Long-lived sessions stay bounded: :attr:`ServingSession.reports` is a
ring buffer of the most recent ``reports_cap`` repair reports (older
ones age out), while the lossless totals — cache ``hits`` / ``misses``
/ ``evictions``, ``deltas_applied``, ``touched``, ``recolored``,
``fallbacks``, ``rebases``, ``overlay_folded`` — are counters in the
session's own :class:`~repro.obs.MetricsRegistry`
(:attr:`ServingSession.metrics`, instrument ``serving.cache.<total>``),
the one store :meth:`cache_stats` reads, so observability never
requires unbounded memory and never keeps a second copy.  The same
registry holds the lock gauges, the ``serving.repair_radius``
histogram and, under a daemon, its request and connection counts.

The ``rebase`` op (and the automatic
:class:`~repro.serving.artifact.RebasePolicy`) folds the delta overlay
into a fresh CSR base; it is epoch-preserving, so its response carries
nothing policy-dependent and rebasing/never-rebasing twins answer
identical streams (``stats`` is the one deliberately policy-dependent
op: ``overlay_size`` / ``base_edges`` are observability fields).

Every response carries ``ok`` — failed requests answer the protocol's
structured error shape (``{"ok": False, "error": ..., "code": ...}``
with a stable machine code) instead of poisoning the batch, mirroring
the runtime's quarantine philosophy: one bad cell never kills the
sweep.
"""

from __future__ import annotations

# Unused here; perfbench/layers.py patches ``session.copy.deepcopy``.
import copy  # noqa: F401
import json
import threading
from collections import OrderedDict, deque
from contextlib import contextmanager
from typing import Callable, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs import MetricsRegistry, tracer
from repro.serving import protocol
from repro.serving.artifact import ColoringArtifact, resolve_rebase_policy
from repro.serving.protocol import (
    DeltaRequest,
    ProtocolError,
    QueryRequest,
    RebaseRequest,
    ShutdownRequest,
    StatsRequest,
)
from repro.serving.repair import RepairError, resolve_repair_path

#: Read-only ops; all but ``stats`` go through the result cache
#: (re-exported from the protocol module, which is normative).
READ_OPS = protocol.READ_OPS
#: Mutating ops routed to the repair engine.
DELTA_OPS = protocol.DELTA_OPS
#: Maintenance ops: never cached, never journaled, epoch-preserving.
CONTROL_OPS = protocol.CONTROL_OPS

#: Default size of the per-session repair-report ring buffer.
DEFAULT_REPORTS_CAP = 256

#: Repair-radius histogram buckets (touched-node counts, not seconds).
RADIUS_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 1024)


def result_cache_key(epoch: int, request: QueryRequest) -> Tuple[int, QueryRequest]:
    """Cache key for a parsed lookup at an artifact epoch.

    The typed request is frozen and hashable, so two requests share a
    key exactly when they ask the same question of the same artifact
    version — whatever envelope or unknown fields rode along.
    """
    return (epoch, request)


class _ReadWriteLock:
    """Writer-preferring readers/writer lock for epoch-snapshot serving.

    Any number of readers share the lock; a writer is exclusive.  Once
    a writer is *waiting*, new readers queue behind it, so writers are
    never starved.  Waiting writers wake in no particular order
    (``notify_all`` is not FIFO); write epochs form a total order
    because writers are mutually exclusive, not because of arrival
    order.  The current levels are exported as the
    ``serving.readers_active`` and ``serving.write_queue_depth`` gauges
    of ``registry``.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        self._readers_gauge = registry.gauge("serving.readers_active")
        self._queue_gauge = registry.gauge("serving.write_queue_depth")

    @contextmanager
    def read(self):
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
            self._readers_gauge.set(self._readers)
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                self._readers_gauge.set(self._readers)
                if not self._readers:
                    self._cond.notify_all()

    @contextmanager
    def write(self):
        with self._cond:
            self._writers_waiting += 1
            self._queue_gauge.set(self._writers_waiting)
            while self._writer or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._queue_gauge.set(self._writers_waiting)
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class ServingSession:
    """A query/delta session over one artifact, with an LRU answer cache.

    Safe for concurrent use from many threads (see the module
    docstring): reads share, writes serialize.  ``repair_path`` pins
    which twin absorbs deltas (``auto`` → ``incremental``);
    ``radius_limit`` bounds the incremental worklist before it falls
    back to recompute.  Cache statistics live in :attr:`metrics`, are
    read through :meth:`cache_stats` and are deliberately kept *out* of
    responses — they are observability, not answers.
    """

    def __init__(
        self,
        artifact: ColoringArtifact,
        *,
        cache_size: int = 1024,
        repair_path: str = "auto",
        radius_limit: Optional[int] = None,
        rebase_policy="auto",
        reports_cap: int = DEFAULT_REPORTS_CAP,
    ) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        if reports_cap < 0:
            raise ValueError("reports_cap must be non-negative")
        self.artifact = artifact
        self.repair_path = resolve_repair_path(repair_path)
        self.radius_limit = radius_limit
        self.rebase_policy = resolve_rebase_policy(rebase_policy)
        self._cache: "OrderedDict[Tuple[int, QueryRequest], str]" = OrderedDict()
        self._cache_size = cache_size
        self._cache_mutex = threading.Lock()
        #: The one store of this session's observability totals and
        #: levels; every instrument is bound once, here.
        self.metrics = MetricsRegistry()
        self._lock = _ReadWriteLock(self.metrics)
        #: Called inside the writer critical section after every
        #: successful delta, with the about-to-be-returned response.
        #: The daemon sets this to its journal append so an absorbed
        #: delta is durable *before* its acknowledgment escapes the
        #: lock — journal order equals epoch order equals ack order.
        self.write_hook: Optional[Callable[[Dict[str, object]], None]] = None
        counter = self.metrics.counter
        # Cache traffic counts under ``_cache_mutex``, delta and rebase
        # totals under the writer lock.
        self._hits = counter("serving.cache.hits")
        self._misses = counter("serving.cache.misses")
        self._evictions = counter("serving.cache.evictions")
        self._deltas_applied = counter("serving.cache.deltas_applied")
        self._touched = counter("serving.cache.touched")
        self._recolored = counter("serving.cache.recolored")
        self._fallbacks = counter("serving.cache.fallbacks")
        self._rebases = counter("serving.cache.rebases")
        self._overlay_folded = counter("serving.cache.overlay_folded")
        self._radius = self.metrics.histogram("serving.repair_radius", buckets=RADIUS_BUCKETS)
        #: Ring buffer of the most recent repair reports (observability
        #: only; lossless totals live in :attr:`metrics`).
        self.reports: Deque[Dict[str, object]] = deque(maxlen=reports_cap)

    # ----------------------------------------------------------------- cache
    def cache_stats(self) -> Dict[str, int]:
        """Observability counters: cache traffic, delta totals, rebases.

        A read-only view: each total is the value of its
        ``serving.cache.<key>`` counter in :attr:`metrics`.  The delta
        totals (``deltas_applied`` / ``touched`` / ``recolored`` /
        ``fallbacks``) are lossless even after the :attr:`reports` ring
        buffer has aged individual reports out — the bounded-memory
        observability contract for long-lived sessions.
        """
        with self._cache_mutex:
            stats = {
                "hits": self._hits.value,
                "misses": self._misses.value,
                "evictions": self._evictions.value,
                "size": len(self._cache),
                "capacity": self._cache_size,
            }
        stats.update(
            {
                "deltas_applied": self._deltas_applied.value,
                "touched": self._touched.value,
                "recolored": self._recolored.value,
                "fallbacks": self._fallbacks.value,
                "rebases": self._rebases.value,
                "overlay_folded": self._overlay_folded.value,
                "reports_retained": len(self.reports),
                "reports_cap": self.reports.maxlen,
            }
        )
        return stats

    def _cache_get(self, key: Tuple[int, QueryRequest]) -> Optional[str]:
        with self._cache_mutex:
            line = self._cache.get(key)
            if line is None:
                self._misses.inc()
                return None
            self._hits.inc()
            self._cache.move_to_end(key)
            return line

    def _cache_put(self, key: Tuple[int, QueryRequest], line: str) -> None:
        with self._cache_mutex:
            self._cache[key] = line
            self._cache.move_to_end(key)
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
                self._evictions.inc()

    # ------------------------------------------------------------------ locks
    def exclusive(self):
        """The writer critical section, for callers outside :meth:`query`
        (the daemon's final compacting save; tests)."""
        return self._lock.write()

    # --------------------------------------------------------------- serving
    def query(self, request: Mapping) -> Dict[str, object]:
        """Answer one request; never raises on a bad request.

        Every returned dict is the caller's to keep: the cache holds
        only immutable wire lines, so a hit is a fresh decode and a
        miss returns the dict it just built.  Reads run under the
        shared lock (many threads answer concurrently at a stable
        epoch); writes run under the exclusive lock, in total order.
        """
        response, line = self._dispatch(request)
        return json.loads(line) if response is None else response

    def query_line(self, request: Mapping) -> str:
        """Answer one request as its canonical wire line (the daemon's path).

        A cache hit returns the cached line unchanged; anything else is
        encoded exactly once.
        """
        response, line = self._dispatch(request)
        return protocol.encode_response(response) if line is None else line

    def serve_batch(self, requests: Sequence[Mapping]) -> List[Dict[str, object]]:
        """Answer a batch in order; deltas take effect for later requests."""
        return [self.query(request) for request in requests]

    # ------------------------------------------------------------- internals
    def _dispatch(self, request: Mapping) -> Tuple[Optional[Dict[str, object]], Optional[str]]:
        """``(response, line)``: a hit has only the cached line, a cached
        miss both, and every other answer only the dict."""
        try:
            parsed = protocol.parse_request(request)
        except ProtocolError as exc:
            return exc.response.to_wire(), None
        op = parsed.op
        try:
            if isinstance(parsed, (QueryRequest, StatsRequest)):
                with self._lock.read():
                    with tracer().span("serving.query", op=op) as span:
                        if isinstance(parsed, StatsRequest):
                            # Never cached: the epoch-preserving ``rebase``
                            # changes overlay_size / base_edges.  A bare
                            # session answer even when a scope was asked
                            # for (the daemon intercepts scope="daemon").
                            return {"ok": True, "op": op, **self.artifact.stats()}, None
                        key = result_cache_key(self.artifact.epoch, parsed)
                        line = self._cache_get(key)
                        if line is not None:
                            span.set(cache_hit=True)
                            return None, line
                        span.set(cache_hit=False)
                        response = self._answer_lookup(parsed)
                        if not self._cache_size:
                            return response, None
                        line = protocol.encode_response(response)
                        self._cache_put(key, line)
                        return response, line
            if isinstance(parsed, DeltaRequest):
                with self._lock.write():
                    with tracer().span("serving.delta", op=op) as span:
                        response = self._apply_delta(parsed, span)
                        if self.write_hook is not None:
                            # Durability before acknowledgment, inside the
                            # writer critical section: journal order is
                            # epoch order is ack order.
                            self.write_hook(response)
                        return response, None
            if isinstance(parsed, RebaseRequest):
                with self._lock.write():
                    with tracer().span("serving.rebase"):
                        self._overlay_folded.inc(self.artifact.rebase())
                        self._rebases.inc()
                        # Epoch-preserving and policy-independent: the
                        # response must match on twins with different
                        # rebase histories, so folded counts stay in
                        # ``cache_stats``.
                        return {"ok": True, "op": op, "epoch": self.artifact.epoch}, None
            assert isinstance(parsed, ShutdownRequest)
            return protocol.error_response(
                "wire-only",
                "op 'shutdown' only exists on a daemon socket",
                op=op,
            ), None
        except RepairError as exc:
            return {"ok": False, "op": op, "error": str(exc), "code": exc.code}, None
        except (ValueError, KeyError, TypeError) as exc:
            return {
                "ok": False,
                "op": op,
                "error": str(exc) or repr(exc),
                "code": "repair-failed",
            }, None

    def _answer_lookup(self, parsed: QueryRequest) -> Dict[str, object]:
        artifact = self.artifact
        op = parsed.op
        if op == "color":
            return {"ok": True, "op": op, "color": artifact.color(parsed.u, parsed.v)}
        if op == "node_palette":
            return {
                "ok": True,
                "op": op,
                "colors": artifact.node_colors(parsed.v),
                "degree": artifact.graph.degree(parsed.v),
            }
        return {
            "ok": True,
            "op": op,
            "slots": [[c, w] for c, w in artifact.schedule(parsed.v)],
        }

    def _apply_delta(self, parsed: DeltaRequest, span=None) -> Dict[str, object]:
        artifact = self.artifact
        op, u, v = parsed.op, parsed.u, parsed.v
        kwargs = {"path": self.repair_path, "radius_limit": self.radius_limit}
        if op == "insert":
            report = artifact.insert(u, v, **kwargs)
        elif op == "delete":
            report = artifact.delete(u, v, **kwargs)
        else:  # set_list
            report = artifact.set_list(u, v, parsed.colors, **kwargs)
        self._deltas_applied.inc()
        self._touched.inc(report.touched)
        self._recolored.inc(report.recolored)
        self._fallbacks.inc(int(report.fallback))
        self._radius.observe(report.touched)
        self.reports.append(report.as_dict())
        if span is not None:
            span.set(
                touched=report.touched,
                recolored=report.recolored,
                fallback=bool(report.fallback),
                path=report.path,
            )
        folded = artifact.maybe_rebase(self.rebase_policy)
        if folded:
            self._rebases.inc()
            self._overlay_folded.inc(folded)
        # ``epoch`` is path-independent (one bump per absorbed delta);
        # the cost fields live only in ``session.reports`` and the
        # ``cache_stats`` totals.
        return {"ok": True, "op": op, "epoch": report.epoch}
