"""The online serving loop: sessions, batched queries, keyed result cache.

A :class:`ServingSession` fronts a :class:`~repro.serving.artifact.ColoringArtifact`
with the request/response surface of the ``repro-serving/v1`` wire
protocol — :mod:`repro.serving.protocol` is the normative spec; this
module implements it for in-process callers (the CLI, the
``serving_churn`` runner) and for the daemon that shares the session
over a socket.

**Concurrency (one critical section).**  The session is safe for many
threads: every request holds the session's one mutex (a
``threading.Lock``) from parse to answer, so requests run one at a
time.  Reads answer at the current epoch; every write response carries
the unique epoch it produced, and any interleaving of clients is
bit-identical to the serial schedule that replays the writes in epoch
order (pinned by the linearizability tests).  Reads hold the GIL, so a
readers/writer split would overlap nothing a single mutex does not:
what overlaps is the socket I/O, which runs outside the session.
:attr:`ServingSession.write_hook`, when set, is invoked inside the
critical section after each successful delta — the daemon hangs its
journal-before-ack persistence there, so journal order equals epoch
order equals ack order.  :meth:`ServingSession.exclusive` hands the
same mutex to callers that need a consistent session outside
:meth:`~ServingSession.query` (the daemon's accounting, its stats
snapshot and its final fold).

Lookups (``color`` / ``node_palette`` / ``schedule``) are answered
through a keyed LRU cache, touched only under the session mutex.  The
key is ``(artifact.epoch, parsed)`` (:func:`result_cache_key`), where
``parsed`` is the frozen, hashable
:class:`~repro.serving.protocol.QueryRequest` — envelope fields and
unknown extra fields never split an entry, and folding the epoch in
means a delta never serves a stale answer: old-epoch entries simply
stop being addressable and age out of the LRU.  The cached value is
the answer's **immutable wire line**
(:func:`~repro.serving.protocol.encode_response`, encoded once, on the
miss): the daemon writes a hit as-is (:meth:`ServingSession.dispatch_held`
hands it over) and in-process callers get a fresh decode of it
(:meth:`ServingSession.query`), so no caller can ever reach, let alone
corrupt, what a later identical request sees.  ``stats`` is never
cached: it is O(1), and the epoch-preserving ``rebase`` changes its
``overlay_size`` / ``base_edges``.  Delta ops are never cached (they
are mutations), and their repair reports carry path-dependent cost
fields, so a delta response carries only its epoch and the costs go to
the :meth:`~ServingSession.cache_stats` totals (see the
``serving_churn`` runner, which digests responses across
``repair_path`` values).

Long-lived sessions stay bounded: the session keeps no per-delta
record, only lossless totals — cache ``hits`` / ``misses`` /
``evictions``, ``deltas_applied``, ``touched``, ``recolored``,
``fallbacks``, ``rebases``, ``overlay_folded`` — as counters in the
session's own :class:`~repro.obs.MetricsRegistry`
(:attr:`ServingSession.metrics`, instrument ``serving.cache.<total>``),
the one store :meth:`cache_stats` reads.  The same registry holds the
``serving.repair_radius`` histogram and, under a daemon, its request
and connection counts.

The ``rebase`` op (and the automatic
:class:`~repro.serving.artifact.RebasePolicy`) folds the delta overlay
into the base, in O(overlay); it is epoch-preserving, so its response carries
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
from collections import OrderedDict
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

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

#: Repair-radius histogram buckets (touched-edge counts, not seconds);
#: the top ones resolve drained fallbacks past the default radius limit.
RADIUS_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


def result_cache_key(epoch: int, request: QueryRequest) -> Tuple[int, QueryRequest]:
    """Cache key for a parsed lookup at an artifact epoch.

    The typed request is frozen and hashable, so two requests share a
    key exactly when they ask the same question of the same artifact
    version — whatever envelope or unknown fields rode along.
    """
    return (epoch, request)


class ServingSession:
    """A query/delta session over one artifact, with an LRU answer cache.

    Safe for concurrent use from many threads (see the module
    docstring): every request runs inside the session's one mutex.
    ``repair_path`` pins which twin absorbs deltas (``auto`` →
    ``incremental``); ``radius_limit`` is the repair radius past which
    a delta counts as a fallback and is finished within a
    recompute-sized budget.  Cache statistics live in :attr:`metrics`,
    are read through :meth:`cache_stats` and are deliberately kept
    *out* of responses — they are observability, not answers.
    """

    def __init__(
        self,
        artifact: ColoringArtifact,
        *,
        cache_size: int = 1024,
        repair_path: str = "auto",
        radius_limit: Optional[int] = None,
        rebase_policy="auto",
    ) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        self.artifact = artifact
        self.repair_path = resolve_repair_path(repair_path)
        self.radius_limit = radius_limit
        self.rebase_policy = resolve_rebase_policy(rebase_policy)
        self._cache: "OrderedDict[Tuple[int, QueryRequest], str]" = OrderedDict()
        self._cache_size = cache_size
        #: The one critical section: every request, and every caller of
        #: :meth:`exclusive`, holds it.  Not reentrant.
        self._mutex = threading.Lock()
        #: The one store of this session's observability totals; every
        #: instrument is bound once, here, and changes under the mutex.
        self.metrics = MetricsRegistry()
        #: Called inside the critical section after every successful
        #: delta, with the about-to-be-returned response.  The daemon
        #: sets this to its journal append so an absorbed delta is
        #: durable *before* its acknowledgment escapes the mutex —
        #: journal order equals epoch order equals ack order.
        self.write_hook: Optional[Callable[[Dict[str, object]], None]] = None
        counter = self.metrics.counter
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

    # ------------------------------------------------------------ the mutex
    def exclusive(self) -> threading.Lock:
        """The session's critical section, for callers outside
        :meth:`query` (the daemon's accounting, stats snapshot and final
        compacting save).  A caller holding it uses the ``*_held``
        methods, never the locking ones."""
        return self._mutex

    # ----------------------------------------------------------------- cache
    def cache_stats(self) -> Dict[str, int]:
        """Observability counters: cache traffic, delta totals, rebases.

        A read-only view: each total is the value of its
        ``serving.cache.<key>`` counter in :attr:`metrics`, read under
        the session mutex.  The totals are lossless however long the
        session lives.
        """
        with self._mutex:
            return self.cache_stats_held()

    def cache_stats_held(self) -> Dict[str, int]:
        """:meth:`cache_stats` for a caller that holds :meth:`exclusive`."""
        return {
            "hits": self._hits.value,
            "misses": self._misses.value,
            "evictions": self._evictions.value,
            "size": len(self._cache),
            "capacity": self._cache_size,
            "deltas_applied": self._deltas_applied.value,
            "touched": self._touched.value,
            "recolored": self._recolored.value,
            "fallbacks": self._fallbacks.value,
            "rebases": self._rebases.value,
            "overlay_folded": self._overlay_folded.value,
        }

    def _cache_get(self, key: Tuple[int, QueryRequest]) -> Optional[str]:
        line = self._cache.get(key)
        if line is None:
            self._misses.inc()
            return None
        self._hits.inc()
        self._cache.move_to_end(key)
        return line

    def _cache_put(self, key: Tuple[int, QueryRequest], line: str) -> None:
        self._cache[key] = line
        self._cache.move_to_end(key)
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
            self._evictions.inc()

    # --------------------------------------------------------------- serving
    def query(self, request: Mapping) -> Dict[str, object]:
        """Answer one request; never raises on a bad request.

        Every returned dict is the caller's to keep: the cache holds
        only immutable wire lines, so a hit is a fresh decode and a
        miss returns the dict it just built.
        """
        with self._mutex:
            response, line = self.dispatch_held(request)
        return json.loads(line) if response is None else response

    def serve_batch(self, requests: Sequence[Mapping]) -> List[Dict[str, object]]:
        """Answer a batch in order; deltas take effect for later requests."""
        return [self.query(request) for request in requests]

    def dispatch_held(
        self, request: Mapping
    ) -> Tuple[Optional[Dict[str, object]], Optional[str]]:
        """Answer one request for a caller that holds :meth:`exclusive`.

        Returns ``(response, line)``: a hit has only the cached line, a
        cached miss both, and every other answer only the dict.
        """
        try:
            parsed = protocol.parse_request(request)
        except ProtocolError as exc:
            return exc.response.to_wire(), None
        op = parsed.op
        try:
            if isinstance(parsed, (QueryRequest, StatsRequest)):
                with tracer().span("serving.query", op=op) as span:
                    if isinstance(parsed, StatsRequest):
                        # Never cached: the epoch-preserving ``rebase``
                        # changes overlay_size / base_edges.  A bare
                        # session answer even when a scope was asked for
                        # (the daemon intercepts scope="daemon").
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
                with tracer().span("serving.delta", op=op) as span:
                    response = self._apply_delta(parsed, span)
                    if self.write_hook is not None:
                        # Durability before acknowledgment, inside the
                        # critical section: journal order is epoch order
                        # is ack order.
                        self.write_hook(response)
                    return response, None
            if isinstance(parsed, RebaseRequest):
                with tracer().span("serving.rebase"):
                    self._overlay_folded.inc(self.artifact.rebase())
                    self._rebases.inc()
                    # Epoch-preserving and policy-independent: the
                    # response must match on twins with different rebase
                    # histories, so folded counts stay in ``cache_stats``.
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
        # the cost fields live only in the ``cache_stats`` totals.
        return {"ok": True, "op": op, "epoch": report.epoch}
