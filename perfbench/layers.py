"""Outside-in span recording for the benchmark's traced runs.

A :class:`Recorder` replaces public functions with timing wrappers *where
their caller binds them* (the module or class whose namespace the call
site reads), so no ``src/`` code changes.  Every wrapper call records one
span ``(request id, layer, start, duration, self time)``; self time is
the span's duration minus the time its child spans cover on the same
thread.  Spans stay in memory and are written out when the run ends.

:data:`SOLVER_LAYERS` and :data:`SERVING_LAYERS` name every patch site:
``(module, class or None, attribute, layer name, counter hook)``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
import types
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[Optional[str], str, float, float, float]


def _count_edges(rec: "Recorder", result, _args) -> None:
    rec.add("coloring.greedy.leaf", "edges", len(result))


def _count_repair(rec: "Recorder", report, _args) -> None:
    rec.add("serving.repair.incremental", "touched", report.touched)
    rec.add("serving.repair.incremental", "recolored", report.recolored)


def _count_journal(rec: "Recorder", _result, args) -> None:
    journal, records = args[0], args[1]
    size = os.path.getsize(journal.path)
    previous = rec.journal_sizes.get(journal.path, 0)
    # A compaction or rotation starts the file over.
    grown = size - previous if size >= previous else size
    rec.journal_sizes[journal.path] = size
    rec.add("serving.journal.append", "records", len(records))
    rec.add("serving.journal.append", "bytes", grown)


def _note_request_id(rec: "Recorder", payload, _args) -> None:
    trace = payload.get("trace")
    rec.set_request_id(trace.get("trace_id") if isinstance(trace, dict) else None)


def _end_request(rec: "Recorder", _result, _args) -> None:
    rec.set_request_id(None)


# (module, class, attribute, layer, counter hook).  ``repro.core.
# list_edge_coloring`` is shadowed by the re-exported function of the same
# name on the package, hence module *names* looked up in ``sys.modules``.
SOLVER_LAYERS = [
    ("repro.core.list_edge_coloring", None, "partially_color_bipartite",
     "core.list_edge_coloring.partial_bipartite", None),
    ("repro.core.list_edge_coloring", None, "solve_relaxed_instance",
     "core.list_edge_coloring.relaxed_solver", None),
    ("repro.core.list_edge_coloring", None, "generalized_defective_two_edge_coloring",
     "core.defective_edge_coloring", None),
    ("repro.core.defective_edge_coloring", None, "compute_balanced_orientation",
     "core.balanced_orientation", None),
    ("repro.core.list_edge_coloring", None, "greedy_edge_coloring_by_classes",
     "coloring.greedy.leaf", _count_edges),
    ("repro.core.list_edge_coloring", None, "proper_edge_schedule",
     "coloring.greedy.schedule", None),
    ("repro.core.list_edge_coloring", None, "linial_vertex_coloring", "coloring.linial", None),
    ("repro.core.list_edge_coloring", None, "defective_split_coloring",
     "coloring.defective_vertex", None),
    ("repro.api", None, "is_proper_edge_coloring", "verification.verify", None),
]

# The daemon reads ``protocol.decode_request_line`` first on every line,
# so its hook pins the request id carried in the ``trace`` envelope for
# every later span on that thread; the encode hook (the last server step
# of a request) clears it.
SERVING_LAYERS = [
    ("repro.serving.protocol", None, "decode_request_line", "serving.protocol.parse",
     _note_request_id),
    ("repro.serving.protocol", None, "parse_request", "serving.protocol.parse", None),
    ("repro.serving.protocol", None, "encode_response", "serving.protocol.encode",
     _end_request),
    ("repro.serving.daemon", "ColoringDaemon", "handle_line", "serving.daemon.handle", None),
    ("repro.serving.session", None, "result_cache_key", "serving.session.cache_key", None),
    ("repro.serving.artifact", "ColoringArtifact", "color", "serving.artifact.read", None),
    ("repro.serving.artifact", "ColoringArtifact", "node_colors", "serving.artifact.read", None),
    ("repro.serving.artifact", "ColoringArtifact", "schedule", "serving.artifact.read", None),
    ("repro.serving.artifact", None, "apply_insert", "serving.repair.incremental",
     _count_repair),
    ("repro.serving.artifact", None, "apply_delete", "serving.repair.incremental",
     _count_repair),
    ("repro.serving.artifact", None, "apply_set_list", "serving.repair.incremental",
     _count_repair),
    ("repro.serving.repair", None, "full_recompute", "serving.repair.fallback", None),
    ("repro.serving.artifact", "ColoringArtifact", "rebase", "serving.artifact.rebase", None),
    ("repro.serving.artifact", "ColoringArtifact", "load", "serving.artifact.load", None),
    ("repro.serving.journal", "DeltaJournal", "append", "serving.journal.append",
     _count_journal),
]


def flatten(summary: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """``<layer>.self_s``, ``<layer>.calls`` and ``<layer>.<counter>`` metric values."""
    return {
        f"{layer}.{key}": value
        for layer, entry in summary.items()
        for key, value in entry.items()
        if key != "total_s"
    }


class Recorder:
    """Collects spans from patched call sites; :meth:`uninstall` restores them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, Dict[str, int]] = {}
        self.journal_sizes: Dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def set_request_id(self, request_id: Optional[str]) -> None:
        self._local.request_id = request_id

    def add(self, layer: str, counter: str, amount: int) -> None:
        with self._lock:
            layer_counters = self.counters.setdefault(layer, {})
            layer_counters[counter] = layer_counters.get(counter, 0) + amount

    def wrap(self, layer: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        local = self._local
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                spans.append(
                    (getattr(local, "request_id", None), layer, start, duration,
                     duration - child)
                )
            if after is not None:
                after(self, result, args)
            return result

        return wrapper

    # ------------------------------------------------------------- patching
    def install(self, sites) -> None:
        for module_name, class_name, attr, layer, after in sites:
            owner = sys.modules[module_name]
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(original, classmethod):
                patched = classmethod(self.wrap(layer, original.__func__, after))
            else:
                patched = self.wrap(layer, original, after)
            setattr(owner, attr, patched)
            self._patched.append((owner, attr, original))
        if any(site[0] == "repro.serving.session" for site in sites):
            # ``copy.deepcopy`` as the session calls it: on cache put and hit.
            session = sys.modules["repro.serving.session"]
            original = session.copy
            session.copy = types.SimpleNamespace(
                deepcopy=self.wrap("serving.session.cache_copy", original.deepcopy)
            )
            self._patched.append((session, "copy", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------- results
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``self_s``, ``calls``, ``total_s`` and its counters."""
        layers: Dict[str, Dict[str, float]] = {}
        for _rid, layer, _start, duration, self_time in self.spans:
            entry = layers.setdefault(layer, {"self_s": 0.0, "calls": 0, "total_s": 0.0})
            entry["self_s"] += self_time
            entry["calls"] += 1
            entry["total_s"] += duration
        for layer, counters in self.counters.items():
            layers.setdefault(layer, {"self_s": 0.0, "calls": 0, "total_s": 0.0}).update(counters)
        return layers

    def server_time_by_request(self) -> Dict[str, float]:
        """Summed ``handle`` + ``encode`` duration per request id."""
        served: Dict[str, float] = {}
        for rid, layer, _start, duration, _self in self.spans:
            if rid is not None and layer in ("serving.daemon.handle", "serving.protocol.encode"):
                served[rid] = served.get(rid, 0.0) + duration
        return served

    def dump(self, path: str) -> None:
        """Write the spans (JSON lines) next to ``path`` and the summary to it."""
        with open(path + ".spans.jsonl", "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"layers": self.summary(), "served": self.server_time_by_request()}, handle
            )
