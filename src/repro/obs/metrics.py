"""Metrics registry: counters, gauges, and bounded-bucket histograms.

A :class:`MetricsRegistry` is a bag of named instruments.  Instruments
are pure python, allocation-light, and always on — the planes increment
them at coarse points (per cell, per request, per journal append), so
the cost is an integer add, far below the perf_smoke budgets.  The
process-wide default registry is reachable via :func:`get_registry`;
:func:`snapshot` renders every instrument into one JSON-safe dict.

An instrument is the *store* of its fact, never a copy of one kept
elsewhere: the runtime, journal and store count straight into the
default registry, and each ``ServingSession`` owns a registry of its
own (bound once, per instance) that its ``cache_stats()`` only reads.
The daemon's ``{"op": "stats", "scope": "daemon"}`` answer renders the
default snapshot plus its session's.

Like spans, metrics are *timing-like* under the twin discipline: they
never feed cell seeds, cache keys, responses, or ``diff_rows``.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple


class Counter:
    """A monotonically increasing total."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> Dict[str, object]:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A point-in-time level (queue depth, cache size, epoch)."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> Dict[str, object]:
        return {"kind": self.kind, "value": self.value}


#: Default histogram buckets: latency-shaped, seconds.
DEFAULT_BUCKETS = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
)


class Histogram:
    """A bounded-bucket histogram (fixed upper bounds + overflow).

    ``buckets`` are the inclusive upper bounds; one extra overflow
    bucket catches everything beyond the last bound, so memory is fixed
    regardless of how many observations arrive.  Quantiles are estimated
    from bucket bounds (good enough for p50/p95 reporting; exact
    per-span latencies live in the trace, not here).
    """

    kind = "histogram"
    __slots__ = ("name", "bounds", "counts", "count", "total", "max")

    def __init__(self, name: str, buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(sorted(buckets or DEFAULT_BUCKETS))
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile from bucket upper bounds."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= target:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max
        return self.max

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "count": self.count,
            "total": round(self.total, 6),
            "max": round(self.max, 6),
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "buckets": {
                **{str(bound): n for bound, n in zip(self.bounds, self.counts)},
                "+inf": self.counts[-1],
            },
        }


class MetricsRegistry:
    """A named bag of instruments with get-or-create accessors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, factory):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            return instrument

    def counter(self, name: str) -> Counter:
        instrument = self._get(name, lambda: Counter(name))
        if not isinstance(instrument, Counter):
            raise TypeError(f"{name} already registered as {instrument.kind}")
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._get(name, lambda: Gauge(name))
        if not isinstance(instrument, Gauge):
            raise TypeError(f"{name} already registered as {instrument.kind}")
        return instrument

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        instrument = self._get(name, lambda: Histogram(name, buckets))
        if not isinstance(instrument, Histogram):
            raise TypeError(f"{name} already registered as {instrument.kind}")
        return instrument

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Every instrument rendered to a JSON-safe dict, sorted by name."""
        with self._lock:
            items = sorted(self._instruments.items())
        return {name: instrument.snapshot() for name, instrument in items}

    def reset(self) -> None:
        with self._lock:
            self._instruments.clear()


_default = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default


def snapshot() -> Dict[str, Dict[str, object]]:
    """Snapshot of the process-wide default registry."""
    return _default.snapshot()
