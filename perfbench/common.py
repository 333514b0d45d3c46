"""Shared pieces of the benchmark: metric names, percentiles, the run report."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: End-to-end metrics, reported with tracing off by every workload, all at
#: reference host speed (see :class:`Calibrator`).  ``op_ms`` is the mean
#: latency of the workload's unit of work over the whole timed phase (one
#: ``color_edges_local`` solve; one delta round trip on serve-churn, one
#: read round trip on serve-hot-reads); ``work_per_s`` is edges colored per
#: second of solve time (solver) or completed requests per second of the
#: timed phase (serving); ``setup_s`` is the median of several set-ups.
END_TO_END = [("op_ms", "ms"), ("work_per_s", "1/s"), ("setup_s", "s")]

#: Seconds a run spends on one core before :class:`CoreRotator` moves it on.
ROTATE_PERIOD = 0.5

#: Iterations of the calibration kernel, its wall time at reference speed
#: (the fast state of a 2-vCPU Xeon VM) and the share of measured time the
#: calibration ticks add.
TICK_LOOPS = 100_000
TICK_REF_S = 0.007
TICK_SHARE = 0.1

#: Layers timed by the traced run: (layer, extra work counters).
TIMED_LAYERS: List[Tuple[str, Tuple[str, ...]]] = [
    ("core.list_edge_coloring.partial_bipartite", ()),
    ("core.list_edge_coloring.relaxed_solver", ()),
    ("core.defective_edge_coloring", ()),
    ("core.balanced_orientation", ()),
    ("coloring.greedy.leaf", ("edges",)),
    ("coloring.greedy.schedule", ()),
    ("coloring.linial", ()),
    ("coloring.defective_vertex", ()),
    ("verification.verify", ()),
    ("serving.protocol.parse", ()),
    ("serving.session.cache_key", ()),
    ("serving.session.cache_copy", ()),
    ("serving.artifact.read", ()),
    ("serving.repair.incremental", ("touched", "recolored")),
    ("serving.repair.fallback", ()),
    ("serving.artifact.rebase", ()),
    ("serving.journal.append", ("records", "bytes")),
    ("serving.protocol.encode", ()),
    ("serving.daemon.handle", ()),
    ("serving.daemon.socket", ()),
]

#: Round labels of ``details["round_breakdown"]`` reported per solve.
ROUND_LABELS = ["linial", "degree-reduction-split-level", "greedy-edge-classes"]

#: Per-layer metrics of the traced run, in report order.
PER_LAYER: List[Tuple[str, str]] = (
    [
        metric
        for layer, counters in TIMED_LAYERS
        for metric in [(f"{layer}.self_s", "s"), (f"{layer}.calls", "count")]
        + [(f"{layer}.{counter}", "count") for counter in counters]
    ]
    + [(f"rounds.{label}", "count") for label in ROUND_LABELS]
    + [
        ("rounds.total", "count"),
        ("serving.cache.hits", "count"),
        ("serving.cache.lookups", "count"),
        ("serving.cache.hit_ratio", "ratio"),
        ("serving.repair.deltas", "count"),
        ("serving.repair.fallback_share", "ratio"),
        ("graphs.generate_s", "s"),
        ("serving.artifact.build_s", "s"),
        ("serving.artifact.load_s", "s"),
        ("serving.daemon.spawn_s", "s"),
        ("trace.ops", "count"),
        ("trace.uncovered_share", "ratio"),
        ("trace.server_uncovered_share", "ratio"),
        ("trace.overhead.op_ms", "ratio"),
        ("trace.overhead.work_per_s", "ratio"),
    ]
)


def percentile(sorted_values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-quantile and the number of samples beyond it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def digest(items) -> str:
    """Short sha256 over the canonical JSON of each item."""
    hasher = hashlib.sha256()
    for item in items:
        hasher.update(json.dumps(item, sort_keys=True).encode("utf-8"))
    return hasher.hexdigest()[:16]


def setup_seeds(seed: int, repeats: int) -> List[int]:
    """Seeds of the set-up repetitions: ``repeats - 1`` fixed draws from the
    workload's input family, then the run's own ``seed`` (whose input is kept).

    Graph generation retries a seed-dependent number of times; with fixed
    family draws every run times nearly the same set-up work.
    """
    return [100_000 + r for r in range(repeats - 1)] + [seed]


def time_setups(fn: Callable[[int], object], seeds: Sequence[int]
                ) -> Tuple[float, object, List[float], "Calibrator"]:
    """Time ``fn(seed)`` for each seed after a collection, calibrating
    between set-ups; the median wall at reference speed, the last result,
    the raw walls and the calibrator."""
    walls = []
    result = None
    calibrator = Calibrator()
    for seed in seeds:
        result = None
        gc.collect()
        start = time.perf_counter()
        result = fn(seed)
        walls.append(time.perf_counter() - start)
        calibrator.after(walls[-1])
    return statistics.median(walls) * calibrator.scale(), result, walls, calibrator


class CoreRotator:
    """Every :data:`ROTATE_PERIOD` seconds, moves the run and the processes
    it follows (its daemon) together onto the next allowed core.

    On a shared 2-vCPU x86 VM each core's speed switches between states
    about 1.6x apart (a fixed pure-Python loop takes ~25 ms or ~40 ms) that
    last from a fraction of a second to several seconds, independently on
    each core.  A run held on one core follows that core's share of slow
    seconds; a run that takes turns on every core averages them.  Moved
    threads always share one core, so a lockstep round trip to the daemon
    stays a context switch instead of a cross-core wake-up.
    """

    def __init__(self, period: float = ROTATE_PERIOD) -> None:
        self.period = period
        self.cores = sorted(os.sched_getaffinity(0))
        self.pids = {os.getpid()}
        self._turn = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def follow(self, pid: int) -> None:
        self.pids.add(pid)

    def _move(self, cores) -> None:
        for pid in list(self.pids):
            try:
                tids = os.listdir(f"/proc/{pid}/task")
            except OSError:  # the process has ended
                continue
            for tid in tids:
                with contextlib.suppress(OSError):  # the thread has ended
                    os.sched_setaffinity(int(tid), cores)

    def _rotate(self) -> None:
        while not self._stop.wait(self.period):
            self._turn += 1
            self._move({self.cores[self._turn % len(self.cores)]})

    def __enter__(self) -> "CoreRotator":
        global _ROTATOR
        _ROTATOR = self
        self._move({self.cores[0]})
        if len(self.cores) > 1:
            self._thread = threading.Thread(target=self._rotate, name="core-rotator", daemon=True)
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        global _ROTATOR
        _ROTATOR = None
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        self.pids = {os.getpid()}
        self._move(set(self.cores))


_ROTATOR: Optional[CoreRotator] = None


def _tick_kernel() -> int:
    total = 0
    for i in range(TICK_LOOPS):
        total += i * i % 7
    return total


class Calibrator:
    """Host speed during a phase, from a fixed kernel run between its units of work.

    The host drifts as a whole over minutes (a run can be 1.3x slower than
    one a few minutes earlier), and no statistic inside one run removes
    that.  So each measured time is also charged to the host: after every
    unit of work, :meth:`after` runs ticks of :func:`_tick_kernel`, which
    does not touch the program under test, until they take
    :data:`TICK_SHARE` of the work's time.  :meth:`scale` turns the phase's
    times into times at reference speed (one tick in :data:`TICK_REF_S`).
    On a 2-vCPU Xeon VM this cut the spread of the mean solve time of 20 s
    windows over six minutes from 0.10 to 0.04 (IQR over median).
    """

    def __init__(self) -> None:
        self.work_s = 0.0
        self.ticks: List[float] = []

    def after(self, work_s: float) -> None:
        self.work_s += work_s
        ticked = sum(self.ticks)
        while not self.ticks or ticked < TICK_SHARE * self.work_s:
            start = time.perf_counter()
            _tick_kernel()
            self.ticks.append(time.perf_counter() - start)
            ticked += self.ticks[-1]

    def scale(self) -> float:
        """Factor from this phase's wall times to times at reference speed."""
        if not self.ticks:  # no work was timed
            self.after(0.0)
        return TICK_REF_S / statistics.mean(self.ticks)

    def show(self, report: "Report", label: str) -> None:
        report.show(f"{label}.host_slowdown", 1.0 / self.scale(), "x", len(self.ticks),
                    "measured tick / reference tick")


def follow(pid: int) -> None:
    """Let the active :class:`CoreRotator`, if any, move process ``pid`` too."""
    if _ROTATOR is not None:
        _ROTATOR.follow(pid)


class Report:
    """What one run measured and checked; prints the human lines and the result."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: End-to-end metric values, by name (units in :data:`END_TO_END`).
        self.metrics: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.lines: List[str] = []
        #: Digest of the generated inputs (graph or request stream).
        self.inputs = ""

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def note(self, text: str) -> None:
        self.lines.append(text)

    def show(self, name: str, value: float, unit: str, samples: Optional[int] = None,
             note: str = "") -> None:
        """One printed metric line: name, value, unit, sample count."""
        count = "" if samples is None else f"n={samples}"
        self.lines.append(f"  {name:<26} {value:>14.4f} {unit:<6} {count:<9} {note}".rstrip())

    def timing(self, name: str, seconds: Sequence[float], tail: bool = True) -> Dict[str, float]:
        """Print p50 (and p99 where at least 10 samples lie beyond it), in ms."""
        values = sorted(s * 1e3 for s in seconds)
        out: Dict[str, float] = {}
        if not values:
            self.note(f"  {name}: no samples")
            return out
        out["p50"] = statistics.median(values)
        self.show(f"{name}_p50", out["p50"], "ms", len(values))
        if tail:
            p99, beyond = percentile(values, 0.99)
            if beyond >= 10:
                out["p99"] = p99
                self.show(f"{name}_p99", p99, "ms", len(values), f"{beyond} beyond")
            else:
                self.note(f"  {name}_p99 not reported: {beyond} samples beyond it (< 10)")
        return out

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0
