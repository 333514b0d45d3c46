"""Wall-clock smoke budgets for the hot paths (``pytest -m perf_smoke``).

Fast assertions wired into the tier-1 run: the E1 Δ=16 sweep cell, one
E1_large cell (n = 192, Δ = 32 — the vectorized orientation engine's
territory), and the E8 Linial-on-simulator cell at n = 10⁴ must
finish well inside generous caps, and so must a batch of serving
deltas through the incremental repair engine, the serving plane's
offline build and save, and the generation of its graph.  Each solver cap is
~15–20× the current measured time (≈25 ms for E1, ≈110 ms for E1_large,
≈80 ms for E8 on the reference machine), so it only trips on a genuine
complexity regression (e.g. reintroducing a per-level rescan, a
per-edge python proposal loop, or a per-message dict on the simulator's
message plane), not on machine noise.  ``benchmarks/run_benchmarks.py``
holds the full before/after trajectory.

Every budget is in seconds at reference speed.  A measured wall is
scaled to reference speed by the host-speed method of
``perfbench/common.py`` before the comparison: ticks of a fixed kernel
that does not touch the code under test run next to the timed work, and
the wall is multiplied by the reference tick over the measured tick.  So
a host that runs 1.5× slow for a while reads the same as a fast one,
while the code's own cost still counts in full.
"""

from __future__ import annotations

import gc
import json
import random
import time
from typing import List

import pytest

from repro import api
from repro.coloring.linial import LinialNodeAlgorithm
from repro.distributed.model import Model
from repro.distributed.network import SynchronousNetwork
from repro.graphs import generators
from repro.graphs.identifiers import id_space_size
from repro.serving import ColoringArtifact, build_artifact
from repro.verification.checkers import is_proper_vertex_coloring

#: Generous wall-clock cap for one E1 Δ=16 run (seconds).
E1_DELTA16_BUDGET_SECONDS = 2.0

#: Generous wall-clock cap for one E1_large n=192 Δ=32 run (seconds).
E1_LARGE_BUDGET_SECONDS = 3.0

#: Generous wall-clock cap for one E8 Linial run at n = 10⁴ on the
#: simulator (seconds; graph generation stays outside the timer, like
#: in the benchmarks).
E8_N10K_BUDGET_SECONDS = 2.0

#: Wall-clock cap for one batch of :data:`REPAIR_BATCH` deltas (the
#: E12 delete/insert/set_list rotation, fallbacks included) absorbed by
#: an n = 2000, Δ = 8 artifact in-process (seconds).  A batch measures
#: ≈0.02–0.03 s with the color rows, ≈0.04 s with the pair-keyed dict
#: they replaced; a per-delta O(m) recompute would cost ≈2 s.
REPAIR_BATCH_BUDGET_SECONDS = 0.075

#: Deltas per timed batch of the repair-path budget.
REPAIR_BATCH = 300

#: Wall-clock cap for the serving plane's offline phase at serve-churn's
#: size: ``build_artifact`` plus a full ``save`` of a fresh
#: ``random_regular_graph(20000, 8)`` (seconds).  Generation stays outside
#: the timer, but the garbage it leaves is collected inside it, as in the
#: benchmark's set-up.  Measured ≈0.13–0.16 s with color rows filled in
#: place and the save written from them as text; the per-edge tuples and
#: lists they replaced (and an uncleared networkx graph) read 0.23–0.27 s.
OFFLINE_BUDGET_SECONDS = 0.22

#: Wall-clock cap for ``random_regular_graph(20000, 8)``, serve-churn's
#: graph, on a seed whose pairing succeeds at the first attempt (seconds).
#: Measured 0.14–0.16 s with the pairing loop run on plain sets and lists;
#: building and copying a networkx graph read 0.32–0.36 s.
GENERATE_BUDGET_SECONDS = 0.25

#: Seeds of ``random_regular_graph(20000, 8)`` that pair in one attempt
#: (seed 2 restarts once, so its wall would be about double).
GENERATE_SEEDS = (0, 1, 3)

#: The host-speed probe, as ``perfbench/common.py`` defines it: a tick is
#: one run of :func:`_tick_kernel` (``TICK_LOOPS`` loops), which takes
#: ``TICK_REF_S`` seconds at reference speed.
TICK_LOOPS = 100_000
TICK_REF_S = 0.007


def _tick_kernel() -> int:
    total = 0
    for i in range(TICK_LOOPS):
        total += i * i % 7
    return total


def _tick() -> float:
    """The wall time of one tick on this host right now."""
    start = time.perf_counter()
    _tick_kernel()
    return time.perf_counter() - start


def _at_reference_speed(wall: float, ticks: List[float]) -> float:
    """``wall`` scaled by reference tick / measured tick.

    The fastest tick is the host speed: a tick preempted by another
    process reads slow, never fast.
    """
    return wall * TICK_REF_S / min(ticks)


def _timed(run):
    """``run()``'s result and its wall at reference speed (ticks before and after)."""
    ticks = [_tick(), _tick()]
    start = time.perf_counter()
    result = run()
    wall = time.perf_counter() - start
    ticks += [_tick(), _tick()]
    return result, _at_reference_speed(wall, ticks)


@pytest.mark.perf_smoke
def test_e1_delta16_within_budget():
    graph = generators.random_regular_graph(96, 16, seed=16)
    outcome, wall = _timed(lambda: api.color_edges_local(graph))
    assert outcome.is_proper
    assert outcome.num_colors <= 2 * 16 - 1
    assert wall < E1_DELTA16_BUDGET_SECONDS, (
        f"E1 Δ=16 took {wall:.3f}s at reference speed, over the "
        f"{E1_DELTA16_BUDGET_SECONDS}s smoke budget"
    )


@pytest.mark.perf_smoke
def test_e1_large_within_budget():
    graph = generators.random_regular_graph(192, 32, seed=32)
    outcome, wall = _timed(lambda: api.color_edges_local(graph))
    assert outcome.is_proper
    assert outcome.num_colors <= 2 * 32 - 1
    assert wall < E1_LARGE_BUDGET_SECONDS, (
        f"E1_large n=192 took {wall:.3f}s at reference speed, over the "
        f"{E1_LARGE_BUDGET_SECONDS}s smoke budget"
    )


@pytest.mark.perf_smoke
def test_disabled_tracing_overhead_within_budget():
    """Disabled instrumentation costs <5% of an E1 cell's budget.

    An E1 cell crosses on the order of dozens of tracer touch points
    (cell lifecycle, phase split, store append); 100k disabled spans —
    three orders of magnitude more than a real cell ever triggers —
    must still fit inside 5% of the E1 smoke budget, so the per-cell
    overhead with tracing off is noise.  The spans run in short batches
    and the fastest batch, scaled to 100k spans, is the cost of the loop
    itself: a transient slow period of the host spoils a few batches,
    not all of them.  A tick runs after every batch, and the fastest
    tick scales that cost to reference speed.
    """
    from repro.obs import trace as obs_trace

    obs_trace.reset()
    trc = obs_trace.tracer()
    if trc.enabled:  # REPRO_TRACE=1 in the environment: budget n/a
        pytest.skip("tracing enabled via environment")
    spans = 100_000
    batch = 5_000
    walls = []
    ticks = []
    for _repeat in range(40):
        start = time.perf_counter()
        for index in range(batch):
            with trc.span("runtime.cell.run", spec="e1_sweep", cell_index=index) as span:
                span.set(runner="local_coloring")
        walls.append(time.perf_counter() - start)
        ticks.append(_tick())
    wall = _at_reference_speed(min(walls) * (spans // batch), ticks)
    budget = 0.05 * E1_DELTA16_BUDGET_SECONDS
    assert wall < budget, (
        f"100k disabled spans took {wall:.3f}s at reference speed, over the {budget}s "
        "(5% of E1) overhead budget"
    )


@pytest.mark.perf_smoke
def test_e8_linial_n10k_batched_within_budget():
    n = 10_000
    graph = generators.graph_with_scrambled_ids(
        generators.random_regular_graph(n, 4, seed=n), seed=n, id_space_factor=8
    )
    network = SynchronousNetwork(
        graph, model=Model.CONGEST, global_knowledge={"id_space": id_space_size(graph)}
    )
    (colors, metrics), wall = _timed(lambda: network.run(LinialNodeAlgorithm()))
    assert is_proper_vertex_coloring(graph, colors)
    assert metrics.congest_violations == 0
    assert wall < E8_N10K_BUDGET_SECONDS, (
        f"E8 n=10⁴ took {wall:.3f}s at reference speed, over the "
        f"{E8_N10K_BUDGET_SECONDS}s smoke budget"
    )


def _churn_stream(artifact, count: int, seed: int):
    """``count`` deltas in delete/insert/set_list rotation, drawn against
    (and absorbed by) ``artifact`` so each one is valid in order."""
    rng = random.Random(seed)
    n = artifact.num_nodes
    present = sorted(artifact.colors)
    stream = []
    for i in range(count):
        kind = ("delete", "insert", "set_list")[i % 3]
        if kind == "delete":
            args = present.pop(rng.randrange(len(present)))
        elif kind == "insert":
            while True:
                u, v = sorted((rng.randrange(n), rng.randrange(n)))
                if u != v and not artifact.graph.has_edge(u, v):
                    break
            args = (u, v)
            present.append(args)
        else:
            args = present[rng.randrange(len(present))] + (sorted(rng.sample(range(32), 20)),)
        getattr(artifact, kind)(*args)
        stream.append((kind, args))
    return stream


@pytest.mark.perf_smoke
def test_repair_churn_within_budget(tmp_path):
    """The incremental repair path: the fastest of a few batches of the
    same delta stream, each on a fresh copy of one artifact, with a tick
    after every batch scaling it to reference speed."""
    graph = generators.random_regular_graph(2000, 8, seed=2000)
    build_artifact(graph).save(str(tmp_path / "artifact.json"))
    payload = json.loads((tmp_path / "artifact.json").read_text())
    stream = _churn_stream(ColoringArtifact.from_json(payload), REPAIR_BATCH, seed=8)
    walls = []
    ticks = []
    for _repeat in range(7):
        artifact = ColoringArtifact.from_json(payload)
        start = time.perf_counter()
        for kind, args in stream:
            getattr(artifact, kind)(*args)
        walls.append(time.perf_counter() - start)
        ticks.append(_tick())
    assert artifact.verify()
    wall = _at_reference_speed(min(walls), ticks)
    assert wall < REPAIR_BATCH_BUDGET_SECONDS, (
        f"{REPAIR_BATCH} repair deltas took {wall:.4f}s at reference speed, over the "
        f"{REPAIR_BATCH_BUDGET_SECONDS}s smoke budget"
    )


@pytest.mark.perf_smoke
def test_offline_build_and_save_within_budget(tmp_path):
    """The offline phase: the fastest of three build-and-save runs, each
    on a graph generated just before it (outside the timer), with a tick
    after every run scaling it to reference speed."""
    path = str(tmp_path / "artifact.json")
    walls = []
    ticks = [_tick()]
    for seed in range(3):
        graph = None
        gc.collect()
        graph = generators.random_regular_graph(20000, 8, seed=seed)
        start = time.perf_counter()
        build_artifact(graph).save(path)
        walls.append(time.perf_counter() - start)
        ticks.append(_tick())
    assert ColoringArtifact.load(path).num_edges == graph.num_edges
    wall = _at_reference_speed(min(walls), ticks)
    assert wall < OFFLINE_BUDGET_SECONDS, (
        f"build_artifact + save at n=20000, Δ=8 took {wall:.3f}s at reference speed, "
        f"over the {OFFLINE_BUDGET_SECONDS}s smoke budget"
    )


@pytest.mark.perf_smoke
def test_random_regular_graph_within_budget():
    """Generation at serve-churn's size: the fastest of three one-attempt
    seeds, each after a collection, with a tick after every run scaling
    it to reference speed."""
    walls = []
    ticks = [_tick()]
    for seed in GENERATE_SEEDS:
        graph = None
        gc.collect()
        start = time.perf_counter()
        graph = generators.random_regular_graph(20000, 8, seed=seed)
        walls.append(time.perf_counter() - start)
        ticks.append(_tick())
    assert graph.num_edges == 80000
    wall = _at_reference_speed(min(walls), ticks)
    assert wall < GENERATE_BUDGET_SECONDS, (
        f"random_regular_graph(20000, 8) took {wall:.3f}s at reference speed, over the "
        f"{GENERATE_BUDGET_SECONDS}s smoke budget"
    )
