"""Wall-clock smoke budgets for the hot paths (``pytest -m perf_smoke``).

Fast assertions wired into the tier-1 run: the E1 Δ=16 sweep cell, one
E1_large cell (n = 192, Δ = 32 — the vectorized orientation engine's
territory), and the E8 Linial-on-simulator cell at n = 10⁴ must
finish well inside generous caps.  Each cap is
~15–20× the current measured time (≈25 ms for E1, ≈110 ms for E1_large,
≈80 ms for E8 on the reference machine), so it only trips on a genuine
complexity regression (e.g. reintroducing a per-level rescan, a
per-edge python proposal loop, or a per-message dict on the simulator's
message plane), not on machine noise.  ``benchmarks/run_benchmarks.py``
holds the full before/after trajectory.
"""

from __future__ import annotations

import time

import pytest

from repro import api
from repro.coloring.linial import LinialNodeAlgorithm
from repro.distributed.model import Model
from repro.distributed.network import SynchronousNetwork
from repro.graphs import generators
from repro.graphs.identifiers import id_space_size
from repro.verification.checkers import is_proper_vertex_coloring

#: Generous wall-clock cap for one E1 Δ=16 run (seconds).
E1_DELTA16_BUDGET_SECONDS = 2.0

#: Generous wall-clock cap for one E1_large n=192 Δ=32 run (seconds).
E1_LARGE_BUDGET_SECONDS = 3.0

#: Generous wall-clock cap for one E8 Linial run at n = 10⁴ on the
#: simulator (seconds; graph generation stays outside the timer, like
#: in the benchmarks).
E8_N10K_BUDGET_SECONDS = 2.0


@pytest.mark.perf_smoke
def test_e1_delta16_within_budget():
    graph = generators.random_regular_graph(96, 16, seed=16)
    start = time.perf_counter()
    outcome = api.color_edges_local(graph)
    wall = time.perf_counter() - start
    assert outcome.is_proper
    assert outcome.num_colors <= 2 * 16 - 1
    assert wall < E1_DELTA16_BUDGET_SECONDS, (
        f"E1 Δ=16 took {wall:.3f}s, over the {E1_DELTA16_BUDGET_SECONDS}s smoke budget"
    )


@pytest.mark.perf_smoke
def test_e1_large_within_budget():
    graph = generators.random_regular_graph(192, 32, seed=32)
    start = time.perf_counter()
    outcome = api.color_edges_local(graph)
    wall = time.perf_counter() - start
    assert outcome.is_proper
    assert outcome.num_colors <= 2 * 32 - 1
    assert wall < E1_LARGE_BUDGET_SECONDS, (
        f"E1_large n=192 took {wall:.3f}s, over the {E1_LARGE_BUDGET_SECONDS}s smoke budget"
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
    not all of them.
    """
    from repro.obs import trace as obs_trace

    obs_trace.reset()
    trc = obs_trace.tracer()
    if trc.enabled:  # REPRO_TRACE=1 in the environment: budget n/a
        pytest.skip("tracing enabled via environment")
    spans = 100_000
    batch = 5_000
    walls = []
    for _repeat in range(100):
        start = time.perf_counter()
        for index in range(batch):
            with trc.span("runtime.cell.run", spec="e1_sweep", cell_index=index) as span:
                span.set(runner="local_coloring")
        walls.append(time.perf_counter() - start)
    wall = min(walls) * (spans // batch)
    budget = 0.05 * E1_DELTA16_BUDGET_SECONDS
    assert wall < budget, (
        f"100k disabled spans took {wall:.3f}s, over the {budget}s "
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
    start = time.perf_counter()
    colors, metrics = network.run(LinialNodeAlgorithm())
    wall = time.perf_counter() - start
    assert is_proper_vertex_coloring(graph, colors)
    assert metrics.congest_violations == 0
    assert wall < E8_N10K_BUDGET_SECONDS, (
        f"E8 n=10⁴ took {wall:.3f}s, over the {E8_N10K_BUDGET_SECONDS}s smoke budget"
    )
