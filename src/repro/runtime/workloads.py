"""Cell runners: the executable side of the scenario registry.

Every runner is a module-level function (picklable across worker
processes) registered under a string name in :data:`RUNNERS`; a
:class:`~repro.runtime.spec.ScenarioSpec` references its runner by that
name, so specs remain pure data.  A runner receives a
:class:`CellContext` (params, derived seed, resolved knobs, repeat
count) and returns a JSON-serializable result dict.  Runners *verify*
their outputs (a perf number for a wrong coloring is worthless) and
raise ``AssertionError`` on violations; an optional ``"timing"``
sub-dict (e.g. best-of-N wall seconds with graph generation untimed) is
split off into the row's timing field by the executor and excluded from
all determinism comparisons and cache keys.

Determinism: runners must be pure functions of ``(params, seed, knobs)``
— no wall-clock, no process state, no unseeded randomness — so that the
executor's bit-identical-results guarantee holds (see
:mod:`repro.runtime.spec`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Tuple

from repro import api
from repro.obs import PhaseTimer
from repro.runtime.spec import Knobs

RUNNERS: Dict[str, Callable[["CellContext"], Dict[str, object]]] = {}


@dataclass(frozen=True)
class CellContext:
    """Everything a runner may depend on for one cell execution."""

    params: Mapping[str, object]
    seed: int
    knobs: Knobs = field(default_factory=Knobs)
    repeats: int = 1


def runner(name: str):
    """Decorator registering a cell runner under ``name``."""

    def decorate(fn):
        if name in RUNNERS:
            raise ValueError(f"runner {name!r} is already registered")
        RUNNERS[name] = fn
        return fn

    return decorate


def get_runner(name: str):
    """Resolve a runner by name with a helpful error."""
    try:
        return RUNNERS[name]
    except KeyError:
        known = ", ".join(sorted(RUNNERS)) or "(none)"
        raise KeyError(f"unknown runner {name!r}; registered runners: {known}") from None


def _timed(ctx: CellContext, run: Callable[[], object]) -> Tuple[object, float]:
    """Run ``run`` ``ctx.repeats`` times; return (first result, best wall).

    The workloads are deterministic, so the repeats agree; the first
    result is kept and the minimum wall time reported (machine-noise
    robustness, mirroring the pre-migration perf harness).
    """
    best = None
    first = None
    for attempt in range(max(1, ctx.repeats)):
        start = time.perf_counter()
        result = run()
        wall = time.perf_counter() - start
        if best is None or wall < best:
            best = wall
        if attempt == 0:
            first = result
    return first, best


def _phases(runner_name: str) -> PhaseTimer:
    """A setup/solve/verify phase split for one cell execution.

    The split lands in the row's ``timing["phases"]`` sub-dict — timing
    is already excluded from every diff and cache key, so phase walls
    vary freely between runs — and each phase additionally emits a
    ``runtime.phase.<name>`` span when tracing is enabled.
    """
    return PhaseTimer("runtime.phase", runner=runner_name)


# ------------------------------------------------------------------ E1: LOCAL
@runner("local_coloring")
def run_local_coloring(ctx: CellContext) -> Dict[str, object]:
    """E1 — Theorem 1.1 / D.4: (2Δ−1)-edge coloring in the LOCAL model."""
    from repro.core.parameters import theorem_d4_round_bound
    from repro.core.slack import uniform_instance
    from repro.graphs import generators
    from repro.verification.checkers import list_coloring_violations

    phases = _phases("local_coloring")
    n = int(ctx.params["n"])
    delta = int(ctx.params["delta"])
    with phases.phase("setup"):
        graph = generators.random_regular_graph(n, delta, seed=int(ctx.params["graph_seed"]))
    with phases.phase("solve"):
        outcome, wall = _timed(
            ctx, lambda: api.color_edges_local(graph, scan_path=ctx.knobs.scan_path)
        )
    with phases.phase("verify"):
        bound = max(1, 2 * delta - 1)
        assert outcome.is_proper, f"improper coloring on n={n} delta={delta}"
        assert outcome.num_colors <= bound, f"color bound violated on n={n} delta={delta}"
        instance = uniform_instance(graph)
        violations = list_coloring_violations(graph, outcome.colors, instance.lists)
        assert not violations, f"list violations on n={n} delta={delta}"
    return {
        "n": n,
        "delta": delta,
        "colors": outcome.num_colors,
        "bound": bound,
        "rounds": outcome.rounds,
        "paper_round_bound": round(theorem_d4_round_bound(bound, delta, n)),
        "verified": True,
        "timing": {"wall_seconds": round(wall, 4), "phases": phases.as_timing()},
    }


@runner("list_instance")
def run_list_instance(ctx: CellContext) -> Dict[str, object]:
    """E1 — the (degree+1)-list instance; verifies list conformance."""
    from repro.core.slack import ListEdgeColoringInstance
    from repro.graphs import generators
    from repro.verification.checkers import list_coloring_violations

    phases = _phases("list_instance")
    n = int(ctx.params["n"])
    delta = int(ctx.params["delta"])
    with phases.phase("setup"):
        graph = generators.random_regular_graph(n, delta, seed=int(ctx.params["graph_seed"]))
        lists, space = generators.list_edge_coloring_lists(
            graph, slack=float(ctx.params.get("slack", 1.0)), seed=int(ctx.params["list_seed"])
        )
        instance = ListEdgeColoringInstance(graph, {e: lists[e] for e in graph.edges()}, space)
    with phases.phase("solve"):
        outcome, wall = _timed(
            ctx,
            lambda: api.color_edges_local(graph, instance=instance, scan_path=ctx.knobs.scan_path),
        )
    with phases.phase("verify"):
        assert outcome.is_proper, f"improper list coloring on n={n} delta={delta}"
        violations = list_coloring_violations(graph, outcome.colors, instance.lists)
        assert not violations, f"list violations on n={n} delta={delta}"
    return {
        "n": n,
        "delta": delta,
        "colors": outcome.num_colors,
        "color_space": space,
        "rounds": outcome.rounds,
        "list_violations": 0,
        "verified": True,
        "timing": {"wall_seconds": round(wall, 4), "phases": phases.as_timing()},
    }


# --------------------------------------------------------------- E2/E6: CONGEST
@runner("congest_coloring")
def run_congest_coloring(ctx: CellContext) -> Dict[str, object]:
    """E2 / E6 — Theorem 1.2 / 6.3: (8+ε)Δ-edge coloring in CONGEST."""
    from repro.core.parameters import theorem63_round_bound
    from repro.graphs import generators

    phases = _phases("congest_coloring")
    n = int(ctx.params["n"])
    delta = int(ctx.params["delta"])
    epsilon = float(ctx.params.get("epsilon", 0.5))
    with phases.phase("setup"):
        graph = generators.random_regular_graph(n, delta, seed=int(ctx.params["graph_seed"]))
    with phases.phase("solve"):
        outcome, wall = _timed(
            ctx,
            lambda: api.color_edges_congest(graph, epsilon=epsilon, scan_path=ctx.knobs.scan_path),
        )
    with phases.phase("verify"):
        assert outcome.is_proper, f"improper congest coloring on n={n} delta={delta}"
        palette = outcome.details["palette_size"]
        assert palette <= outcome.bound, f"palette bound violated on n={n} delta={delta}"
    return {
        "n": n,
        "delta": delta,
        "epsilon": epsilon,
        "colors": outcome.num_colors,
        "palette": palette,
        "bound": round(outcome.bound, 1),
        "rounds": outcome.rounds,
        "paper_round_bound": round(theorem63_round_bound(epsilon, delta, n)),
        "verified": True,
        "timing": {"wall_seconds": round(wall, 4), "phases": phases.as_timing()},
    }


# ------------------------------------------------------------------ E3: Lemma 6.1
@runner("bipartite_coloring")
def run_bipartite_coloring(ctx: CellContext) -> Dict[str, object]:
    """E3 — Lemma 6.1: (2+ε)Δ coloring of 2-colored bipartite graphs."""
    from repro.core.parameters import lemma61_round_bound
    from repro.graphs import generators

    phases = _phases("bipartite_coloring")
    side = int(ctx.params["side"])
    delta = int(ctx.params["delta"])
    epsilon = float(ctx.params.get("epsilon", 0.5))
    with phases.phase("setup"):
        graph, bipartition = generators.regular_bipartite_graph(
            side, delta, seed=int(ctx.params["graph_seed"])
        )
    with phases.phase("solve"):
        outcome, wall = _timed(
            ctx,
            lambda: api.color_edges_bipartite(
                graph, bipartition, epsilon=epsilon, scan_path=ctx.knobs.scan_path
            ),
        )
    with phases.phase("verify"):
        assert outcome.is_proper, f"improper bipartite coloring at delta={delta}"
        assert outcome.num_colors <= 4 * delta, f"color blowup at delta={delta}"
        assert outcome.num_colors <= 2 * outcome.bound, f"colors over 2x bound at delta={delta}"
    return {
        "side": side,
        "delta": delta,
        "epsilon": epsilon,
        "colors": outcome.num_colors,
        "palette": outcome.details["palette_size"],
        "bound": round(outcome.bound, 1),
        "part_count": outcome.details["part_count"],
        "rounds": outcome.rounds,
        "paper_round_bound": round(lemma61_round_bound(epsilon, delta)),
        "verified": True,
        "timing": {"wall_seconds": round(wall, 4), "phases": phases.as_timing()},
    }


# ------------------------------------------------------------------ E4: Theorem 4.3
def _layered_token_game(layers: int, width: int, k: int, delta: int):
    from repro.core.token_dropping import TokenDroppingGame, layered_dag, uniform_alpha

    graph = layered_dag(layers, width, connect=3)
    tokens = [0] * graph.num_nodes
    for i in range(width):
        tokens[(layers - 1) * width + i] = k
        tokens[(layers - 2) * width + i] = k // 2
    return TokenDroppingGame(
        graph=graph,
        k=k,
        initial_tokens=tokens,
        alpha=uniform_alpha(graph.num_nodes, delta),
        delta=delta,
    )


def _cyclic_token_game(n: int, k: int, delta: int):
    from repro.core.token_dropping import TokenDroppingGame, uniform_alpha
    from repro.graphs.core import DirectedGraph

    arcs = []
    for v in range(n):
        arcs.append((v, (v + 1) % n))
        arcs.append((v, (v + 7) % n))
        arcs.append(((v + 3) % n, v))
    graph = DirectedGraph(n, arcs)
    tokens = [k if v % 3 == 0 else 0 for v in range(n)]
    return TokenDroppingGame(
        graph=graph, k=k, initial_tokens=tokens, alpha=uniform_alpha(n, delta), delta=delta
    )


@runner("token_dropping")
def run_token_dropping_cell(ctx: CellContext) -> Dict[str, object]:
    """E4 — Theorem 4.3: the generalized token dropping game."""
    from repro.core.token_dropping import run_token_dropping

    variant = str(ctx.params.get("variant", "layered"))
    k = int(ctx.params["k"])
    delta = int(ctx.params["delta"])
    if variant == "layered":
        game = _layered_token_game(
            int(ctx.params["layers"]), int(ctx.params["width"]), k, delta
        )
    elif variant == "cyclic":
        game = _cyclic_token_game(int(ctx.params["n"]), k, delta)
    else:
        raise ValueError(f"unknown token dropping variant {variant!r}")
    result, wall = _timed(ctx, lambda: run_token_dropping(game))
    phase_bound = k // delta - 1
    assert result.max_tokens() <= k, f"token cap violated ({variant})"
    assert not result.slack_violations(), f"slack violations ({variant})"
    if variant == "layered":
        assert result.phases == phase_bound, "phase bound missed (layered)"
    return {
        "variant": variant,
        "k": k,
        "delta": delta,
        "nodes": game.graph.num_nodes,
        "phases": result.phases,
        "phase_bound": phase_bound,
        "max_tokens": result.max_tokens(),
        "moved_arcs": len(result.moved_arcs),
        "slack_violations": 0,
        "verified": True,
        "timing": {"wall_seconds": round(wall, 4)},
    }


# ------------------------------------------------------------------ E5: Section 5
@runner("defective_two_coloring")
def run_defective_two_coloring(ctx: CellContext) -> Dict[str, object]:
    """E5 — Corollary 5.7 / Theorem 5.6: generalized defective 2-edge coloring."""
    from repro.core import parameters
    from repro.core.defective_edge_coloring import (
        generalized_defective_two_edge_coloring,
        half_split_lambdas,
    )
    from repro.graphs import generators

    side = int(ctx.params["side"])
    delta = int(ctx.params["delta"])
    epsilon = float(ctx.params.get("epsilon", 0.5))
    variant = str(ctx.params.get("variant", "half"))
    graph, bipartition = generators.regular_bipartite_graph(
        side, delta, seed=int(ctx.params["graph_seed"])
    )
    bar_delta = graph.max_edge_degree
    if variant == "half":
        lambdas = half_split_lambdas(graph.edges())
    elif variant == "list_driven":
        lambdas = {e: (0.8 if e % 2 == 0 else 0.2) for e in graph.edges()}
    else:
        raise ValueError(f"unknown defective coloring variant {variant!r}")
    result, wall = _timed(
        ctx,
        lambda: generalized_defective_two_edge_coloring(
            graph, bipartition, lambdas, epsilon=epsilon, scan_path=ctx.knobs.scan_path
        ),
    )
    beta = parameters.beta_theoretical(epsilon, bar_delta)
    violations = result.violations(beta=2 * beta)
    assert not violations, f"Definition 5.1 violations ({variant}, epsilon={epsilon})"
    if variant == "half":
        assert result.max_defect() <= 0.85 * bar_delta, "defective split not useful"
    return {
        "variant": variant,
        "epsilon": epsilon,
        "edge_degree": bar_delta,
        "max_defect": result.max_defect(),
        "analytic_two_beta": round(2 * beta),
        "violations": 0,
        "orientation_phases": result.orientation.phases,
        "rounds": result.rounds,
        "verified": True,
        "timing": {"wall_seconds": round(wall, 4)},
    }


# ------------------------------------------------------------------ E6: comparison
@runner("round_scaling_suite")
def run_round_scaling_suite(ctx: CellContext) -> Dict[str, object]:
    """E6 — rounds as a function of Δ across the paper's algorithms and baselines."""
    from repro.baselines.greedy_by_classes import greedy_baseline_edge_coloring
    from repro.baselines.panconesi_rizzi import linear_in_delta_edge_coloring
    from repro.baselines.randomized import randomized_edge_coloring
    from repro.graphs import generators

    n = int(ctx.params["n"])
    delta = int(ctx.params["delta"])
    graph = generators.random_regular_graph(n, delta, seed=int(ctx.params["graph_seed"]))

    def run_all():
        local = api.color_edges_local(graph, scan_path=ctx.knobs.scan_path)
        congest = api.color_edges_congest(graph, epsilon=0.5, scan_path=ctx.knobs.scan_path)
        greedy = greedy_baseline_edge_coloring(graph)
        linear = linear_in_delta_edge_coloring(graph)
        rand = randomized_edge_coloring(graph, seed=int(ctx.params["rand_seed"]))
        return local, congest, greedy, linear, rand

    (local, congest, greedy, linear, rand), wall = _timed(ctx, run_all)
    assert local.is_proper and congest.is_proper, f"improper paper coloring at delta={delta}"
    return {
        "n": n,
        "delta": delta,
        "rounds": {
            "local-list-coloring": local.rounds,
            "congest-8eps": congest.rounds,
            "greedy-by-classes": greedy.rounds,
            "linear-in-delta": linear.rounds,
            "randomized": rand.rounds,
        },
        "verified": True,
        "timing": {"wall_seconds": round(wall, 4)},
    }


# ------------------------------------------------------------------ E7: log* n
@runner("logstar_growth")
def run_logstar_growth(ctx: CellContext) -> Dict[str, object]:
    """E7 — the O(log* n) additive term on scrambled-identifier cycles."""
    from repro.baselines.greedy_by_classes import greedy_baseline_edge_coloring
    from repro.coloring.linial import linial_vertex_coloring
    from repro.distributed.rounds import RoundTracker
    from repro.graphs import generators
    from repro.graphs.identifiers import log_star

    n = int(ctx.params["n"])
    factor = int(ctx.params.get("id_space_factor", 16))
    graph = generators.graph_with_scrambled_ids(
        generators.cycle_graph(n), seed=n, id_space_factor=factor
    )

    def run_all():
        tracker = RoundTracker()
        colors, num_colors = linial_vertex_coloring(graph, tracker=tracker)
        baseline = greedy_baseline_edge_coloring(graph)
        return tracker.total, colors, num_colors, baseline

    (linial_rounds, vertex_colors, linial_colors, baseline), wall = _timed(ctx, run_all)
    from repro.verification.checkers import is_proper_edge_coloring, is_proper_vertex_coloring

    assert is_proper_vertex_coloring(graph, vertex_colors), f"improper Linial coloring at n={n}"
    assert is_proper_edge_coloring(graph, baseline.colors), f"improper greedy coloring at n={n}"
    # Δ = 2 on a cycle: the Linial palette is O(Δ²) = O(1), whatever n is.
    assert linial_colors <= 64, f"Linial palette blowup at n={n}"
    return {
        "n": n,
        "id_space": factor * n,
        "log_star": log_star(factor * n),
        "linial_rounds": linial_rounds,
        "linial_colors": linial_colors,
        "greedy_rounds": baseline.rounds,
        "greedy_colors": baseline.num_colors,
        "verified": True,
        "timing": {"wall_seconds": round(wall, 4)},
    }


# ------------------------------------------------------------------ E8: CONGEST audit
@runner("linial_audit")
def run_linial_audit(ctx: CellContext) -> Dict[str, object]:
    """E8 — message-passing Linial audited end to end on the simulator."""
    from repro.graphs import generators

    phases = _phases("linial_audit")
    n = int(ctx.params["n"])
    degree = int(ctx.params.get("degree", 4))
    factor = int(ctx.params.get("id_space_factor", 8))
    with phases.phase("setup"):
        graph = generators.graph_with_scrambled_ids(
            generators.random_regular_graph(n, degree, seed=n), seed=n, id_space_factor=factor
        )
        network = api.build_linial_network(graph)
    with phases.phase("solve"):
        outcome, wall = _timed(
            ctx,
            lambda: api.run_linial_network(
                graph,
                send_plane=ctx.knobs.send_plane,
                receive_plane=ctx.knobs.receive_plane,
                network=network,
            ),
        )
    with phases.phase("verify"):
        assert outcome.congest_violations == 0, f"congest violations in Linial audit at n={n}"
        assert outcome.max_message_bits <= outcome.congest_budget_bits, (
            f"message over budget at n={n}"
        )
    return {
        "n": n,
        "budget_bits": outcome.congest_budget_bits,
        "max_message_bits": outcome.max_message_bits,
        "messages": outcome.messages,
        "rounds": outcome.rounds,
        "violations": 0,
        "verified": True,
        "timing": {"wall_seconds": round(wall, 4), "phases": phases.as_timing()},
    }


@runner("congest_value_audit")
def run_congest_value_audit(ctx: CellContext) -> Dict[str, object]:
    """E8 — value ranges of the Theorem 6.3 pipeline fit the bit budget."""
    from repro.core.congest_coloring import congest_edge_coloring
    from repro.distributed.messages import message_size_bits
    from repro.distributed.model import congest_bit_budget
    from repro.graphs import generators

    n = int(ctx.params["n"])
    delta = int(ctx.params["delta"])
    graph = generators.random_regular_graph(n, delta, seed=int(ctx.params["graph_seed"]))
    result, wall = _timed(
        ctx,
        lambda: congest_edge_coloring(
            graph, epsilon=float(ctx.params.get("epsilon", 0.5)), scan_path=ctx.knobs.scan_path
        ),
    )
    budget = congest_bit_budget(graph.num_nodes)
    values = {
        "largest_color": max(result.colors.values()),
        "largest_node_id": max(graph.node_ids),
        "largest_level_degree": max(result.level_degrees or [0]),
        "palette_size": result.palette_size,
    }
    audited = {
        name: {"value": int(value), "bits": message_size_bits(int(value))}
        for name, value in values.items()
    }
    assert all(entry["bits"] <= budget for entry in audited.values()), "value over budget"
    return {
        "n": n,
        "delta": delta,
        "budget_bits": budget,
        "values": audited,
        "verified": True,
        "timing": {"wall_seconds": round(wall, 4)},
    }


# ------------------------------------------------------------------ E9: Lemma D.2/D.3
@runner("relaxed_solver")
def run_relaxed_solver(ctx: CellContext) -> Dict[str, object]:
    """E9 — the Lemma D.2 relaxed-instance solver across slack values."""
    from repro.core.list_edge_coloring import solve_relaxed_instance
    from repro.core.slack import ListEdgeColoringInstance
    from repro.graphs import generators
    from repro.verification.checkers import is_proper_edge_coloring, list_coloring_violations

    side = int(ctx.params["side"])
    delta = int(ctx.params["delta"])
    slack = float(ctx.params["slack"])
    graph, bipartition = generators.regular_bipartite_graph(
        side, delta, seed=int(ctx.params["graph_seed"])
    )
    lists, space = generators.list_edge_coloring_lists(
        graph,
        slack=slack,
        color_space=int(ctx.params["color_space"]),
        seed=int(ctx.params["list_seed"]),
    )
    instance = ListEdgeColoringInstance(graph, {e: lists[e] for e in graph.edges()}, space)
    colors, wall = _timed(
        ctx,
        lambda: solve_relaxed_instance(
            graph, bipartition, instance.lists, scan_path=ctx.knobs.scan_path
        ),
    )
    violations = list_coloring_violations(graph, colors, instance.lists)
    assert len(colors) == graph.num_edges, f"uncolored edges at slack={slack}"
    assert is_proper_edge_coloring(graph, colors), f"improper at slack={slack}"
    assert not violations, f"list violations at slack={slack}"
    return {
        "slack": slack,
        "color_space": space,
        "edges": graph.num_edges,
        "colored": len(colors),
        "proper": True,
        "list_violations": 0,
        "min_slack_measured": round(instance.min_slack(), 2),
        "verified": True,
        "timing": {"wall_seconds": round(wall, 4)},
    }


@runner("degree_reduction")
def run_degree_reduction(ctx: CellContext) -> Dict[str, object]:
    """E9 — one Lemma D.3 pass reduces the uncolored degree by a constant factor."""
    from repro.core.list_edge_coloring import partially_color_bipartite
    from repro.core.slack import uniform_instance
    from repro.graphs import generators
    from repro.graphs.core import degrees_within
    from repro.verification.checkers import is_proper_edge_coloring

    side = int(ctx.params["side"])
    delta = int(ctx.params["delta"])
    graph, bipartition = generators.regular_bipartite_graph(
        side, delta, seed=int(ctx.params["graph_seed"])
    )
    instance = uniform_instance(graph)
    bar_delta = graph.max_edge_degree
    newly, wall = _timed(
        ctx,
        lambda: partially_color_bipartite(
            graph,
            bipartition,
            instance,
            list(graph.edges()),
            coloring={},
            scan_path=ctx.knobs.scan_path,
        ),
    )
    uncolored = [e for e in graph.edges() if e not in newly]
    worst = max(degrees_within(graph, uncolored)[1], default=0)
    assert is_proper_edge_coloring(graph, newly, edge_set=list(newly.keys()))
    assert worst <= 0.75 * bar_delta, "degree reduction too weak"
    return {
        "edges": graph.num_edges,
        "initial_edge_degree": bar_delta,
        "colored": len(newly),
        "uncolored": len(uncolored),
        "uncolored_edge_degree": worst,
        "reduction_factor": round(bar_delta / max(1, worst), 2),
        "proper": True,
        "verified": True,
        "timing": {"wall_seconds": round(wall, 4)},
    }


# ------------------------------------------------------------------ E10: ablations
@runner("ablation")
def run_ablation(ctx: CellContext) -> Dict[str, object]:
    """E10 — the design-choice ablations (δ, ν, recursion depth)."""
    from repro.graphs import generators

    ablation = str(ctx.params["ablation"])
    if ablation == "token_delta":
        from repro.core.token_dropping import (
            TokenDroppingGame,
            layered_dag,
            run_token_dropping,
            uniform_alpha,
        )

        delta = int(ctx.params["delta"])
        graph = layered_dag(8, 24, connect=3)
        k = 24
        tokens = [0] * graph.num_nodes
        for i in range(24):
            tokens[7 * 24 + i] = k
        game = TokenDroppingGame(
            graph=graph,
            k=k,
            initial_tokens=list(tokens),
            alpha=uniform_alpha(graph.num_nodes, delta),
            delta=delta,
        )
        result, wall = _timed(ctx, lambda: run_token_dropping(game))
        worst_gap = 0
        for a in result.active_arcs():
            arc = graph.arc(a)
            worst_gap = max(worst_gap, result.tokens[arc.tail] - result.tokens[arc.head])
        assert not result.slack_violations()
        return {
            "ablation": ablation,
            "delta": delta,
            "phases": result.phases,
            "rounds": result.rounds,
            "worst_active_gap": worst_gap,
            "slack_violations": 0,
            "verified": True,
            "timing": {"wall_seconds": round(wall, 4)},
        }
    if ablation == "orientation_nu":
        from repro.core.balanced_orientation import compute_balanced_orientation

        nu = float(ctx.params["nu"])
        graph, bipartition = generators.regular_bipartite_graph(48, 12, seed=41)
        eta = {e: 0.0 for e in graph.edges()}
        result, wall = _timed(
            ctx,
            lambda: compute_balanced_orientation(
                graph, bipartition, eta, epsilon=8 * nu, nu=nu, scan_path=ctx.knobs.scan_path
            ),
        )
        worst = 0
        for e in graph.edges():
            u, v = bipartition.orient_edge(graph, e)
            tail, head = result.orientation[e]
            gap = result.in_degrees[v] - result.in_degrees[u]
            worst = max(worst, gap if (tail, head) == (u, v) else -gap)
        # Invariants: every edge is oriented exactly once and the
        # in-degree tally accounts for every edge.
        assert len(result.orientation) == graph.num_edges, "incomplete orientation"
        assert sum(result.in_degrees) == graph.num_edges, "in-degree tally broken"
        return {
            "ablation": ablation,
            "nu": nu,
            "phases": result.phases,
            "rounds": result.rounds,
            "worst_imbalance": worst,
            "verified": True,
            "timing": {"wall_seconds": round(wall, 4)},
        }
    if ablation == "recursion_depth":
        from repro.core.bipartite_coloring import bipartite_edge_coloring

        levels = int(ctx.params["levels"])
        graph, bipartition = generators.regular_bipartite_graph(64, 16, seed=43)
        result, wall = _timed(
            ctx,
            lambda: bipartite_edge_coloring(
                graph, bipartition, epsilon=0.5, levels=levels, scan_path=ctx.knobs.scan_path
            ),
        )
        assert result.num_colors <= 5 * 16
        return {
            "ablation": ablation,
            "levels": levels,
            "parts": result.part_count,
            "max_leaf_degree": result.max_leaf_degree,
            "colors": result.num_colors,
            "palette": result.palette_size,
            "rounds": result.rounds,
            "verified": True,
            "timing": {"wall_seconds": round(wall, 4)},
        }
    raise ValueError(f"unknown ablation {ablation!r}")


# ------------------------------------------------------------------ E11: reductions
@runner("classic_reduction")
def run_classic_reduction(ctx: CellContext) -> Dict[str, object]:
    """E11 — a C-coloring solves maximal matching / MIS in C extra rounds."""
    from repro.distributed.rounds import RoundTracker
    from repro.graphs import generators
    from repro.verification.checkers import is_maximal_independent_set, is_maximal_matching

    pipeline = str(ctx.params["pipeline"])
    n = int(ctx.params["n"])
    delta = int(ctx.params["delta"])
    graph = generators.random_regular_graph(n, delta, seed=int(ctx.params["graph_seed"]))
    if pipeline == "matching":
        from repro.classic.matching import maximal_matching_from_edge_coloring
        from repro.core.list_edge_coloring import list_edge_coloring

        def run_all():
            coloring_tracker = RoundTracker()
            coloring = list_edge_coloring(
                graph, tracker=coloring_tracker, scan_path=ctx.knobs.scan_path
            )
            reduction_tracker = RoundTracker()
            matching = maximal_matching_from_edge_coloring(
                graph, coloring.colors, tracker=reduction_tracker
            )
            return coloring, coloring_tracker.total, matching, reduction_tracker.total

        (coloring, coloring_rounds, matching, reduction_rounds), wall = _timed(ctx, run_all)
        assert is_maximal_matching(graph, matching), f"non-maximal matching at delta={delta}"
        assert reduction_rounds <= coloring.num_colors, "reduction exceeded C rounds"
        return {
            "pipeline": pipeline,
            "n": n,
            "delta": delta,
            "coloring_colors": coloring.num_colors,
            "coloring_rounds": coloring_rounds,
            "reduction_rounds": reduction_rounds,
            "matching_size": len(matching),
            "maximal": True,
            "verified": True,
            "timing": {"wall_seconds": round(wall, 4)},
        }
    if pipeline == "mis":
        from repro.classic.mis import maximal_independent_set

        def run_mis():
            tracker = RoundTracker()
            independent, colors = maximal_independent_set(graph, tracker=tracker)
            return independent, colors, tracker.total

        (independent, colors, total_rounds), wall = _timed(ctx, run_mis)
        assert is_maximal_independent_set(graph, independent), f"non-maximal MIS at delta={delta}"
        assert len(set(colors)) <= delta + 1, "vertex palette blowup"
        return {
            "pipeline": pipeline,
            "n": n,
            "delta": delta,
            "vertex_colors": len(set(colors)),
            "total_rounds": total_rounds,
            "mis_size": len(independent),
            "maximal": True,
            "verified": True,
            "timing": {"wall_seconds": round(wall, 4)},
        }
    raise ValueError(f"unknown classic pipeline {pipeline!r}")


# ------------------------------------------------------------------ analysis suite
@runner("algorithm_suite")
def run_algorithm_suite_cell(ctx: CellContext) -> Dict[str, object]:
    """The :mod:`repro.analysis.experiments` comparison suite on one workload."""
    from repro.analysis.experiments import run_algorithm_suite
    from repro.graphs import generators

    n = int(ctx.params["n"])
    delta = int(ctx.params["delta"])
    graph = generators.random_regular_graph(n, delta, seed=int(ctx.params["graph_seed"]))
    records, wall = _timed(
        ctx,
        lambda: run_algorithm_suite(
            graph,
            experiment=str(ctx.params.get("experiment", "suite")),
            parameters={"n": n, "delta": delta},
            seed=int(ctx.params.get("rand_seed", ctx.seed % 2**31)),
            scan_path=ctx.knobs.scan_path,
        ),
    )
    assert all(record.proper for record in records), "improper suite coloring"
    return {
        "n": n,
        "delta": delta,
        "records": [record.as_dict() for record in records],
        "verified": True,
        "timing": {"wall_seconds": round(wall, 4)},
    }


# ------------------------------------------------------------------ fault plane
@runner("fault_sweep")
def run_fault_sweep(ctx: CellContext) -> Dict[str, object]:
    """Degradation of simulator Linial under the deterministic fault plane.

    Runs message-passing Linial coloring with a
    :class:`repro.distributed.faults.FaultPlan` built from the cell's
    ``faults`` sub-dict (seed defaulting to the derived cell seed) and
    measures how rounds and coloring validity degrade: the result
    reports the realized fault statistics and the fraction of
    monochromatic edges the faulted run left behind.  A cell with no
    faults must still produce a proper coloring — the sweep's own
    control row.
    """
    from repro.distributed.faults import FaultPlan
    from repro.graphs import generators

    n = int(ctx.params["n"])
    degree = int(ctx.params.get("degree", 4))
    factor = int(ctx.params.get("id_space_factor", 8))
    fault_params = dict(ctx.params.get("faults", {}))
    fault_params.setdefault("seed", ctx.seed % 2**31)
    plan = FaultPlan.from_params(fault_params)
    graph = generators.graph_with_scrambled_ids(
        generators.random_regular_graph(n, degree, seed=n), seed=n, id_space_factor=factor
    )
    network = api.build_linial_network(graph)
    outcome, wall = _timed(
        ctx,
        lambda: api.run_linial_network(
            graph,
            send_plane=ctx.knobs.send_plane,
            receive_plane=ctx.knobs.receive_plane,
            network=network,
            fault_plan=plan,
        ),
    )
    outputs = outcome.outputs
    conflicts = 0
    num_edges = 0
    for edge in graph.edges():
        num_edges += 1
        u, v = graph.edge_endpoints(edge)
        if outputs[u] is not None and outputs[u] == outputs[v]:
            conflicts += 1
    if not plan.active:
        assert conflicts == 0, f"improper fault-free Linial coloring at n={n}"
    return {
        "n": n,
        "degree": degree,
        "faults": plan.as_dict(),
        "fault_summary": outcome.fault_summary,
        "rounds": outcome.rounds,
        "messages": outcome.messages,
        "conflict_edges": conflicts,
        "conflict_fraction": round(conflicts / max(1, num_edges), 6),
        "proper": conflicts == 0,
        "verified": True,
        "timing": {"wall_seconds": round(wall, 4)},
    }


# ------------------------------------------------------------------ chaos probe
@runner("chaos_probe")
def run_chaos_probe(ctx: CellContext) -> Dict[str, object]:
    """Test-only probe that misbehaves on cue (executor-hardening tests).

    ``mode`` selects the misbehavior: ``"ok"`` (return immediately),
    ``"raise"`` (raise ``RuntimeError``), ``"sleep"`` (hold the worker
    for ``sleep_seconds``), ``"kill"`` (SIGKILL its own process — only
    meaningful under ``workers > 1``; in-process it kills the run).  The
    ``_once`` variants (``"raise_once"``, ``"sleep_once"``,
    ``"kill_once"``) misbehave only on the first attempt: they record
    the attempt as a marker file under the required ``marker_dir`` param
    and succeed on retries.  The result dict is independent of how many
    attempts it took, preserving the bit-identical-rows guarantee.
    """
    import os
    import signal

    params = ctx.params
    mode = str(params.get("mode", "ok"))
    base, _, once = mode.partition("_")
    act = True
    if once:
        marker_dir = params.get("marker_dir")
        if not marker_dir:
            raise ValueError(f"chaos_probe mode {mode!r} needs a marker_dir param")
        marker = os.path.join(
            str(marker_dir), f"{params.get('cell', base)}.attempted"
        )
        if os.path.exists(marker):
            act = False
        else:
            os.makedirs(str(marker_dir), exist_ok=True)
            with open(marker, "w", encoding="utf-8") as handle:
                handle.write("attempted\n")
    if act:
        if base == "raise":
            raise RuntimeError(f"chaos_probe raising on cue (mode={mode})")
        if base == "sleep":
            time.sleep(float(params.get("sleep_seconds", 60.0)))
        if base == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
    return {
        "mode": mode,
        "payload": params.get("payload", 0),
        "verified": True,
    }


# ------------------------------------------------------------- serving plane
def _churn_requests(graph, colors0, n, delta, churn, reads_per_delta, seed):
    """The deterministic churn stream shared by E12 and E13.

    One delta (delete/insert/set_list round-robin) followed by
    ``reads_per_delta`` lookups, over the evolving edge set (seeded from
    the offline coloring ``colors0``), all drawn from a single seeded
    RNG — a pure function of its arguments, which is what lets the
    daemon scenario drive the exact same stream at an in-process session
    and over a socket.  Returns ``(requests, num_deltas)``.
    """
    import random

    rng = random.Random(seed)
    present = sorted(colors0)
    present_set = set(present)
    requests = []
    num_deltas = max(4, int(graph.num_edges * churn))
    list_size = 2 * delta + 4
    color_space = max(4 * delta, list_size + 2)
    for i in range(num_deltas):
        kind = ("delete", "insert", "set_list")[i % 3]
        if kind == "delete" and present:
            idx = rng.randrange(len(present))
            u, v = present[idx]
            present[idx] = present[-1]
            present.pop()
            present_set.discard((u, v))
            requests.append({"op": "delete", "u": u, "v": v})
        elif kind == "insert":
            while True:
                u, v = rng.randrange(n), rng.randrange(n)
                key = (u, v) if u < v else (v, u)
                if u != v and key not in present_set:
                    break
            present.append(key)
            present_set.add(key)
            requests.append({"op": "insert", "u": key[0], "v": key[1]})
        else:
            u, v = present[rng.randrange(len(present))]
            demand = sorted(rng.sample(range(color_space), list_size))
            requests.append({"op": "set_list", "u": u, "v": v, "colors": demand})
        for _ in range(reads_per_delta):
            pick = rng.randrange(3)
            if pick == 0 and present:
                u, v = present[rng.randrange(len(present))]
                requests.append({"op": "color", "u": u, "v": v})
            elif pick == 1:
                requests.append({"op": "node_palette", "v": rng.randrange(n)})
            else:
                requests.append({"op": "schedule", "v": rng.randrange(n)})
    return requests, num_deltas


@runner("serving_churn")
def run_serving_churn(ctx: CellContext) -> Dict[str, object]:
    """Serving plane under edge churn: batched deltas + lookups (E12).

    Builds a canonical artifact offline, then serves one deterministic
    request stream — edge inserts/deletes/demand changes with
    interleaved color/palette/schedule lookups — through two twin
    sessions: the knob-selected ``repair_path`` (timed, best of
    ``repeats``) and a per-delta full-recompute baseline (timed once).
    Verifies the twins land on bit-identical colorings *and* response
    streams, and that the final artifact is the canonical fixed point.
    Path-dependent costs (speedup, touched edges, fallbacks, cache
    stats) stay in ``timing``, so rows diff clean across
    ``repair_path`` values.
    """
    import hashlib

    from repro.graphs import generators
    from repro.graphs.delta import DeltaGraph
    from repro.runtime.spec import canonical_json
    from repro.serving import (
        ColoringArtifact,
        ServingSession,
        build_artifact,
        resolve_repair_path,
    )

    phases = _phases("serving_churn")
    n = int(ctx.params["n"])
    delta = int(ctx.params["delta"])
    churn = float(ctx.params["churn"])
    reads_per_delta = int(ctx.params.get("reads_per_delta", 3))
    with phases.phase("setup"):
        graph = generators.random_regular_graph(
            n, delta, seed=int(ctx.params["graph_seed"])
        )

        # Offline build (untimed): the artifact every session starts from.
        colors0 = dict(build_artifact(graph).colors)

        # Deterministic request stream over the evolving edge set.
        requests, num_deltas = _churn_requests(
            graph, colors0, n, delta, churn, reads_per_delta, ctx.seed
        )

    def make_session(path: str) -> ServingSession:
        artifact = ColoringArtifact(DeltaGraph(graph), dict(colors0))
        return ServingSession(artifact, repair_path=path)

    # Knob-selected twin, best-of-repeats timing.
    resolved = resolve_repair_path(ctx.knobs.repair_path)
    best = None
    session = None
    responses = None
    with phases.phase("solve"):
        for attempt in range(max(1, ctx.repeats)):
            candidate = make_session(resolved)
            start = time.perf_counter()
            answered = candidate.serve_batch(requests)
            wall = time.perf_counter() - start
            if best is None or wall < best:
                best = wall
            if attempt == 0:
                session = candidate
                responses = answered

        # Per-delta full-recompute baseline twin (timed once).
        baseline = make_session("recompute")
        start = time.perf_counter()
        baseline_responses = baseline.serve_batch(requests)
        baseline_wall = time.perf_counter() - start

    with phases.phase("verify"):
        bad = [r for r in responses if not r.get("ok")]
        assert not bad, f"failed responses on n={n} churn={churn}: {bad[:3]}"
        assert responses == baseline_responses, "twin response streams diverge"
        assert session.artifact.colors == baseline.artifact.colors, (
            "incremental repair diverged from full recompute"
        )
        session.artifact.verify()
        speedup = baseline_wall / max(best, 1e-9)
        if resolved == "incremental" and n >= 1000:
            assert speedup >= 10, (
                f"serving speedup {speedup:.1f}x < 10x vs per-delta recompute "
                f"(n={n}, churn={churn})"
            )

    final = session.artifact
    coloring_digest = hashlib.sha256(
        canonical_json(
            [[u, v, c] for (u, v), c in sorted(final.colors.items())]
        ).encode("utf-8")
    ).hexdigest()[:16]
    responses_digest = hashlib.sha256(
        canonical_json(responses).encode("utf-8")
    ).hexdigest()[:16]
    # Lossless totals from cache_stats — ``session.reports`` is a capped
    # ring buffer now and would silently undercount long streams.
    stats = session.cache_stats()
    return {
        "n": n,
        "delta": delta,
        "churn": churn,
        "rounds": num_deltas,
        "requests": len(requests),
        "colors": final.num_colors,
        "epoch": final.epoch,
        "coloring_digest": coloring_digest,
        "responses_digest": responses_digest,
        "verified": True,
        "timing": {
            "wall_seconds": round(best, 4),
            "baseline_wall_seconds": round(baseline_wall, 4),
            "speedup": round(speedup, 2),
            "touched": stats["touched"],
            "recolored": stats["recolored"],
            "fallbacks": stats["fallbacks"],
            "cache": stats,
            "phases": phases.as_timing(),
        },
    }


def _concurrent_client_streams(colors0, n, clients, toggles, reads_per_write, seed):
    """Disjoint per-client request streams for the concurrent E13 cell.

    Each client owns one node; owners are pairwise **non-adjacent**, so
    the per-client write sets (delete → insert toggles of base edges
    incident to the owner) are disjoint and every toggle pair restores
    the edge it removed — the final graph equals the base graph at every
    interleaving, and the canonical fixed point makes the final coloring
    interleaving-independent.  Reads query base edges incident to *no*
    owner, so they are valid (``ok``) at every moment of every schedule.
    A pure function of its arguments: the concurrent passes and the
    serial baseline replay the exact same streams.  Returns ``(streams,
    writes_per_pass)``.
    """
    import random

    rng = random.Random(seed)
    adjacency: Dict[int, set] = {}
    for u, v in colors0:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    candidates = list(range(n))
    rng.shuffle(candidates)
    owners, excluded = [], set()
    for node in candidates:
        if node in excluded or len(adjacency.get(node, ())) < toggles:
            continue
        owners.append(node)
        excluded.add(node)
        excluded.update(adjacency[node])
        if len(owners) == clients:
            break
    assert len(owners) == clients, (
        f"could not pick {clients} pairwise-non-adjacent owner nodes "
        f"with degree >= {toggles} (n={n})"
    )
    owner_set = set(owners)
    stable = sorted(
        edge for edge in colors0 if edge[0] not in owner_set and edge[1] not in owner_set
    )
    assert stable, "no owner-free base edges left for the read streams"

    streams = []
    for index, owner in enumerate(owners):
        client_rng = random.Random(f"{seed}:client:{index}")
        edges = sorted(edge for edge in colors0 if owner in edge)[:toggles]
        stream: List[Dict[str, object]] = []
        for u, v in edges:
            for op in ("delete", "insert"):
                stream.append({"op": op, "u": u, "v": v})
                for _ in range(reads_per_write):
                    pick = client_rng.randrange(4)
                    if pick == 0:
                        stream.append({"op": "stats"})
                    elif pick == 1:
                        ru, _rv = stable[client_rng.randrange(len(stable))]
                        stream.append({"op": "node_palette", "v": ru})
                    else:
                        ru, rv = stable[client_rng.randrange(len(stable))]
                        stream.append({"op": "color", "u": ru, "v": rv})
        streams.append(stream)
    writes_per_pass = 2 * toggles * clients
    return streams, writes_per_pass


def _run_daemon_concurrent(ctx: CellContext) -> Dict[str, object]:
    """The concurrent-clients E13 cell: N socket clients vs a serial twin.

    Spawns one ``repro serve --listen`` subprocess (journal rotation caps
    on) and drives the same disjoint per-client streams at it three
    times: two *measured* concurrent passes (one thread per client) plus
    one serial baseline pass (the same streams back to back on one
    connection).  The deterministic result core — counts, final epoch,
    canonical coloring digest — does not depend on the interleaving;
    only ``timing`` carries the walls and the speedup.  Response
    *digests* are deliberately excluded from the core: read payloads
    observe the interleaving (that is the point of snapshot reads), and
    the linearizability tests, not this runner, pin their validity
    (``TestLinearizability`` in ``tests/test_serving_protocol.py``
    replays four concurrent socket clients against a serial twin).

    Each client's think time (``client_delay_ms``) models a remote
    caller doing work between requests — that is the latency the
    threading daemon overlaps; a serialized daemon cannot, which is what
    the ``min_speedup`` gate measures.
    """
    import hashlib
    import os
    import tempfile
    import threading

    from repro.graphs import generators
    from repro.runtime.spec import canonical_json
    from repro.serving import (
        ColoringArtifact,
        build_artifact,
        journal_path,
        resolve_repair_path,
    )
    from repro.serving.daemon import connect, spawned_daemon

    phases = _phases("serving_daemon")
    n = int(ctx.params["n"])
    delta = int(ctx.params["delta"])
    clients = int(ctx.params["clients"])
    toggles = int(ctx.params.get("toggles", 3))
    reads_per_write = int(ctx.params.get("reads_per_write", 3))
    delay = float(ctx.params.get("client_delay_ms", 2.0)) / 1000.0
    min_speedup = float(ctx.params.get("min_speedup", 0.0))
    journal_max_records = ctx.params.get("journal_max_records")
    resolved = resolve_repair_path(ctx.knobs.repair_path)

    with phases.phase("setup"):
        graph = generators.random_regular_graph(
            n, delta, seed=int(ctx.params["graph_seed"])
        )
        built = build_artifact(graph)
        colors0 = dict(built.colors)
        epoch0 = built.epoch
        streams, writes_per_pass = _concurrent_client_streams(
            colors0, n, clients, toggles, reads_per_write, ctx.seed
        )
    requests_per_pass = sum(len(stream) for stream in streams)

    with tempfile.TemporaryDirectory(prefix="repro_e13c_") as tmp:
        path = os.path.join(tmp, "artifact.json")
        built.save(path)
        extra_args = []
        if journal_max_records is not None:
            extra_args = ["--journal-max-records", str(int(journal_max_records))]

        def drive(stream, client, acks):
            for request in stream:
                time.sleep(delay)
                acks.append(client.request(request))

        def concurrent_pass():
            acks = [[] for _ in streams]
            def work(index, stream):
                with connect((host, port)) as client:
                    drive(stream, client, acks[index])
            threads = [
                threading.Thread(target=work, args=(i, s), daemon=True)
                for i, s in enumerate(streams)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return acks, time.perf_counter() - start

        def serial_pass():
            acks = [[] for _ in streams]
            start = time.perf_counter()
            with connect((host, port)) as client:
                for index, stream in enumerate(streams):
                    drive(stream, client, acks[index])
            return acks, time.perf_counter() - start

        daemon = spawned_daemon(path, repair_path=resolved, extra_args=extra_args)
        with daemon as (process, host, port):
            solve_start = time.perf_counter()
            acks_a, wall_a = concurrent_pass()
            acks_b, wall_b = concurrent_pass()
            measured_wall = min(wall_a, wall_b)
            acks_c, serial_wall = serial_pass()
            passes = (acks_a, acks_b, acks_c)
            with connect((host, port)) as client:
                ack = client.shutdown()
            assert ack == {"ok": True, "op": "shutdown"}, f"bad shutdown ack: {ack}"
            process.wait(timeout=30)
        phases.record("solve", time.perf_counter() - solve_start)
        speedup = serial_wall / max(measured_wall, 1e-9)

        with phases.phase("verify"):
            for pass_index, acks in enumerate(passes):
                flat = [response for per_client in acks for response in per_client]
                bad = [r for r in flat if not r.get("ok")]
                assert not bad, f"failed responses in pass {pass_index}: {bad[:3]}"
                write_epochs = sorted(
                    r["epoch"]
                    for r in flat
                    if r["op"] in ("insert", "delete", "set_list")
                )
                lo = epoch0 + pass_index * writes_per_pass
                assert len(write_epochs) == writes_per_pass
                assert write_epochs == list(range(lo + 1, lo + writes_per_pass + 1)), (
                    f"write epochs in pass {pass_index} are not the contiguous "
                    f"total order ({lo + 1}..{lo + writes_per_pass})"
                )
            # Graceful shutdown compacted: no journal, no rotated segments.
            assert not os.path.exists(journal_path(path)), (
                "graceful shutdown left the journal behind"
            )
            final = ColoringArtifact.load(path)
            assert final.epoch == epoch0 + len(passes) * writes_per_pass
            assert final.colors == colors0, (
                "toggled writes did not restore the canonical base coloring"
            )
            final.verify()
            if min_speedup:
                assert speedup >= min_speedup, (
                    f"concurrent clients speedup {speedup:.2f}x < {min_speedup}x "
                    f"over the serialized schedule ({clients} clients)"
                )

    coloring_digest = hashlib.sha256(
        canonical_json(
            [[u, v, c] for (u, v), c in sorted(final.colors.items())]
        ).encode("utf-8")
    ).hexdigest()[:16]
    return {
        "n": n,
        "delta": delta,
        "clients": clients,
        "rounds": len(passes) * writes_per_pass,
        "requests": len(passes) * requests_per_pass,
        "writes_per_pass": writes_per_pass,
        "passes": len(passes),
        "colors": final.num_colors,
        "epoch": final.epoch,
        "coloring_digest": coloring_digest,
        "verified": True,
        "timing": {
            "wall_seconds": round(measured_wall, 4),
            "serial_wall_seconds": round(serial_wall, 4),
            "speedup": round(speedup, 2),
            "phases": phases.as_timing(),
        },
    }


@runner("serving_daemon")
def run_serving_daemon(ctx: CellContext) -> Dict[str, object]:
    """Daemon durability under SIGKILL: socket twin + journal replay (E13).

    Drives the shared E12 churn stream at a real ``repro serve --listen``
    subprocess in lockstep over a socket, SIGKILLs it halfway through,
    and asserts the two durability contracts:

    * **journal replay**: reloading the artifact after the kill replays
      the on-disk journal and reproduces the *exact* pre-kill state —
      same epoch, same coloring, ``verify()`` clean — because every
      acknowledged delta was journaled before its response;
    * **socket twin**: the full response stream (across the kill, the
      restart and a graceful shutdown) is bit-identical to an in-process
      ``ServingSession`` serving the same requests.  The daemon runs
      with auto-rebase on while the in-process twin never rebases, so
      the comparison also pins rebase as a proper twin over the wire.

    Graceful shutdown must compact: after the final ``shutdown`` op the
    journal is gone and the artifact JSON alone carries the end state.

    Cells carrying a ``clients`` parameter dispatch to the
    concurrent-clients variant (:func:`_run_daemon_concurrent`), which
    measures the threading daemon's speedup over a serialized client
    schedule.
    """
    if "clients" in ctx.params:
        return _run_daemon_concurrent(ctx)

    import hashlib
    import os
    import tempfile

    from repro.graphs import generators
    from repro.runtime.spec import canonical_json
    from repro.serving import (
        ColoringArtifact,
        ServingSession,
        build_artifact,
        journal_path,
        resolve_repair_path,
    )
    from repro.serving.daemon import connect, spawned_daemon

    phases = _phases("serving_daemon")
    n = int(ctx.params["n"])
    delta = int(ctx.params["delta"])
    churn = float(ctx.params["churn"])
    reads_per_delta = int(ctx.params.get("reads_per_delta", 2))
    with phases.phase("setup"):
        graph = generators.random_regular_graph(
            n, delta, seed=int(ctx.params["graph_seed"])
        )
        built = build_artifact(graph)
        colors0 = dict(built.colors)
        requests, num_deltas = _churn_requests(
            graph, colors0, n, delta, churn, reads_per_delta, ctx.seed
        )
    kill_at = len(requests) // 2
    resolved = resolve_repair_path(ctx.knobs.repair_path)

    with tempfile.TemporaryDirectory(prefix="repro_e13_") as tmp:
        path = os.path.join(tmp, "artifact.json")
        built.save(path)

        # In-process twin (never rebases; the daemon auto-rebases).
        twin = ServingSession(
            ColoringArtifact.load(path), repair_path=resolved, rebase_policy=None
        )
        expected_prefix = twin.serve_batch(requests[:kill_at])
        prefix_colors = dict(twin.artifact.colors)
        prefix_epoch = twin.artifact.epoch
        expected_suffix = twin.serve_batch(requests[kill_at:])

        start = time.perf_counter()
        # Phase 1: lockstep until the kill point, then SIGKILL mid-stream.
        with spawned_daemon(path, repair_path=resolved) as (process, host, port):
            with connect((host, port)) as client:
                got_prefix = client.request_many(requests[:kill_at])
            process.kill()
            process.wait(timeout=30)

        # Journal replay reproduces the exact pre-kill state.
        recovered = ColoringArtifact.load(path)
        assert recovered.epoch == prefix_epoch, (
            f"replayed epoch {recovered.epoch} != pre-kill epoch {prefix_epoch}"
        )
        assert recovered.colors == prefix_colors, (
            "journal replay diverged from the pre-kill coloring"
        )
        recovered.verify()

        # Phase 2: restart from base+journal, finish the stream, shut down.
        with spawned_daemon(path, repair_path=resolved) as (process, host, port):
            with connect((host, port)) as client:
                got_suffix = client.request_many(requests[kill_at:])
                ack = client.shutdown()
            assert ack == {"ok": True, "op": "shutdown"}, f"bad shutdown ack: {ack}"
            process.wait(timeout=30)
        wall = time.perf_counter() - start
        phases.record("solve", wall)

        with phases.phase("verify"):
            # Graceful shutdown compacted: journal gone, JSON carries the end.
            assert not os.path.exists(journal_path(path)), (
                "graceful shutdown left the journal behind"
            )
            final = ColoringArtifact.load(path)
            assert final.epoch == twin.artifact.epoch
            assert final.colors == twin.artifact.colors, (
                "compacted artifact diverged from the in-process twin"
            )
            final.verify()

    with phases.phase("verify"):
        got = got_prefix + got_suffix
        expected = expected_prefix + expected_suffix
        assert got == expected, "socket responses diverge from the in-process session"
        bad = [r for r in got if not r.get("ok")]
        assert not bad, f"failed daemon responses on n={n}: {bad[:3]}"

    coloring_digest = hashlib.sha256(
        canonical_json(
            [[u, v, c] for (u, v), c in sorted(final.colors.items())]
        ).encode("utf-8")
    ).hexdigest()[:16]
    responses_digest = hashlib.sha256(
        canonical_json(got).encode("utf-8")
    ).hexdigest()[:16]
    return {
        "n": n,
        "delta": delta,
        "churn": churn,
        "rounds": num_deltas,
        "requests": len(requests),
        "kill_at": kill_at,
        "colors": final.num_colors,
        "epoch": final.epoch,
        "coloring_digest": coloring_digest,
        "responses_digest": responses_digest,
        "verified": True,
        "timing": {"wall_seconds": round(wall, 4), "phases": phases.as_timing()},
    }
