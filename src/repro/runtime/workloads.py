"""Cell runners: the executable side of the scenario registry.

Every runner is a module-level function (picklable across worker
processes) registered under a string name in :data:`RUNNERS`; a
:class:`~repro.runtime.spec.ScenarioSpec` references its runner by that
name, so specs remain pure data.  A runner receives a
:class:`CellContext` (params, derived seed, resolved knobs, repeat
count) and returns a JSON-serializable result dict.

The skeleton: every scenario runner hands three callables to
:func:`_cell`, which owns the rest of the cell.

* ``setup()`` builds the inputs (graphs, lists, offline artifacts).
* ``solve(inputs)`` is the measured region.  It runs ``ctx.repeats``
  times; the best wall is the row's ``timing.wall_seconds`` and the
  first result is kept (runners are deterministic, so repeats agree).
* ``verify(inputs, result, wall)`` asserts the paper's guarantees on
  that result — a perf number for a wrong coloring is worthless — and
  returns the row's result fields, optionally with a ``"timing"`` dict
  of extra timing-only fields.

:func:`_cell` times the three as ``timing.phases`` (a ``runtime.phase.*``
span each when tracing is on) and marks the row ``verified: True``.  The
executor splits ``timing`` off into the row's timing field, which is
excluded from all determinism comparisons and cache keys.

Determinism: runners must be pure functions of ``(params, seed, knobs)``
— no wall-clock, no process state, no unseeded randomness — so that the
executor's bit-identical-results guarantee holds (see
:mod:`repro.runtime.spec`).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Mapping, Tuple

from repro import api
from repro.graphs import generators
from repro.obs import PhaseTimer
from repro.runtime.spec import Knobs, canonical_json

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


def _cell(ctx: CellContext, name: str, setup, solve, verify) -> Dict[str, object]:
    """Run one cell through the setup/solve/verify skeleton (see the module docstring)."""
    phases = PhaseTimer("runtime.phase", runner=name)
    with phases.phase("setup"):
        inputs = setup()
    with phases.phase("solve"):
        result, wall = _timed(ctx, lambda: solve(inputs))
    with phases.phase("verify"):
        row = verify(inputs, result, wall)
    row["verified"] = True
    row["timing"] = {
        "wall_seconds": round(wall, 4),
        **row.get("timing", {}),
        "phases": phases.as_timing(),
    }
    return row


def _digest(value: object) -> str:
    """The first 16 hex digits of the SHA-256 of ``value``'s canonical JSON."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()[:16]


def _coloring_digest(artifact) -> str:
    """:func:`_digest` of a serving artifact's coloring, one ``[u, v, color]`` per edge."""
    return _digest([[u, v, c] for (u, v), c in sorted(artifact.colors.items())])


def _regular_graph(ctx: CellContext):
    """The cell's random ``delta``-regular graph on ``n`` nodes."""
    return generators.random_regular_graph(
        int(ctx.params["n"]), int(ctx.params["delta"]), seed=int(ctx.params["graph_seed"])
    )


def _bipartite_graph(ctx: CellContext):
    """The cell's ``delta``-regular bipartite graph, ``side`` nodes a side."""
    return generators.regular_bipartite_graph(
        int(ctx.params["side"]), int(ctx.params["delta"]), seed=int(ctx.params["graph_seed"])
    )


def _list_instance(ctx: CellContext, graph, **options):
    """A list instance on ``graph`` with random lists seeded by ``list_seed``."""
    from repro.core.slack import ListEdgeColoringInstance

    seed = int(ctx.params["list_seed"])
    lists, space = generators.list_edge_coloring_lists(graph, seed=seed, **options)
    return ListEdgeColoringInstance(graph, {e: lists[e] for e in graph.edges()}, space)


# ------------------------------------------------------------------ E1: LOCAL
@runner("local_coloring")
def run_local_coloring(ctx: CellContext) -> Dict[str, object]:
    """E1 — Theorem 1.1 / D.4: (2Δ−1)-edge coloring in the LOCAL model."""
    from repro.core.parameters import theorem_d4_round_bound
    from repro.core.slack import uniform_instance
    from repro.verification.checkers import list_coloring_violations

    n = int(ctx.params["n"])
    delta = int(ctx.params["delta"])

    def solve(graph):
        return api.color_edges_local(graph)

    def verify(graph, outcome, _wall):
        bound = max(1, 2 * delta - 1)
        assert outcome.is_proper, f"improper coloring on n={n} delta={delta}"
        assert outcome.num_colors <= bound, f"color bound violated on n={n} delta={delta}"
        violations = list_coloring_violations(graph, outcome.colors, uniform_instance(graph).lists)
        assert not violations, f"list violations on n={n} delta={delta}"
        return {
            "n": n,
            "delta": delta,
            "colors": outcome.num_colors,
            "bound": bound,
            "rounds": outcome.rounds,
            "paper_round_bound": round(theorem_d4_round_bound(bound, delta, n)),
        }

    return _cell(ctx, "local_coloring", lambda: _regular_graph(ctx), solve, verify)


@runner("list_instance")
def run_list_instance(ctx: CellContext) -> Dict[str, object]:
    """E1 — the (degree+1)-list instance; verifies list conformance."""
    from repro.verification.checkers import list_coloring_violations

    n = int(ctx.params["n"])
    delta = int(ctx.params["delta"])

    def setup():
        return _list_instance(ctx, _regular_graph(ctx), slack=float(ctx.params.get("slack", 1.0)))

    def solve(instance):
        return api.color_edges_local(instance.graph, instance=instance)

    def verify(instance, outcome, _wall):
        assert outcome.is_proper, f"improper list coloring on n={n} delta={delta}"
        violations = list_coloring_violations(instance.graph, outcome.colors, instance.lists)
        assert not violations, f"list violations on n={n} delta={delta}"
        return {
            "n": n,
            "delta": delta,
            "colors": outcome.num_colors,
            "color_space": instance.color_space,
            "rounds": outcome.rounds,
            "list_violations": 0,
        }

    return _cell(ctx, "list_instance", setup, solve, verify)


# --------------------------------------------------------------- E2/E6: CONGEST
@runner("congest_coloring")
def run_congest_coloring(ctx: CellContext) -> Dict[str, object]:
    """E2 / E6 — Theorem 1.2 / 6.3: (8+ε)Δ-edge coloring in CONGEST."""
    from repro.core.parameters import theorem63_round_bound

    n = int(ctx.params["n"])
    delta = int(ctx.params["delta"])
    epsilon = float(ctx.params.get("epsilon", 0.5))

    def solve(graph):
        return api.color_edges_congest(graph, epsilon=epsilon)

    def verify(_graph, outcome, _wall):
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
        }

    return _cell(ctx, "congest_coloring", lambda: _regular_graph(ctx), solve, verify)


# ------------------------------------------------------------------ E3: Lemma 6.1
@runner("bipartite_coloring")
def run_bipartite_coloring(ctx: CellContext) -> Dict[str, object]:
    """E3 — Lemma 6.1: (2+ε)Δ coloring of 2-colored bipartite graphs."""
    from repro.core.parameters import lemma61_round_bound

    delta = int(ctx.params["delta"])
    epsilon = float(ctx.params.get("epsilon", 0.5))

    def solve(instance):
        return api.color_edges_bipartite(*instance, epsilon=epsilon)

    def verify(_instance, outcome, _wall):
        assert outcome.is_proper, f"improper bipartite coloring at delta={delta}"
        assert outcome.num_colors <= 4 * delta, f"color blowup at delta={delta}"
        assert outcome.num_colors <= 2 * outcome.bound, f"colors over 2x bound at delta={delta}"
        return {
            "side": int(ctx.params["side"]),
            "delta": delta,
            "epsilon": epsilon,
            "colors": outcome.num_colors,
            "palette": outcome.details["palette_size"],
            "bound": round(outcome.bound, 1),
            "part_count": outcome.details["part_count"],
            "rounds": outcome.rounds,
            "paper_round_bound": round(lemma61_round_bound(epsilon, delta)),
        }

    return _cell(ctx, "bipartite_coloring", lambda: _bipartite_graph(ctx), solve, verify)


# ------------------------------------------------------------------ E4: Theorem 4.3
@runner("token_dropping")
def run_token_dropping_cell(ctx: CellContext) -> Dict[str, object]:
    """E4 — Theorem 4.3: the generalized token dropping game."""
    from repro.core.token_dropping import (
        TokenDroppingGame,
        layered_dag,
        run_token_dropping,
        uniform_alpha,
    )
    from repro.graphs.core import DirectedGraph
    from repro.verification.invariants import check_token_game_validity

    variant = str(ctx.params.get("variant", "layered"))
    k = int(ctx.params["k"])
    delta = int(ctx.params["delta"])

    def setup():
        if variant == "layered":
            layers, width = int(ctx.params["layers"]), int(ctx.params["width"])
            graph = layered_dag(layers, width, connect=3)
            tokens = [0] * graph.num_nodes
            for i in range(width):
                tokens[(layers - 1) * width + i] = k
                tokens[(layers - 2) * width + i] = k // 2
        elif variant == "cyclic":
            n = int(ctx.params["n"])
            arcs = []
            for v in range(n):
                arcs += [(v, (v + 1) % n), (v, (v + 7) % n), ((v + 3) % n, v)]
            graph = DirectedGraph(n, arcs)
            tokens = [k if v % 3 == 0 else 0 for v in range(n)]
        else:
            raise ValueError(f"unknown token dropping variant {variant!r}")
        alpha = uniform_alpha(graph.num_nodes, delta)
        return TokenDroppingGame(graph=graph, k=k, initial_tokens=tokens, alpha=alpha, delta=delta)

    def verify(game, result, _wall):
        phase_bound = k // delta - 1
        assert result.max_tokens() <= k, f"token cap violated ({variant})"
        assert not result.slack_violations(), f"slack violations ({variant})"
        failures = check_token_game_validity(game, result)
        assert failures == [], f"invalid token game ({variant}): {failures[:3]}"
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
        }

    return _cell(ctx, "token_dropping", setup, run_token_dropping, verify)


# ------------------------------------------------------------------ E5: Section 5
@runner("defective_two_coloring")
def run_defective_two_coloring(ctx: CellContext) -> Dict[str, object]:
    """E5 — Corollary 5.7 / Theorem 5.6: generalized defective 2-edge coloring."""
    from repro.core import parameters
    from repro.core.defective_edge_coloring import (
        generalized_defective_two_edge_coloring,
        half_split_lambdas,
    )
    from repro.verification.checkers import defective_edge_coloring_violations

    epsilon = float(ctx.params.get("epsilon", 0.5))
    variant = str(ctx.params.get("variant", "half"))

    def setup():
        graph, bipartition = _bipartite_graph(ctx)
        if variant == "half":
            lambdas = half_split_lambdas(graph.edges())
        elif variant == "list_driven":
            lambdas = {e: (0.8 if e % 2 == 0 else 0.2) for e in graph.edges()}
        else:
            raise ValueError(f"unknown defective coloring variant {variant!r}")
        return graph, bipartition, lambdas

    def solve(instance):
        return generalized_defective_two_edge_coloring(*instance, epsilon=epsilon)

    def verify(instance, result, _wall):
        bar_delta = instance[0].max_edge_degree
        beta = parameters.beta_theoretical(epsilon, bar_delta)
        violations = result.violations(beta=2 * beta)
        assert not violations, f"Definition 5.1 violations ({variant}, epsilon={epsilon})"
        # An independent recount of the defects against the same bounds.
        bounds = {e: result.defect_bound(e, beta=2 * beta) for e in result.colors}
        recount = defective_edge_coloring_violations(instance[0], result.colors, bounds)
        assert recount == [], f"Definition 5.1 recount violations ({variant}): {recount[:3]}"
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
        }

    return _cell(ctx, "defective_two_coloring", setup, solve, verify)


# ------------------------------------------------------------------ E6: comparison
@runner("round_scaling_suite")
def run_round_scaling_suite(ctx: CellContext) -> Dict[str, object]:
    """E6 — rounds and colors as a function of Δ across the algorithm suite.

    The suite is :func:`repro.analysis.experiments.run_algorithm_suite`:
    the paper's pipelines and every baseline, on one graph.
    """
    from repro.analysis.experiments import run_algorithm_suite

    n = int(ctx.params["n"])
    delta = int(ctx.params["delta"])

    def solve(graph):
        return run_algorithm_suite(
            graph,
            experiment="e6",
            parameters={"n": n, "delta": delta},
            seed=int(ctx.params["rand_seed"]),
        )

    def verify(_graph, records, _wall):
        for record in records:
            assert record.proper, f"improper {record.algorithm} coloring at delta={delta}"
            assert record.num_colors <= record.bound, (
                f"{record.algorithm} used {record.num_colors} colors > bound {record.bound}"
            )
        return {
            "n": n,
            "delta": delta,
            "rounds": {record.algorithm: record.rounds for record in records},
            "colors": {record.algorithm: record.num_colors for record in records},
        }

    return _cell(ctx, "round_scaling_suite", lambda: _regular_graph(ctx), solve, verify)


# ------------------------------------------------------------------ E7: log* n
@runner("logstar_growth")
def run_logstar_growth(ctx: CellContext) -> Dict[str, object]:
    """E7 — the O(log* n) additive term on scrambled-identifier cycles."""
    from repro.baselines.greedy_by_classes import greedy_baseline_edge_coloring
    from repro.coloring.linial import linial_vertex_coloring
    from repro.distributed.rounds import RoundTracker
    from repro.graphs.identifiers import log_star
    from repro.verification.checkers import is_proper_edge_coloring, is_proper_vertex_coloring

    n = int(ctx.params["n"])
    factor = int(ctx.params.get("id_space_factor", 16))

    def setup():
        cycle = generators.cycle_graph(n)
        return generators.graph_with_scrambled_ids(cycle, seed=n, id_space_factor=factor)

    def solve(graph):
        tracker = RoundTracker()
        colors, num_colors = linial_vertex_coloring(graph, tracker=tracker)
        baseline = greedy_baseline_edge_coloring(graph)
        return tracker.total, colors, num_colors, baseline

    def verify(graph, outcomes, _wall):
        linial_rounds, vertex_colors, linial_colors, baseline = outcomes
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
        }

    return _cell(ctx, "logstar_growth", setup, solve, verify)


# ------------------------------------------------------------------ E8: CONGEST audit
@runner("linial_audit")
def run_linial_audit(ctx: CellContext) -> Dict[str, object]:
    """E8 — message-passing Linial audited end to end on the simulator.

    Runs on the cell's identifier-scrambled regular graph; the simulator
    is built in setup, so the measured region is the run.  Every run must
    color every node and leave no edge monochromatic, and every message
    must fit the CONGEST budget.
    """
    from repro.verification.checkers import is_proper_vertex_coloring

    n = int(ctx.params["n"])
    degree = int(ctx.params.get("degree", 4))
    factor = int(ctx.params.get("id_space_factor", 8))

    def setup():
        graph = generators.graph_with_scrambled_ids(
            generators.random_regular_graph(n, degree, seed=n), seed=n, id_space_factor=factor
        )
        return graph, api.build_linial_network(graph)

    def solve(instance):
        return api.run_linial_network(instance[0], network=instance[1])

    def verify(instance, outcome, _wall):
        assert None not in outcome.outputs, f"uncolored node in Linial audit at n={n}"
        assert is_proper_vertex_coloring(instance[0], outcome.outputs), (
            f"improper Linial coloring in Linial audit at n={n}"
        )
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
        }

    return _cell(ctx, "linial_audit", setup, solve, verify)


@runner("congest_value_audit")
def run_congest_value_audit(ctx: CellContext) -> Dict[str, object]:
    """E8 — value ranges of the Theorem 6.3 pipeline fit the bit budget."""
    from repro.core.congest_coloring import congest_edge_coloring
    from repro.distributed.messages import message_size_bits
    from repro.distributed.model import congest_bit_budget

    epsilon = float(ctx.params.get("epsilon", 0.5))

    def solve(graph):
        return congest_edge_coloring(graph, epsilon=epsilon)

    def verify(graph, result, _wall):
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
            "n": int(ctx.params["n"]),
            "delta": int(ctx.params["delta"]),
            "budget_bits": budget,
            "values": audited,
        }

    return _cell(ctx, "congest_value_audit", lambda: _regular_graph(ctx), solve, verify)


# ------------------------------------------------------------------ E9: Lemma D.2/D.3
@runner("relaxed_solver")
def run_relaxed_solver(ctx: CellContext) -> Dict[str, object]:
    """E9 — the Lemma D.2 relaxed-instance solver across slack values."""
    from repro.core.list_edge_coloring import solve_relaxed_instance
    from repro.verification.checkers import is_proper_edge_coloring, list_coloring_violations

    slack = float(ctx.params["slack"])

    def setup():
        graph, bipartition = _bipartite_graph(ctx)
        space = int(ctx.params["color_space"])
        return bipartition, _list_instance(ctx, graph, slack=slack, color_space=space)

    def solve(inputs):
        bipartition, instance = inputs
        return solve_relaxed_instance(
            instance.graph,
            bipartition,
            instance.list_masks(instance.edge_set),
        )

    def verify(inputs, colors, _wall):
        instance = inputs[1]
        graph = instance.graph
        violations = list_coloring_violations(graph, colors, instance.lists)
        assert len(colors) == graph.num_edges, f"uncolored edges at slack={slack}"
        assert is_proper_edge_coloring(graph, colors), f"improper at slack={slack}"
        assert not violations, f"list violations at slack={slack}"
        return {
            "slack": slack,
            "color_space": instance.color_space,
            "edges": graph.num_edges,
            "colored": len(colors),
            "proper": True,
            "list_violations": 0,
            "min_slack_measured": round(instance.min_slack(), 2),
        }

    return _cell(ctx, "relaxed_solver", setup, solve, verify)


@runner("degree_reduction")
def run_degree_reduction(ctx: CellContext) -> Dict[str, object]:
    """E9 — one Lemma D.3 pass reduces the uncolored degree by a constant factor."""
    from repro.core.list_edge_coloring import partially_color_bipartite
    from repro.core.slack import uniform_instance
    from repro.graphs.core import degrees_within
    from repro.verification.checkers import is_proper_edge_coloring
    from repro.verification.invariants import slack_invariant_violations

    def setup():
        graph, bipartition = _bipartite_graph(ctx)
        return graph, bipartition, uniform_instance(graph)

    def solve(inputs):
        graph, bipartition, instance = inputs
        return partially_color_bipartite(
            graph,
            instance,
            [(bipartition, graph.edges())],
            coloring={},
        )

    def verify(inputs, newly, _wall):
        graph, _bipartition, instance = inputs
        bar_delta = graph.max_edge_degree
        uncolored = [e for e in graph.edges() if e not in newly]
        worst = max(degrees_within(graph, uncolored)[1], default=0)
        assert is_proper_edge_coloring(graph, newly, edge_set=list(newly.keys()))
        slack = slack_invariant_violations(instance, newly)
        assert slack == [], f"(degree+1) slack invariant broken: {slack[:3]}"
        assert worst <= 0.75 * bar_delta, "degree reduction too weak"
        return {
            "edges": graph.num_edges,
            "initial_edge_degree": bar_delta,
            "colored": len(newly),
            "uncolored": len(uncolored),
            "uncolored_edge_degree": worst,
            "reduction_factor": round(bar_delta / max(1, worst), 2),
            "proper": True,
        }

    return _cell(ctx, "degree_reduction", setup, solve, verify)


# ------------------------------------------------------------------ E10: ablations
@runner("ablation")
def run_ablation(ctx: CellContext) -> Dict[str, object]:
    """E10 — the design-choice ablations (δ, ν, recursion depth)."""
    ablation = str(ctx.params["ablation"])
    if ablation == "token_delta":
        from repro.core.token_dropping import (
            TokenDroppingGame,
            layered_dag,
            run_token_dropping,
            uniform_alpha,
        )

        delta = int(ctx.params["delta"])

        def setup():
            graph = layered_dag(8, 24, connect=3)
            tokens = [0] * graph.num_nodes
            for i in range(24):
                tokens[7 * 24 + i] = 24
            return TokenDroppingGame(
                graph=graph,
                k=24,
                initial_tokens=tokens,
                alpha=uniform_alpha(graph.num_nodes, delta),
                delta=delta,
            )

        def verify(game, result, _wall):
            worst_gap = 0
            for a in result.active_arcs():
                arc = game.graph.arc(a)
                worst_gap = max(worst_gap, result.tokens[arc.tail] - result.tokens[arc.head])
            assert not result.slack_violations()
            return {
                "ablation": ablation,
                "delta": delta,
                "phases": result.phases,
                "rounds": result.rounds,
                "worst_active_gap": worst_gap,
                "slack_violations": 0,
            }

        return _cell(ctx, "ablation", setup, run_token_dropping, verify)
    if ablation == "orientation_nu":
        from repro.core import parameters
        from repro.core.balanced_orientation import compute_balanced_orientation
        from repro.verification.checkers import orientation_in_degrees

        nu = float(ctx.params["nu"])
        epsilon = 8 * nu

        def setup():
            graph, bipartition = generators.regular_bipartite_graph(48, 12, seed=41)
            return graph, bipartition, {e: 0.0 for e in graph.edges()}

        def solve(instance):
            return compute_balanced_orientation(*instance, epsilon=epsilon, nu=nu)

        def verify(instance, result, _wall):
            graph, bipartition, eta = instance
            worst = 0
            for e in graph.edges():
                u, v = bipartition.orient_edge(graph, e)
                tail, head = result.orientation[e]
                gap = result.in_degrees[v] - result.in_degrees[u]
                worst = max(worst, gap if (tail, head) == (u, v) else -gap)
            # Invariants: every edge is oriented exactly once, the
            # in-degree tally accounts for every edge, and it is the
            # tally of this orientation, node by node.
            assert len(result.orientation) == graph.num_edges, "incomplete orientation"
            assert sum(result.in_degrees) == graph.num_edges, "in-degree tally broken"
            assert orientation_in_degrees(graph, result.orientation) == result.in_degrees, (
                "in-degree recount differs from the reported in-degrees"
            )
            # Theorem 5.6 at ε = 8ν: (ε, β)-balanced for its analytic β.
            beta = parameters.beta_theoretical(epsilon, max(2, result.bar_delta))
            violations = result.definition_52_violations(graph, bipartition, eta, epsilon, beta)
            assert not violations, f"Definition 5.2 violations at nu={nu}"
            return {
                "ablation": ablation,
                "nu": nu,
                "phases": result.phases,
                "rounds": result.rounds,
                "worst_imbalance": worst,
            }

        return _cell(ctx, "ablation", setup, solve, verify)
    if ablation == "recursion_depth":
        from repro.core.bipartite_coloring import bipartite_edge_coloring

        levels = int(ctx.params["levels"])

        def solve(instance):
            return bipartite_edge_coloring(*instance, epsilon=0.5, levels=levels)

        def verify(_instance, result, _wall):
            assert result.num_colors <= 5 * 16
            return {
                "ablation": ablation,
                "levels": levels,
                "parts": result.part_count,
                "max_leaf_degree": result.max_leaf_degree,
                "colors": result.num_colors,
                "palette": result.palette_size,
                "rounds": result.rounds,
            }

        def setup():
            return generators.regular_bipartite_graph(64, 16, seed=43)

        return _cell(ctx, "ablation", setup, solve, verify)
    raise ValueError(f"unknown ablation {ablation!r}")


# ------------------------------------------------------------------ E11: reductions
@runner("classic_reduction")
def run_classic_reduction(ctx: CellContext) -> Dict[str, object]:
    """E11 — a C-coloring solves maximal matching / MIS in C extra rounds."""
    from repro.distributed.rounds import RoundTracker
    from repro.verification.checkers import is_maximal_independent_set, is_maximal_matching

    pipeline = str(ctx.params["pipeline"])
    n = int(ctx.params["n"])
    delta = int(ctx.params["delta"])
    if pipeline == "matching":
        from repro.classic.matching import maximal_matching_from_edge_coloring
        from repro.core.list_edge_coloring import list_edge_coloring

        def solve(graph):
            coloring_tracker = RoundTracker()
            coloring = list_edge_coloring(graph, tracker=coloring_tracker)
            reduction_tracker = RoundTracker()
            matching = maximal_matching_from_edge_coloring(
                graph, coloring.colors, tracker=reduction_tracker
            )
            return coloring, coloring_tracker.total, matching, reduction_tracker.total

        def verify(graph, outcomes, _wall):
            coloring, coloring_rounds, matching, reduction_rounds = outcomes
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
            }

    elif pipeline == "mis":
        from repro.classic.mis import maximal_independent_set

        def solve(graph):
            tracker = RoundTracker()
            independent, colors = maximal_independent_set(graph, tracker=tracker)
            return independent, colors, tracker.total

        def verify(graph, outcomes, _wall):
            independent, colors, total_rounds = outcomes
            assert is_maximal_independent_set(graph, independent), (
                f"non-maximal MIS at delta={delta}"
            )
            assert len(set(colors)) <= delta + 1, "vertex palette blowup"
            return {
                "pipeline": pipeline,
                "n": n,
                "delta": delta,
                "vertex_colors": len(set(colors)),
                "total_rounds": total_rounds,
                "mis_size": len(independent),
                "maximal": True,
            }

    else:
        raise ValueError(f"unknown classic pipeline {pipeline!r}")
    return _cell(ctx, "classic_reduction", lambda: _regular_graph(ctx), solve, verify)


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
    from repro.graphs.delta import DeltaGraph
    from repro.serving import (
        ColoringArtifact,
        ServingSession,
        build_artifact,
        resolve_repair_path,
    )

    n = int(ctx.params["n"])
    delta = int(ctx.params["delta"])
    churn = float(ctx.params["churn"])
    reads_per_delta = int(ctx.params.get("reads_per_delta", 3))
    resolved = resolve_repair_path(ctx.knobs.repair_path)

    def setup():
        graph = _regular_graph(ctx)
        # Offline build: the artifact every session starts from.
        colors0 = dict(build_artifact(graph).colors)
        requests, num_deltas = _churn_requests(
            graph, colors0, n, delta, churn, reads_per_delta, ctx.seed
        )

        def session(path: str) -> ServingSession:
            artifact = ColoringArtifact(DeltaGraph(graph), dict(colors0))
            return ServingSession(artifact, repair_path=path)

        # One fresh session per timed repeat, so the timed region only serves.
        sessions = iter([session(resolved) for _ in range(max(1, ctx.repeats))])
        return requests, num_deltas, sessions, session("recompute")

    def solve(inputs):
        session = next(inputs[2])
        return session, session.serve_batch(inputs[0])

    def verify(inputs, served, wall):
        requests, num_deltas, _sessions, baseline = inputs
        session, responses = served
        # The per-delta full-recompute baseline twin, timed once.
        start = time.perf_counter()
        baseline_responses = baseline.serve_batch(requests)
        baseline_wall = time.perf_counter() - start
        bad = [r for r in responses if not r.get("ok")]
        assert not bad, f"failed responses on n={n} churn={churn}: {bad[:3]}"
        assert responses == baseline_responses, "twin response streams diverge"
        assert session.artifact.colors == baseline.artifact.colors, (
            "incremental repair diverged from full recompute"
        )
        session.artifact.verify()
        speedup = baseline_wall / max(wall, 1e-9)
        if resolved == "incremental" and n >= 1000:
            assert speedup >= 10, (
                f"serving speedup {speedup:.1f}x < 10x vs per-delta recompute "
                f"(n={n}, churn={churn})"
            )
        final = session.artifact
        # Lossless totals from cache_stats.
        stats = session.cache_stats()
        return {
            "n": n,
            "delta": delta,
            "churn": churn,
            "rounds": num_deltas,
            "requests": len(requests),
            "colors": final.num_colors,
            "epoch": final.epoch,
            "coloring_digest": _coloring_digest(final),
            "responses_digest": _digest(responses),
            "timing": {
                "baseline_wall_seconds": round(baseline_wall, 4),
                "speedup": round(speedup, 2),
                "touched": stats["touched"],
                "recolored": stats["recolored"],
                "fallbacks": stats["fallbacks"],
                "cache": stats,
            },
        }

    return _cell(ctx, "serving_churn", setup, solve, verify)


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
        stream = []
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


def _compacted_artifact(path: str):
    """The artifact a graceful daemon shutdown left at ``path``, loaded and verified.

    Shutdown compacts the journal into the artifact JSON, so none may remain.
    """
    from repro.serving import ColoringArtifact, journal_path

    assert not os.path.exists(journal_path(path)), "graceful shutdown left the journal behind"
    final = ColoringArtifact.load(path)
    final.verify()
    return final


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
    observe the interleaving (each answers at the epoch it reached), and
    the linearizability tests, not this runner, pin their validity
    (``TestLinearizability`` in ``tests/test_serving_protocol.py``
    replays four concurrent socket clients against a serial twin).

    Each client's think time (``client_delay_ms``) models a remote
    caller doing work between requests — that is the latency the
    threading daemon overlaps; a serialized daemon cannot, which is what
    the ``min_speedup`` gate measures.
    """
    import contextlib
    import threading
    from types import SimpleNamespace

    from repro.serving import build_artifact, resolve_repair_path
    from repro.serving.daemon import connect, spawned_daemon

    n = int(ctx.params["n"])
    delta = int(ctx.params["delta"])
    clients = int(ctx.params["clients"])
    toggles = int(ctx.params.get("toggles", 3))
    reads_per_write = int(ctx.params.get("reads_per_write", 3))
    delay = float(ctx.params.get("client_delay_ms", 2.0)) / 1000.0
    min_speedup = float(ctx.params.get("min_speedup", 0.0))
    cap = ctx.params.get("journal_max_records")
    extra_args = [] if cap is None else ["--journal-max-records", str(int(cap))]
    resolved = resolve_repair_path(ctx.knobs.repair_path)

    def drive(stream, client, acks):
        for request in stream:
            time.sleep(delay)
            acks.append(client.request(request))

    with tempfile.TemporaryDirectory(prefix="repro_e13c_") as tmp, contextlib.ExitStack() as stack:
        path = os.path.join(tmp, "artifact.json")

        def setup():
            built = build_artifact(_regular_graph(ctx))
            colors0 = dict(built.colors)
            streams, writes_per_pass = _concurrent_client_streams(
                colors0, n, clients, toggles, reads_per_write, ctx.seed
            )
            built.save(path)
            process, host, port = stack.enter_context(
                spawned_daemon(path, repair_path=resolved, extra_args=extra_args)
            )
            return SimpleNamespace(
                epoch0=built.epoch,
                colors0=colors0,
                streams=streams,
                writes_per_pass=writes_per_pass,
                process=process,
                address=(host, port),
                passes=[],
            )

        def solve(state):
            # One concurrent pass; verify checks every pass, so each is kept.
            acks = [[] for _ in state.streams]

            def work(index, stream):
                with connect(state.address) as client:
                    drive(stream, client, acks[index])

            threads = [
                threading.Thread(target=work, args=(i, s), daemon=True)
                for i, s in enumerate(state.streams)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            state.passes.append(acks)

        def verify(state, _result, wall):
            acks = [[] for _ in state.streams]
            start = time.perf_counter()
            with connect(state.address) as client:
                for index, stream in enumerate(state.streams):
                    drive(stream, client, acks[index])
            serial_wall = time.perf_counter() - start
            state.passes.append(acks)
            with connect(state.address) as client:
                ack = client.shutdown()
            assert ack == {"ok": True, "op": "shutdown"}, f"bad shutdown ack: {ack}"
            state.process.wait(timeout=30)
            speedup = serial_wall / max(wall, 1e-9)

            writes_per_pass = state.writes_per_pass
            for pass_index, acks in enumerate(state.passes):
                flat = [response for per_client in acks for response in per_client]
                bad = [r for r in flat if not r.get("ok")]
                assert not bad, f"failed responses in pass {pass_index}: {bad[:3]}"
                write_epochs = sorted(
                    r["epoch"] for r in flat if r["op"] in ("insert", "delete", "set_list")
                )
                lo = state.epoch0 + pass_index * writes_per_pass
                assert len(write_epochs) == writes_per_pass
                assert write_epochs == list(range(lo + 1, lo + writes_per_pass + 1)), (
                    f"write epochs in pass {pass_index} are not the contiguous "
                    f"total order ({lo + 1}..{lo + writes_per_pass})"
                )
            final = _compacted_artifact(path)
            passes = len(state.passes)
            assert final.epoch == state.epoch0 + passes * writes_per_pass
            assert final.colors == state.colors0, (
                "toggled writes did not restore the canonical base coloring"
            )
            if min_speedup:
                assert speedup >= min_speedup, (
                    f"concurrent clients speedup {speedup:.2f}x < {min_speedup}x "
                    f"over the serialized schedule ({clients} clients)"
                )
            return {
                "n": n,
                "delta": delta,
                "clients": clients,
                "rounds": passes * writes_per_pass,
                "requests": passes * sum(len(stream) for stream in state.streams),
                "writes_per_pass": writes_per_pass,
                "passes": passes,
                "colors": final.num_colors,
                "epoch": final.epoch,
                "coloring_digest": _coloring_digest(final),
                "timing": {
                    "serial_wall_seconds": round(serial_wall, 4),
                    "speedup": round(speedup, 2),
                },
            }

        # Two measured concurrent passes, whatever the cell's repeats:
        # wall_seconds is the faster one.
        return _cell(replace(ctx, repeats=2), "serving_daemon", setup, solve, verify)


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

    from repro.serving import (
        ColoringArtifact,
        ServingSession,
        build_artifact,
        resolve_repair_path,
    )
    from repro.serving.daemon import connect, spawned_daemon

    n = int(ctx.params["n"])
    delta = int(ctx.params["delta"])
    churn = float(ctx.params["churn"])
    reads_per_delta = int(ctx.params.get("reads_per_delta", 2))
    resolved = resolve_repair_path(ctx.knobs.repair_path)

    with tempfile.TemporaryDirectory(prefix="repro_e13_") as tmp:
        path = os.path.join(tmp, "artifact.json")

        def setup():
            graph = _regular_graph(ctx)
            built = build_artifact(graph)
            requests, num_deltas = _churn_requests(
                graph, dict(built.colors), n, delta, churn, reads_per_delta, ctx.seed
            )
            built.save(path)
            kill_at = len(requests) // 2
            # In-process twin (never rebases; the daemon auto-rebases).
            twin = ServingSession(
                ColoringArtifact.load(path), repair_path=resolved, rebase_policy=None
            )
            expected = twin.serve_batch(requests[:kill_at])
            prefix = (twin.artifact.epoch, dict(twin.artifact.colors))
            expected += twin.serve_batch(requests[kill_at:])
            return requests, num_deltas, kill_at, prefix, twin, expected

        def solve(inputs):
            requests, _num_deltas, kill_at, (prefix_epoch, prefix_colors), _twin, _ = inputs
            # Phase 1: lockstep until the kill point, then SIGKILL mid-stream.
            with spawned_daemon(path, repair_path=resolved) as (process, host, port):
                with connect((host, port)) as client:
                    got = client.request_many(requests[:kill_at])
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
                    got += client.request_many(requests[kill_at:])
                    ack = client.shutdown()
                assert ack == {"ok": True, "op": "shutdown"}, f"bad shutdown ack: {ack}"
                process.wait(timeout=30)
            return got

        def verify(inputs, got, _wall):
            requests, num_deltas, kill_at, _prefix, twin, expected = inputs
            final = _compacted_artifact(path)
            assert final.epoch == twin.artifact.epoch
            assert final.colors == twin.artifact.colors, (
                "compacted artifact diverged from the in-process twin"
            )
            assert got == expected, "socket responses diverge from the in-process session"
            bad = [r for r in got if not r.get("ok")]
            assert not bad, f"failed daemon responses on n={n}: {bad[:3]}"
            return {
                "n": n,
                "delta": delta,
                "churn": churn,
                "rounds": num_deltas,
                "requests": len(requests),
                "kill_at": kill_at,
                "colors": final.num_colors,
                "epoch": final.epoch,
                "coloring_digest": _coloring_digest(final),
                "responses_digest": _digest(got),
            }

        # Timed once: a second pass would replay against the mutated artifact.
        return _cell(replace(ctx, repeats=1), "serving_daemon", setup, solve, verify)
