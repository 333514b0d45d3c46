"""High-level public API.

Thin convenience wrappers around the core algorithms: each function takes
a :class:`repro.graphs.core.Graph`, runs one algorithm, verifies the
output, and returns an :class:`EdgeColoringOutcome` carrying the coloring,
the number of colors, the paper's bound for that algorithm, and the round
count.  The examples and benchmarks use these entry points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core import parameters
from repro.core.bipartite_coloring import bipartite_edge_coloring
from repro.core.congest_coloring import congest_edge_coloring
from repro.core.list_edge_coloring import list_edge_coloring
from repro.core.slack import ListEdgeColoringInstance
from repro.distributed.model import Model
from repro.distributed.rounds import RoundTracker
from repro.graphs.bipartite import Bipartition, find_bipartition
from repro.graphs.core import Graph
from repro.verification.checkers import is_proper_edge_coloring


@dataclass
class EdgeColoringOutcome:
    """Result of one edge-coloring run.

    Attributes:
        algorithm: short name of the algorithm that produced the coloring.
        colors: proper edge coloring, keyed by edge index.
        num_colors: number of distinct colors used.
        bound: the paper's color bound for this algorithm and instance.
        rounds: communication rounds charged.
        is_proper: whether the verification checker accepted the coloring.
        details: algorithm-specific extra fields (levels, palette size, ...).
    """

    algorithm: str
    colors: Dict[int, int]
    num_colors: int
    bound: float
    rounds: int
    is_proper: bool
    details: Dict[str, object] = field(default_factory=dict)


def color_edges_local(
    graph: Graph,
    instance: Optional[ListEdgeColoringInstance] = None,
    params: Optional[parameters.PracticalParameters] = None,
) -> EdgeColoringOutcome:
    """(2Δ−1)-edge coloring / (degree+1)-list edge coloring in the LOCAL model (Theorem 1.1)."""
    tracker = RoundTracker()
    result = list_edge_coloring(graph, instance=instance, params=params, tracker=tracker)
    return EdgeColoringOutcome(
        algorithm="local-list-coloring",
        colors=result.colors,
        num_colors=result.num_colors,
        bound=result.bound,
        rounds=result.rounds,
        is_proper=is_proper_edge_coloring(graph, result.colors),
        details={
            "outer_iterations": result.outer_iterations,
            "level_degrees": result.level_degrees,
            "round_breakdown": tracker.breakdown,
        },
    )


def color_edges_congest(
    graph: Graph,
    epsilon: float = 0.5,
    params: Optional[parameters.PracticalParameters] = None,
) -> EdgeColoringOutcome:
    """(8+ε)Δ-edge coloring in the CONGEST model (Theorem 1.2 / 6.3)."""
    tracker = RoundTracker()
    result = congest_edge_coloring(graph, epsilon=epsilon, params=params, tracker=tracker)
    return EdgeColoringOutcome(
        algorithm="congest-8eps",
        colors=result.colors,
        num_colors=result.num_colors,
        bound=result.bound,
        rounds=result.rounds,
        is_proper=is_proper_edge_coloring(graph, result.colors),
        details={
            "palette_size": result.palette_size,
            "levels": result.levels,
            "level_degrees": result.level_degrees,
            "round_breakdown": tracker.breakdown,
        },
    )


@dataclass
class MessagePassingOutcome:
    """Result of one audited run on the synchronous message-passing simulator.

    Attributes:
        algorithm: short name of the node algorithm that ran.
        outputs: per-node outputs, indexed by node.
        rounds: synchronous rounds executed.
        messages: non-``None`` payloads delivered.
        max_message_bits: size of the largest audited message.
        congest_budget_bits: the CONGEST bit budget of the run.
        congest_violations: number of payloads over budget (0 for a
            compliant algorithm).
        fault_summary: realized fault statistics when the run executed
            under a :class:`repro.distributed.faults.FaultPlan`;
            ``None`` for fault-free runs.
    """

    algorithm: str
    outputs: list
    rounds: int
    messages: int
    max_message_bits: int
    congest_budget_bits: Optional[int]
    congest_violations: int
    fault_summary: Optional[Dict[str, object]] = None


def build_linial_network(graph: Graph):
    """A CONGEST-audited simulator network prepared for Linial coloring.

    Split out of :func:`run_linial_network` so perf callers can keep the
    network construction outside their timed region and reuse one
    network across repeated runs.
    """
    from repro.distributed.network import SynchronousNetwork
    from repro.graphs.identifiers import id_space_size

    return SynchronousNetwork(
        graph, model=Model.CONGEST, global_knowledge={"id_space": id_space_size(graph)}
    )


def run_linial_network(
    graph: Graph,
    network=None,
    fault_plan=None,
    max_rounds: int = 10_000,
) -> MessagePassingOutcome:
    """Run message-passing Linial coloring under the CONGEST audit (E8).

    ``network`` optionally reuses a prebuilt :func:`build_linial_network`
    simulator (perf callers keep the construction untimed).
    ``fault_plan`` opts the run into the deterministic fault-injection
    plane (:mod:`repro.distributed.faults`); the realized faults are
    reported in ``fault_summary`` and are a pure function of the plan.
    """
    from repro.coloring.linial import LinialNodeAlgorithm

    if network is None:
        network = build_linial_network(graph)
    elif network.graph is not graph:
        raise ValueError(
            "the prebuilt network was constructed for a different graph "
            f"({network.graph.num_nodes} nodes) than the one passed in "
            f"({graph.num_nodes} nodes); pass the graph it was built from "
            "(build_linial_network(graph))"
        )
    outputs, metrics = network.run(
        LinialNodeAlgorithm(), fault_plan=fault_plan, max_rounds=max_rounds
    )
    return MessagePassingOutcome(
        algorithm="linial-message-passing",
        outputs=outputs,
        rounds=metrics.rounds,
        messages=metrics.messages,
        max_message_bits=metrics.max_message_bits,
        congest_budget_bits=metrics.congest_budget_bits,
        congest_violations=metrics.congest_violations,
        fault_summary=metrics.fault_summary,
    )


def build_coloring_service(
    graph: Graph,
    lists=None,
    *,
    cache_size: int = 1024,
    repair_path: str = "auto",
    radius_limit: Optional[int] = None,
):
    """Offline-build a canonical coloring artifact and open a serving session.

    The two-phase entry point of the serving plane
    (:mod:`repro.serving`): the build runs the canonical
    priority-greedy coloring once, the returned
    :class:`repro.serving.ServingSession` then answers batched
    color/schedule lookups and absorbs edge/demand deltas by bounded
    incremental repair.  ``repair_path`` pins the repair twin
    (``"auto"`` / ``"incremental"`` / ``"recompute"`` — bit-identical,
    the knob only matters for perf and testing), ``radius_limit`` is
    the repair radius past which a delta counts as a fallback and is
    finished within a recompute-sized budget, and ``lists`` optionally
    constrains edges to demand lists, keyed by endpoint pair.
    """
    from repro.serving import ServingSession, build_artifact

    artifact = build_artifact(graph, lists)
    return ServingSession(
        artifact,
        cache_size=cache_size,
        repair_path=repair_path,
        radius_limit=radius_limit,
    )


def color_edges_bipartite(
    graph: Graph,
    bipartition: Optional[Bipartition] = None,
    epsilon: float = 0.25,
    params: Optional[parameters.PracticalParameters] = None,
) -> EdgeColoringOutcome:
    """(2+ε)Δ-edge coloring of a 2-colored bipartite graph (Lemma 6.1)."""
    if bipartition is None:
        bipartition = find_bipartition(graph)
        if bipartition is None:
            raise ValueError("the graph is not bipartite; provide a bipartition or use another algorithm")
    tracker = RoundTracker()
    result = bipartite_edge_coloring(
        graph, bipartition, epsilon=epsilon, params=params, tracker=tracker
    )
    return EdgeColoringOutcome(
        algorithm="bipartite-2eps",
        colors=result.colors,
        num_colors=result.num_colors,
        bound=result.bound,
        rounds=result.rounds,
        is_proper=is_proper_edge_coloring(graph, result.colors),
        details={
            "palette_size": result.palette_size,
            "levels": result.levels,
            "part_count": result.part_count,
            "max_leaf_degree": result.max_leaf_degree,
            "round_breakdown": tracker.breakdown,
        },
    )
