"""Linial's O(Δ²)-coloring in O(log* n) rounds [41].

The algorithm appears in two forms, both over the color-reduction
engines of :mod:`repro.coloring.color_reduction`:

* :func:`linial_vertex_coloring` — the phase-level form used by the
  higher-level algorithms: every reduction step runs over the CSR
  adjacency, on the numpy sweep or its python twin as
  :mod:`repro.core.engine` chooses, and charges one round to a
  :class:`repro.distributed.rounds.RoundTracker`;
* :class:`LinialNodeAlgorithm` — the same algorithm as a message-passing
  :class:`repro.distributed.algorithms.NodeAlgorithm`; integration tests
  check that both produce identical colorings and that the simulator's
  round count equals the charged rounds.

:func:`linial_edge_coloring` runs the vertex algorithm on the line graph
(using O(log n)-bit edge identifiers), giving the O(Δ̄²)-edge coloring
that Section 6, Section 7 and the greedy baselines start from.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, List, Optional, Tuple

from repro.coloring.color_reduction import (
    conflict_free_step_numpy,
    polynomial_step,
    polynomial_steps,
    polynomial_steps_numpy,
    reduction_schedule,
    shared_eval_cache,
    sweep_rows,
)
from repro.core import engine
from repro.core.engine import _np
from repro.distributed.algorithms import NodeAlgorithm, NodeContext
from repro.distributed.rounds import RoundTracker
from repro.graphs.core import Graph


def linial_vertex_coloring(
    graph: Graph,
    tracker: Optional[RoundTracker] = None,
) -> Tuple[List[int], int]:
    """A proper O(Δ²)-vertex coloring computed in O(log* n) charged rounds.

    Args:
        graph: the input graph (node identifiers are the initial colors).
        tracker: optional round tracker; one round is charged per
            reduction step under the label ``linial``.

    Returns:
        ``(colors, num_colors)`` where ``colors[v]`` is the color of node
        ``v`` and every color is in ``[0, num_colors)``.
    """
    if graph.num_nodes == 0:
        return [], 1
    colors = graph.node_ids
    space = max(colors) + 1
    schedule = reduction_schedule(space, max(1, graph.max_degree))
    if not schedule:
        return colors, space
    xadj, adj = graph.adjacency_csr()
    steps = polynomial_steps_numpy if engine.use_numpy(len(adj)) else polynomial_steps
    colors = steps(colors, xadj, adj, schedule, tracker)
    q, _d = schedule[-1]
    return colors, q * q


def linial_edge_coloring(
    graph: Graph,
    tracker: Optional[RoundTracker] = None,
) -> Tuple[Dict[int, int], int]:
    """A proper O(Δ̄²)-edge coloring of ``graph`` in O(log* n) charged rounds.

    The coloring is computed by running the vertex algorithm on the line
    graph; the line-graph node identifiers are the O(log n)-bit edge
    identifiers, so the algorithm also runs in the CONGEST model (each
    original node simulates its incident line-graph nodes).

    Returns ``(edge_colors, num_colors)`` with ``edge_colors`` keyed by
    edge index.
    """
    if graph.num_edges == 0:
        return {}, 1
    line = graph.line_graph()
    colors, num_colors = linial_vertex_coloring(line, tracker=tracker)
    return {e: colors[e] for e in graph.edges()}, num_colors


class LinialNodeAlgorithm(NodeAlgorithm):
    """Message-passing implementation of Linial's coloring.

    All nodes compute the same reduction schedule from the globally known
    identifier-space size and Δ (both provided via the network's global
    knowledge), then execute one reduction step per round: send the
    current color to every neighbor, receive the neighbors' colors, apply
    the polynomial step.

    The algorithm is a pure broadcast: each round :meth:`send_batch`
    writes the current color once into the simulator's slot buffer via
    ``outbox.broadcast``.  All nodes run the same ``(q, d)`` step each
    round, so the phase-level :meth:`receive_batch` runs one
    :func:`repro.coloring.color_reduction.conflict_free_step_numpy` over
    *all* incoming slots — the table is the distinct own colors and
    payloads — instead of ``n`` per-node python dispatches.  The
    per-node :meth:`receive` is its bit-identical python twin: it runs
    when :mod:`repro.core.engine` chooses python, and the
    batch falls back to it whenever the sweep's preconditions do not hold
    (numpy absent, non-``int`` payloads, ``None`` slots, int64 overflow,
    a non-contiguous unfinished set).
    """

    def initialize(self, ctx: NodeContext) -> Dict[str, Any]:
        id_space = ctx.globals.get("id_space")
        if id_space is None:
            raise ValueError("LinialNodeAlgorithm needs the 'id_space' global")
        delta = ctx.globals["max_degree"]
        schedule = reduction_schedule(id_space, max(1, delta))
        return {"color": ctx.node_id, "schedule": schedule, "step": 0}

    def send_batch(
        self, ctx: NodeContext, state: Dict[str, Any], round_index: int, outbox: Any
    ) -> None:
        if state["step"] < len(state["schedule"]):
            outbox.broadcast(state["color"])

    def receive(
        self,
        ctx: NodeContext,
        state: Dict[str, Any],
        inbox: Dict[int, Any],
        round_index: int,
    ) -> None:
        if state["step"] >= len(state["schedule"]):
            return
        q, d = state["schedule"][state["step"]]
        # All nodes run the same (q, d) step each round, so polynomial
        # evaluations are shared across the network exactly like in the
        # phase-level implementation (pure memoization; same outputs).
        cache = shared_eval_cache(q, d)
        state["color"] = polynomial_step(state["color"], inbox.values(), q, d, cache)
        state["step"] += 1

    def receive_batch(
        self,
        contexts: List[NodeContext],
        states: List[Dict[str, Any]],
        nodes: List[int],
        inbox: Any,
        round_index: int,
    ) -> None:
        if not nodes:
            return
        state0 = states[nodes[0]]
        schedule = state0["schedule"]
        step_index = state0["step"]
        if step_index < len(schedule):
            # All nodes derive the same schedule from the shared globals,
            # so every unfinished node sits at the same step; the
            # contiguity of the unfinished set follows (all nodes finish
            # together).  Verify both cheaply and fall back to the exact
            # per-node twin when an exotic subclass breaks them.
            uniform = nodes[-1] - nodes[0] + 1 == len(nodes) and all(
                states[v]["step"] == step_index
                and (states[v]["schedule"] is schedule or states[v]["schedule"] == schedule)
                for v in nodes
            )
            lo, _ = inbox.slot_bounds(nodes[0])
            _, hi = inbox.slot_bounds(nodes[-1])
            if uniform and engine.use_numpy(hi - lo):
                np = _np
                q, d = schedule[step_index]
                num = len(nodes)
                try:
                    # ``None`` slots (absent messages) and non-int payloads
                    # make fromiter raise; the per-node twin handles them.
                    values = np.fromiter(
                        chain((states[v]["color"] for v in nodes), inbox.buffer[lo:hi]),
                        dtype=np.int64,
                        count=num + hi - lo,
                    )
                except (TypeError, OverflowError):
                    values = None
                if values is not None:
                    table, index = np.unique(values, return_inverse=True)
                    offsets = np.array([inbox.slot_bounds(v)[0] for v in nodes] + [hi]) - lo
                    rows = sweep_rows(index[:num], index[num:], offsets)
                    new_colors = conflict_free_step_numpy(table, rows, q, d)
                    if new_colors is not None:
                        next_step = step_index + 1
                        for v, color in zip(nodes, new_colors.tolist()):
                            state = states[v]
                            state["color"] = color
                            state["step"] = next_step
                        return
        # Exact per-node twin: also the fallback whenever the vectorized
        # sweep's preconditions do not hold.
        receive = self.receive
        for v in nodes:
            receive(contexts[v], states[v], inbox.node(v), round_index)

    def finished(self, ctx: NodeContext, state: Dict[str, Any]) -> bool:
        return state["step"] >= len(state["schedule"])

    def output(self, ctx: NodeContext, state: Dict[str, Any]) -> int:
        return state["color"]
