"""Test-side reference for the message-passing simulator.

:func:`reference_run` executes a :class:`NodeAlgorithm` the slow, obvious
way — per-round ``send()`` dicts routed by neighbor lookup into fresh
per-node inbox dicts, every payload audited by one
:meth:`CongestAuditor.record` call — so the simulator's slot buffer,
pooled views, grouped audit and late-delivery tracking have an
independent oracle.  :class:`RaggedSender` is the algorithm that
stresses all of them at once, and :data:`DELIVERY_GRAPHS` the graph
shapes the simulator tests share.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.distributed.algorithms import NodeAlgorithm, NodeContext
from repro.distributed.messages import CongestAuditor
from repro.distributed.model import Model
from repro.graphs import generators
from repro.graphs.core import Graph


class DictInbox(dict):
    """A plain per-node inbox dict with the pooled view's list-returning API."""

    def __iter__(self):
        return iter(self.keys())

    def keys(self) -> List[int]:
        return sorted(super().keys())

    def items(self) -> List[Tuple[int, Any]]:
        return [(port, self[port]) for port in self.keys()]

    def values(self) -> List[Any]:
        return [self[port] for port in self.keys()]

    def to_dict(self) -> Dict[int, Any]:
        return dict(self.items())


def reference_run(
    graph: Graph,
    algorithm: NodeAlgorithm,
    model: Model = Model.LOCAL,
    congest_factor: int = 8,
    max_rounds: int = 10_000,
):
    """``(outputs, metrics fingerprint, auditor state)`` of a per-message run.

    The fingerprint is ``(rounds, messages, max_message_bits,
    congest_violations, congest_budget_bits)``; the auditor state is
    ``(messages_recorded, total_bits, max_bits, violations)`` or ``None``
    in LOCAL mode.
    """
    n = graph.num_nodes
    neighbors = [list(graph.neighbors(v)) for v in range(n)]
    contexts = [
        NodeContext(
            node=v,
            node_id=graph.node_id(v),
            degree=len(neighbors[v]),
            neighbor_ids=[graph.node_id(w) for w in neighbors[v]],
            globals={"num_nodes": n, "max_degree": graph.max_degree},
        )
        for v in range(n)
    ]
    auditor = (
        CongestAuditor(num_nodes=n, factor=congest_factor) if model is Model.CONGEST else None
    )
    states = [algorithm.initialize(ctx) for ctx in contexts]
    unfinished = [v for v in range(n) if not algorithm.finished(contexts[v], states[v])]
    rounds = messages = 0
    while unfinished:
        if rounds >= max_rounds:
            raise RuntimeError(f"algorithm did not terminate within {max_rounds} rounds")
        inboxes: Dict[int, DictInbox] = {}
        for v in unfinished:
            for port, payload in algorithm.send(contexts[v], states[v], rounds).items():
                if payload is None:
                    continue
                w = neighbors[v][port]
                inboxes.setdefault(w, DictInbox())[neighbors[w].index(v)] = payload
                messages += 1
                if auditor is not None:
                    auditor.record(payload)
        for v in unfinished:
            algorithm.receive(contexts[v], states[v], inboxes.get(v, DictInbox()), rounds)
        running = set(unfinished)
        for w in sorted(inboxes):
            if w not in running:
                algorithm.receive(contexts[w], states[w], inboxes[w], rounds)
        unfinished = [v for v in unfinished if not algorithm.finished(contexts[v], states[v])]
        rounds += 1
    outputs = [algorithm.output(ctx, state) for ctx, state in zip(contexts, states)]
    fingerprint = (
        rounds,
        messages,
        auditor.max_bits if auditor else 0,
        len(auditor.violations) if auditor else 0,
        auditor.budget_bits if auditor else None,
    )
    audit = (
        (auditor.messages_recorded, auditor.total_bits, auditor.max_bits, auditor.violations)
        if auditor
        else None
    )
    return outputs, fingerprint, audit


class RaggedSender(NodeAlgorithm):
    """Ragged ports, ``None`` payloads, mixed payload types and staggered
    termination: node ``v`` runs ``v % 3 + 1`` rounds and then only sees
    late deliveries.

    ``receive`` snapshots every view it is handed, so the outputs expose
    exactly which ports carried which payloads — a ``None`` that leaked
    into a view, or a payload that outlived its round, changes them.
    """

    def initialize(self, ctx):
        return {"log": [], "round": 0}

    def send(self, ctx, state, round_index):
        outbox = {}
        for port in range(ctx.degree):
            if (port + round_index + ctx.node) % 3 == 0:
                outbox[port] = None  # explicitly not sent
            elif (port + round_index) % 2 == 0:
                outbox[port] = ctx.node_id * 10 + round_index
            else:
                outbox[port] = (ctx.node_id, "r", round_index)
        return outbox

    def receive(self, ctx, state, inbox, round_index):
        state["log"].append(
            (round_index, inbox.keys(), inbox.items(), len(inbox), bool(inbox))
        )
        state["round"] = round_index + 1

    def finished(self, ctx, state):
        return state["round"] > ctx.node % 3

    def output(self, ctx, state):
        return state["log"]


#: Graph shapes for the simulator checks: regular and irregular
#: degrees, a hub, isolated nodes and scrambled identifiers.
DELIVERY_GRAPHS = {
    "cycle": lambda: generators.cycle_graph(9),
    "star": lambda: generators.star_graph(12),
    "isolated-nodes": lambda: Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4)]),
    "bipartite": lambda: generators.regular_bipartite_graph(12, 3, seed=4)[0],
    "regular": lambda: generators.random_regular_graph(20, 5, seed=2),
    "scrambled-power-law": lambda: generators.graph_with_scrambled_ids(
        generators.power_law_graph(30, 2, seed=3), seed=3
    ),
}
