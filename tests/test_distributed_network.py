"""Unit tests for the synchronous message-passing simulator.

Besides purpose-built algorithms for each edge case (late delivery, the
``max_rounds`` boundary, pooled views, bad ports), the slot buffer is
checked against the per-message reference simulator of
``simulator_reference.py``, and a native ``receive_batch`` against the
per-node bridge.
"""

from __future__ import annotations

from typing import Any, Dict

import pytest

from repro import api
from repro.coloring.linial import LinialNodeAlgorithm
from repro.distributed.algorithms import NodeAlgorithm, NodeContext
from repro.distributed.model import Model
from repro.distributed.network import RoundInbox, SynchronousNetwork
from repro.graphs import generators
from repro.graphs.core import Graph
from repro.graphs.identifiers import id_space_size
from repro.verification.checkers import is_proper_vertex_coloring
from simulator_reference import DELIVERY_GRAPHS, RaggedSender, reference_run


class MaxIdFlooding(NodeAlgorithm):
    """Every node learns the maximum identifier within ``hops`` hops."""

    def __init__(self, hops: int) -> None:
        self.hops = hops

    def initialize(self, ctx: NodeContext) -> Dict[str, Any]:
        return {"best": ctx.node_id, "round": 0}

    def send(self, ctx, state, round_index):
        if state["round"] >= self.hops:
            return {}
        return {port: state["best"] for port in range(ctx.degree)}

    def receive(self, ctx, state, inbox, round_index):
        for value in inbox.values():
            state["best"] = max(state["best"], value)
        state["round"] += 1

    def finished(self, ctx, state) -> bool:
        return state["round"] >= self.hops

    def output(self, ctx, state):
        return state["best"]


class ChattyAlgorithm(NodeAlgorithm):
    """Sends one large message then stops (used to test CONGEST auditing)."""

    def initialize(self, ctx):
        return {"sent": False}

    def send(self, ctx, state, round_index):
        return {port: list(range(500)) for port in range(ctx.degree)}

    def receive(self, ctx, state, inbox, round_index):
        state["sent"] = True

    def finished(self, ctx, state):
        return state["sent"]


class NeverTerminates(NodeAlgorithm):
    def finished(self, ctx, state):
        return False


_OUT_OF_RANGE = object()  # sentinel: send on a numeric but out-of-range port


class BadPortAlgorithm(NodeAlgorithm):
    def __init__(self, port_key=_OUT_OF_RANGE):
        self.port_key = port_key

    def initialize(self, ctx):
        return {"done": False}

    def send(self, ctx, state, round_index):
        key = ctx.degree + 5 if self.port_key is _OUT_OF_RANGE else self.port_key
        return {key: 1}

    def receive(self, ctx, state, inbox, round_index):
        state["done"] = True

    def finished(self, ctx, state):
        return state["done"]


class EarlyFinisher(NodeAlgorithm):
    """Node index 0 finishes after one round; the rest keep sending.

    The late messages the finished node observes are recorded per round,
    snapshotted out of the pooled inbox view.
    """

    def initialize(self, ctx):
        return {"rounds_done": 0, "late": {}, "early": ctx.node == 0}

    def send(self, ctx, state, round_index):
        return {port: ctx.node_id for port in range(ctx.degree)}

    def receive(self, ctx, state, inbox, round_index):
        if state["early"] and state["rounds_done"] >= 1:
            state["late"][round_index] = inbox.to_dict()
        state["rounds_done"] += 1

    def finished(self, ctx, state):
        return state["rounds_done"] >= (1 if state["early"] else 3)

    def output(self, ctx, state):
        return state["late"]


class OneShotSender(NodeAlgorithm):
    """Sends only in round 0, then idles for two more rounds.

    Records what the inbox looked like every round — rounds 1 and 2 must
    be empty, i.e. the pooled buffers may not leak round-0 payloads.
    """

    def initialize(self, ctx):
        return {"rounds_done": 0, "seen": []}

    def send(self, ctx, state, round_index):
        if round_index == 0:
            return {port: 7 for port in range(ctx.degree)}
        return {}

    def receive(self, ctx, state, inbox, round_index):
        state["seen"].append((len(inbox), bool(inbox), inbox.values()))
        state["rounds_done"] += 1

    def finished(self, ctx, state):
        return state["rounds_done"] >= 3

    def output(self, ctx, state):
        return state["seen"]


class InboxApiProbe(NodeAlgorithm):
    """Exercises the full mapping API of the pooled inbox view."""

    def initialize(self, ctx):
        return {"done": False, "probe": None}

    def send(self, ctx, state, round_index):
        return {port: 10 + port for port in range(ctx.degree)}

    def receive(self, ctx, state, inbox, round_index):
        if inbox:
            missing_raises = False
            try:
                inbox[ctx.degree + 1]
            except KeyError:
                missing_raises = True
            state["probe"] = {
                "len": len(inbox),
                "keys": inbox.keys(),
                "iter": list(inbox),
                "items": inbox.items(),
                "values": inbox.values(),
                "first": inbox[0],
                "get_missing": inbox.get(99, "default"),
                "contains": 0 in inbox,
                "missing": 99 in inbox,
                "missing_raises": missing_raises,
                "dict": inbox.to_dict(),
            }
        state["done"] = True

    def finished(self, ctx, state):
        return state["done"]

    def output(self, ctx, state):
        return state["probe"]


class RoundInboxProbe(NodeAlgorithm):
    """Native batched receiver that inspects the raw ``RoundInbox``.

    Asserts the contract from inside a real run: only unfinished nodes
    are handed to ``receive_batch``, every node's slot range has its
    degree, and the pooled per-node view surfaces exactly the
    non-``None`` slots of that range.  Odd nodes finish a round early,
    so their last messages arrive as late deliveries through
    ``receive``.
    """

    def initialize(self, ctx):
        return {"round": 0, "log": [], "rounds": 3 - ctx.node % 2}

    def send(self, ctx, state, round_index):
        return {
            port: ctx.node_id * 100 + port
            for port in range(ctx.degree)
            if (port + ctx.node + round_index) % 2 == 0
        }

    def receive(self, ctx, state, inbox, round_index):
        late = self.finished(ctx, state)
        state["log"].append((round_index, late, inbox.to_dict()))
        state["round"] += 1

    def receive_batch(self, contexts, states, nodes, inbox, round_index):
        assert isinstance(inbox, RoundInbox)
        buf = inbox.buffer
        for v in nodes:
            assert not self.finished(contexts[v], states[v])
            lo, hi = inbox.slot_bounds(v)
            assert hi - lo == contexts[v].degree
            view = inbox.node(v).to_dict()
            assert view == {p: buf[lo + p] for p in range(hi - lo) if buf[lo + p] is not None}
            states[v]["log"].append((round_index, False, view))
            states[v]["round"] += 1

    def finished(self, ctx, state):
        return state["round"] >= state["rounds"]

    def output(self, ctx, state):
        return state["log"]


class BridgedRoundInboxProbe(RoundInboxProbe):
    """The same algorithm on the per-node ``receive_batch`` bridge."""

    receive_batch = NodeAlgorithm.receive_batch


def _fingerprint(metrics):
    return (
        metrics.rounds,
        metrics.messages,
        metrics.max_message_bits,
        metrics.congest_violations,
        metrics.congest_budget_bits,
    )


class TestSimulator:
    def test_flooding_reaches_diameter(self):
        graph = generators.cycle_graph(8)
        network = SynchronousNetwork(graph)
        outputs, metrics = network.run(MaxIdFlooding(hops=4))
        assert metrics.rounds == 4
        assert all(out == 7 for out in outputs)
        assert metrics.messages > 0

    def test_flooding_partial_when_few_hops(self):
        graph = generators.path_graph(10)
        network = SynchronousNetwork(graph)
        outputs, _metrics = network.run(MaxIdFlooding(hops=1))
        assert outputs[0] == 1
        assert outputs[9] == 9

    def test_congest_auditing_flags_large_messages(self):
        graph = generators.cycle_graph(6)
        network = SynchronousNetwork(graph, model=Model.CONGEST, congest_factor=2)
        _outputs, metrics = network.run(ChattyAlgorithm())
        assert metrics.congest_budget_bits is not None
        assert metrics.congest_violations > 0
        assert metrics.max_message_bits > metrics.congest_budget_bits

    def test_local_runs_have_no_budget(self):
        graph = generators.cycle_graph(6)
        network = SynchronousNetwork(graph, model=Model.LOCAL)
        _outputs, metrics = network.run(MaxIdFlooding(hops=1))
        assert metrics.congest_budget_bits is None
        assert metrics.congest_violations == 0

    def test_non_terminating_algorithm_raises(self):
        graph = generators.cycle_graph(4)
        network = SynchronousNetwork(graph)
        with pytest.raises(RuntimeError, match="did not terminate"):
            network.run(NeverTerminates(), max_rounds=5)

    def test_invalid_port_raises(self):
        graph = generators.cycle_graph(4)
        network = SynchronousNetwork(graph)
        with pytest.raises(ValueError, match="invalid port"):
            network.run(BadPortAlgorithm())

    def test_invalid_port_reports_node_id_and_round(self):
        # The error names the stable node identifier (not the internal
        # node index) and the round in which the bad send happened.
        graph = generators.graph_with_scrambled_ids(generators.cycle_graph(4), seed=3)
        assert graph.node_id(0) != 0  # the scramble must actually move id 0
        network = SynchronousNetwork(graph)
        with pytest.raises(ValueError) as excinfo:
            network.run(BadPortAlgorithm())
        message = str(excinfo.value)
        assert f"node {graph.node_id(0)} " in message
        assert "round 0" in message
        assert "valid ports are 0..1" in message

    @pytest.mark.parametrize("bad_key", ["north", 1.5, (0,), None])
    def test_non_int_port_key_raises_type_error(self, bad_key):
        graph = generators.graph_with_scrambled_ids(generators.cycle_graph(4), seed=3)
        network = SynchronousNetwork(graph)
        with pytest.raises(TypeError, match="ports must be integers") as excinfo:
            network.run(BadPortAlgorithm(port_key=bad_key))
        message = str(excinfo.value)
        assert f"node {graph.node_id(0)} " in message
        assert "round 0" in message

    def test_index_like_port_keys_are_accepted(self):
        numpy = pytest.importorskip("numpy")

        class NumpyPortSender(NodeAlgorithm):
            def initialize(self, ctx):
                return {"got": None}

            def send(self, ctx, state, round_index):
                return {numpy.int64(port): ctx.node_id for port in range(ctx.degree)}

            def receive(self, ctx, state, inbox, round_index):
                state["got"] = inbox.values()

            def finished(self, ctx, state):
                return state["got"] is not None

            def output(self, ctx, state):
                return state["got"]

        graph = generators.cycle_graph(4)
        outputs, metrics = SynchronousNetwork(graph).run(NumpyPortSender())
        assert metrics.messages == 8
        assert all(len(got) == 2 for got in outputs)


class TestEdgeSemantics:
    def test_late_messages_reach_finished_nodes(self):
        graph = generators.cycle_graph(4)
        outputs, metrics = SynchronousNetwork(graph).run(EarlyFinisher())
        assert metrics.rounds == 3
        # Node 0 finished after round 0 but still observed the messages
        # its (still running) neighbors sent in rounds 1 and 2.
        expected = {0: graph.node_id(1), 1: graph.node_id(3)}
        assert outputs[0] == {1: expected, 2: expected}
        assert all(out == {} for out in outputs[1:])

    def test_terminating_exactly_at_max_rounds_is_not_an_error(self):
        graph = generators.cycle_graph(8)
        outputs, metrics = SynchronousNetwork(graph).run(MaxIdFlooding(hops=4), max_rounds=4)
        assert metrics.rounds == 4
        assert all(out == 7 for out in outputs)

    def test_one_round_short_of_termination_raises(self):
        graph = generators.cycle_graph(8)
        with pytest.raises(RuntimeError, match="within 3 rounds"):
            SynchronousNetwork(graph).run(MaxIdFlooding(hops=4), max_rounds=3)

    def test_pooled_inbox_does_not_leak_between_rounds(self):
        graph = generators.cycle_graph(6)
        outputs, _metrics = SynchronousNetwork(graph).run(OneShotSender())
        for seen in outputs:
            assert seen == [(2, True, [7, 7]), (0, False, []), (0, False, [])]

    @pytest.mark.parametrize(
        "kind,n,delta", [("general", 24, 4), ("bipartite", 32, 8), ("general", 32, 10)]
    )
    def test_slot_buffer_matches_reference_simulator(self, kind, n, delta):
        # None payloads are never sent, counted, audited or surfaced;
        # staggered finishes exercise late delivery; mixed payload types
        # exercise the grouped audit's memo.
        if kind == "bipartite":
            graph, _bip = generators.regular_bipartite_graph(n, delta, seed=n + delta)
        else:
            graph = generators.random_regular_graph(n, delta, seed=n + delta)
        network = SynchronousNetwork(graph, model=Model.CONGEST, congest_factor=2)
        outputs, metrics = network.run(RaggedSender())
        auditor = network._auditor
        audit = (
            auditor.messages_recorded,
            auditor.total_bits,
            auditor.max_bits,
            auditor.violations,
        )
        ref_outputs, ref_fingerprint, ref_audit = reference_run(
            graph, RaggedSender(), model=Model.CONGEST, congest_factor=2
        )
        assert outputs == ref_outputs
        assert _fingerprint(metrics) == ref_fingerprint
        assert audit == ref_audit
        # Non-vacuous: payloads overflow the tightened budget, and some
        # finished node observed a late delivery.
        assert metrics.congest_violations > 0
        assert any(
            entry[0] >= v % 3 + 1 and entry[4] for v, log in enumerate(outputs) for entry in log
        )

    @pytest.mark.parametrize("model", [Model.LOCAL, Model.CONGEST], ids=["local", "congest"])
    @pytest.mark.parametrize(
        "algorithm,graph",
        [
            (lambda: MaxIdFlooding(hops=3), lambda: generators.cycle_graph(8)),
            (EarlyFinisher, lambda: generators.cycle_graph(4)),
            (OneShotSender, lambda: generators.cycle_graph(6)),
            (InboxApiProbe, lambda: generators.path_graph(3)),
            (ChattyAlgorithm, lambda: generators.random_regular_graph(12, 3, seed=1)),
        ],
        ids=["flooding", "early-finisher", "one-shot", "inbox-api", "chatty"],
    )
    def test_purpose_built_algorithms_match_reference_simulator(self, algorithm, graph, model):
        graph = graph()
        network = SynchronousNetwork(graph, model=model, congest_factor=2)
        outputs, metrics = network.run(algorithm())
        ref_outputs, ref_fingerprint, _audit = reference_run(
            graph, algorithm(), model=model, congest_factor=2
        )
        assert outputs == ref_outputs
        assert _fingerprint(metrics) == ref_fingerprint

    def test_round_inbox_views_match_per_node_bridge(self):
        graph = generators.random_regular_graph(16, 4, seed=3)
        native = SynchronousNetwork(graph).run(RoundInboxProbe())
        bridged = SynchronousNetwork(graph).run(BridgedRoundInboxProbe())
        assert native[0] == bridged[0]
        assert _fingerprint(native[1]) == _fingerprint(bridged[1])
        # Non-vacuous: some finished node observed a late delivery.
        assert any(late for log in native[0] for _round, late, _view in log)

    def test_inbox_view_mapping_api(self):
        graph = generators.path_graph(3)
        outputs, _metrics = SynchronousNetwork(graph).run(InboxApiProbe())
        probe = outputs[0]  # endpoint: degree 1, one message on port 0
        assert probe["len"] == 1
        assert probe["keys"] == [0]
        assert probe["iter"] == [0]
        assert probe["items"] == [(0, 10)]
        assert probe["values"] == [10]
        assert probe["first"] == 10
        assert probe["get_missing"] == "default"
        assert probe["contains"] is True
        assert probe["missing"] is False
        assert probe["missing_raises"] is True
        assert probe["dict"] == {0: 10}
        middle = outputs[1]  # degree 2: a message on each port
        assert middle["len"] == 2
        assert middle["items"] == [(0, 10), (1, 10)]


class Broadcaster(NodeAlgorithm):
    """One round: node ``v`` broadcasts ``payload(v)`` and writes ``extra(v)``."""

    def __init__(self, payload, extra=lambda ctx: {}):
        self.payload = payload
        self.extra = extra

    def initialize(self, ctx):
        return {"got": None}

    def send_batch(self, ctx, state, round_index, outbox):
        outbox.broadcast(self.payload(ctx))
        for port, payload in self.extra(ctx).items():
            outbox.send(port, payload)

    def receive(self, ctx, state, inbox, round_index):
        state["got"] = inbox.to_dict()

    def finished(self, ctx, state):
        return state["got"] is not None

    def output(self, ctx, state):
        return state["got"]


class TestOutboxWriter:
    def test_none_broadcast_and_isolated_nodes_send_nothing(self):
        # Node 3 is isolated (degree 0); even nodes broadcast None.
        graph = Graph(4, [(0, 1), (1, 2)])
        network = SynchronousNetwork(graph, model=Model.CONGEST)
        outputs, metrics = network.run(
            Broadcaster(lambda ctx: None if ctx.node % 2 == 0 else ctx.node_id)
        )
        assert outputs == [{0: graph.node_id(1)}, {}, {0: graph.node_id(1)}, {}]
        assert metrics.messages == 2
        assert network._auditor.messages_recorded == 2

    def test_second_write_to_a_port_overwrites_and_counts(self):
        # The contract: a port should be written once per round; a
        # second write overwrites the payload, and both count as sent.
        graph = generators.path_graph(2)
        network = SynchronousNetwork(graph, model=Model.CONGEST)
        outputs, metrics = network.run(
            Broadcaster(lambda ctx: 1, extra=lambda ctx: {0: [ctx.node_id] * 3})
        )
        assert outputs == [{0: [graph.node_id(1)] * 3}, {0: [graph.node_id(0)] * 3}]
        assert metrics.messages == 4
        assert network._auditor.messages_recorded == 4


class DeliveryLedger(NodeAlgorithm):
    """Every payload names its origin: ``(sender id, port, round)``.

    Node ``v`` runs ``v % 4 + 1`` rounds and leaves port ``p`` silent in
    round ``r`` when ``(v + p + r) % 3 == 0``.  It logs the rounds it was
    asked to send in, the ports it wrote, the rounds its ``receive`` hook
    ran and every ``(round, port, payload)`` it was handed, so a test can
    match each send to exactly one delivery.
    """

    @staticmethod
    def stop(ctx):
        return ctx.node % 4 + 1

    def initialize(self, ctx):
        return {"round": 0, "active": [], "sent": [], "heard": [], "received": []}

    def outgoing(self, ctx, state, round_index):
        state["active"].append(round_index)
        messages = {
            port: (ctx.node_id, port, round_index)
            for port in range(ctx.degree)
            if (ctx.node + port + round_index) % 3
        }
        state["sent"].extend((round_index, port) for port in messages)
        return messages

    def send(self, ctx, state, round_index):
        return self.outgoing(ctx, state, round_index)

    def receive(self, ctx, state, inbox, round_index):
        state["heard"].append(round_index)
        state["received"].extend((round_index, port, payload) for port, payload in inbox.items())
        state["round"] = round_index + 1

    def finished(self, ctx, state):
        return state["round"] >= self.stop(ctx)

    def output(self, ctx, state):
        return state


class NativeDeliveryLedger(DeliveryLedger):
    """The same messages written straight into the outbox writer."""

    def send_batch(self, ctx, state, round_index, outbox):
        for port, payload in self.outgoing(ctx, state, round_index).items():
            outbox.send(port, payload)


def _expected_deliveries(graph, outputs):
    """Per node, the sorted ``(round, port, payload)`` triples that the
    logged sends address to it."""
    expected = [[] for _ in graph.nodes()]
    for v, log in enumerate(outputs):
        neighbors = list(graph.neighbors(v))
        for round_index, port in log["sent"]:
            w = neighbors[port]
            back = list(graph.neighbors(w)).index(v)
            expected[w].append((round_index, back, (graph.node_id(v), port, round_index)))
    return [sorted(triples) for triples in expected]


class TestReliableDelivery:
    """The simulator is the paper's reliable synchronous network: every
    message is delivered once, in the round it was sent, on the port
    facing its sender, and only the algorithm stops a node."""

    @pytest.mark.parametrize(
        "algorithm", [DeliveryLedger, NativeDeliveryLedger], ids=["send-bridge", "outbox-writer"]
    )
    @pytest.mark.parametrize("shape", sorted(DELIVERY_GRAPHS))
    def test_every_message_is_delivered_exactly_once(self, shape, algorithm):
        graph = DELIVERY_GRAPHS[shape]()
        outputs, metrics = SynchronousNetwork(graph, model=Model.CONGEST).run(algorithm())
        received = [sorted(log["received"]) for log in outputs]
        assert received == _expected_deliveries(graph, outputs)
        assert metrics.messages == sum(len(log["sent"]) for log in outputs)
        # Non-vacuous: some ports stayed silent, and some payload reached
        # a node that had already finished.
        assert metrics.messages < sum(
            graph.degree(v) * len(log["active"]) for v, log in enumerate(outputs)
        )
        assert any(
            entry[0] >= v % 4 + 1 for v, log in enumerate(outputs) for entry in log["received"]
        )

    @pytest.mark.parametrize("shape", sorted(DELIVERY_GRAPHS))
    def test_only_the_algorithm_stops_a_node(self, shape):
        # A node sends and receives in every round until it reports
        # finished, and afterwards its receive hook runs only in rounds
        # that deliver something to it.
        graph = DELIVERY_GRAPHS[shape]()
        outputs, metrics = SynchronousNetwork(graph).run(DeliveryLedger())
        stops = [v % 4 + 1 for v in graph.nodes()]
        assert metrics.rounds == max(stops)
        for v, log in enumerate(outputs):
            assert log["active"] == list(range(stops[v]))
            late = sorted({entry[0] for entry in log["received"] if entry[0] >= stops[v]})
            assert log["heard"] == list(range(stops[v])) + late

    @pytest.mark.parametrize("shape", sorted(DELIVERY_GRAPHS))
    def test_reused_network_reruns_identically(self, shape):
        # Per-run state (round buffer, receiver tracking, the CONGEST
        # audit) is rebuilt or reset on every run: a reused network and a
        # fresh one agree on outputs, metrics and audit.
        graph = DELIVERY_GRAPHS[shape]()

        def run(network):
            outputs, metrics = network.run(RaggedSender())
            auditor = network._auditor
            audit = (
                auditor.messages_recorded,
                auditor.total_bits,
                auditor.max_bits,
                auditor.violations,
            )
            return outputs, _fingerprint(metrics), audit

        reused = SynchronousNetwork(graph, model=Model.CONGEST, congest_factor=2)
        first = run(reused)
        assert first[1][1] > 0
        assert run(reused) == first
        assert run(SynchronousNetwork(graph, model=Model.CONGEST, congest_factor=2)) == first


class TestLinialOnSimulator:
    def test_message_passing_linial_is_proper_and_fast(self):
        graph = generators.graph_with_scrambled_ids(generators.cycle_graph(32), seed=5)
        network = SynchronousNetwork(
            graph,
            model=Model.CONGEST,
            global_knowledge={"id_space": id_space_size(graph)},
        )
        colors, metrics = network.run(LinialNodeAlgorithm())
        assert is_proper_vertex_coloring(graph, colors)
        # O(Δ²) colors with a small constant for Δ = 2.
        assert max(colors) < 200
        # O(log* n) rounds.
        assert metrics.rounds <= 8
        assert metrics.congest_violations == 0

    @pytest.mark.parametrize("shape", sorted(DELIVERY_GRAPHS))
    def test_audited_linial_colors_every_node_properly(self, shape):
        # The E8 entry point on the delivery shapes: every node outputs
        # a color, no edge is monochromatic, the CONGEST budget holds and
        # a rerun on the same network repeats the outcome.  Identifiers
        # from a wide space give every shape a non-empty schedule.
        graph = generators.graph_with_scrambled_ids(
            DELIVERY_GRAPHS[shape](), seed=5, id_space_factor=1000
        )
        network = api.build_linial_network(graph)
        outcome = api.run_linial_network(graph, network=network)
        assert None not in outcome.outputs
        assert is_proper_vertex_coloring(graph, outcome.outputs)
        assert outcome.congest_violations == 0
        assert outcome.rounds > 0
        assert api.run_linial_network(graph, network=network) == outcome

    def test_missing_id_space_global_raises(self):
        graph = generators.cycle_graph(8)
        network = SynchronousNetwork(graph)
        with pytest.raises((ValueError, RuntimeError)):
            network.run(LinialNodeAlgorithm())
