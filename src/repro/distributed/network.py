"""Synchronous message-passing simulator.

Implements the execution environment of the LOCAL and CONGEST models
(Section 2 of the paper): computation proceeds in synchronous rounds; in
every round each node sends (possibly different) messages to its
neighbors, receives the neighbors' messages, and updates its state.  The
simulator drives a :class:`repro.distributed.algorithms.NodeAlgorithm`
on every node of a :class:`repro.graphs.core.Graph` and reports the
number of rounds, the number of messages and — in CONGEST mode — the
maximum message size observed.

The message plane is array-batched.  A *slot* is a position in the host
graph's flat CSR adjacency array (slot ``xadj[v] + p`` is port ``p`` of
node ``v``); one flat per-round buffer indexed by slots replaces the
per-message dicts of the naive implementation.  Routing a message is two
array reads — the neighbor from the adjacency array, the destination
slot from the precomputed reverse-slot array
(:meth:`repro.graphs.core.Graph.reverse_slot_csr`) — and a single write;
no ``(v, w)`` dict lookups, no per-node inbox dicts.  ``receive()`` is
handed a pooled :class:`PortInbox` view of the node's buffer row instead
of a fresh dict.

Two *send planes* feed the buffer (the ``send_plane`` knob of
:meth:`SynchronousNetwork.run`):

* the **dict plane** — the compatibility path: every round each node's
  ``send()`` returns a per-port dict that the simulator routes;
* the **batched plane** — each node's ``send_batch()`` receives a pooled
  :class:`OutboxWriter` bound to the node's slots and writes payloads
  straight into the destination slots of the round buffer.  A broadcast
  is one tight loop over the node's reverse-slot row, and its CONGEST
  audit is a single ``(payload, count)`` group
  (:meth:`repro.distributed.messages.CongestAuditor.
  record_batch_grouped`) instead of ``degree`` repeated payloads.

Two *receive planes* drain the buffer (the ``receive_plane`` knob):

* the **dict plane** — the compatibility path: every round each
  unfinished node's ``receive()`` is handed a pooled :class:`PortInbox`
  view of its buffer row;
* the **batched plane** — the simulator calls
  ``algorithm.receive_batch()`` **once per round** with a phase-level
  :class:`RoundInbox` view over the whole round's flat buffer and the
  list of unfinished nodes.  A native implementation (e.g.
  :class:`repro.coloring.linial.LinialNodeAlgorithm`) processes all
  incoming slots of the round as one vectorized sweep instead of ``n``
  python dispatches; the default implementation bridges to the per-node
  ``receive()`` via pooled views, so any algorithm runs on either plane.

Batched-receive contract (*slot ownership*, ``None`` semantics, audit
equivalence):

* slot ``xadj[v] + p`` is owned by (node ``v``, port ``p``) for the
  duration of one round: it either holds the payload delivered to that
  port this round or ``None``.  ``None`` slots are *absent* messages —
  they are never surfaced by :class:`PortInbox`, and batched
  implementations must skip them exactly like the dict plane does
  (a ``None`` payload is never sent, delivered, counted or audited);
* the :class:`RoundInbox` (and every view derived from it) is only
  valid during the ``receive_batch`` call — the simulator clears the
  written slots right after the receive phase, so payloads that must
  outlive the round have to be copied out;
* late delivery to *finished* nodes always runs through the per-node
  ``receive()`` hook, on both planes, after the phase-level call — the
  unfinished set handed to ``receive_batch`` never contains a finished
  node;
* CONGEST auditing happens on the send side and is therefore untouched
  by the receive plane: message counts, ``max_message_bits`` and the
  ordered violation list are arithmetically identical across all four
  send × receive plane combinations.

All observable behaviour — delivery order, metrics, violation lists — is
identical across the planes (and to the historical per-message
implementation); the differential matrix in
``tests/test_differential_paths.py`` pins the equivalence.

Fault model: :meth:`SynchronousNetwork.run` optionally applies a
deterministic, seed-derived :class:`repro.distributed.faults.FaultPlan`
to the flat slot buffer between the send phase (and its audit) and the
receive phase — message drops, delays, duplicates and node crash-stops
that are bit-identical across all four plane combinations.  See
:mod:`repro.distributed.faults` for the full fault model and
determinism contract; without a plan the simulator stays perfectly
reliable and pays nothing.

Message-size accounting semantics (CONGEST mode): every non-``None``
payload delivered in a round is sized by
:func:`repro.distributed.messages.message_size_bits` and checked against
``congest_factor * ceil(log2 n)`` bits; ``metrics.max_message_bits``
holds the largest observed size and ``metrics.congest_violations``
counts the payloads over budget.  LOCAL runs skip the audit entirely
(``congest_budget_bits`` is ``None``).  ``None`` payloads are never
sent: they are not delivered, not counted in ``metrics.messages`` and
not audited, on either plane.
"""

from __future__ import annotations

import operator
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.distributed.algorithms import NodeAlgorithm, NodeContext
from repro.distributed.faults import FaultInjector, FaultPlan
from repro.distributed.messages import CongestAuditor
from repro.distributed.metrics import ExecutionMetrics
from repro.distributed.model import Model
from repro.graphs.core import Graph

#: Recognized values of the ``send_plane`` and ``receive_plane`` knobs.
PLANES = ("auto", "batched", "dict")


class PortInbox:
    """A read-only, port-keyed view of one node's received messages.

    Duck-type compatible with the ``Dict[int, Any]`` inbox the simulator
    used to hand to ``receive()``: supports ``in``, ``len``, ``bool``,
    iteration (ascending ports), indexing, ``get``, ``keys``, ``values``
    and ``items``.  The simulator pools **one** instance per run and
    rebinds it to each node in turn, so the view is only valid for the
    duration of the ``receive()`` call it was passed to — algorithms that
    need to keep the messages must copy them out (:meth:`to_dict`).

    Iteration order is ascending by port, which matches the insertion
    order of the old per-node dicts exactly: adjacency rows are sorted by
    neighbor and senders are processed in ascending node order, so
    messages always arrived in ascending back-port order.
    """

    __slots__ = ("_buf", "_start", "_degree")

    def __init__(self, buf: List[Any]) -> None:
        self._buf = buf
        self._start = 0
        self._degree = 0

    def _bind(self, start: int, degree: int) -> "PortInbox":
        """Point the view at one node's buffer row (simulator internal)."""
        self._start = start
        self._degree = degree
        return self

    def __getitem__(self, port: int) -> Any:
        if isinstance(port, int) and 0 <= port < self._degree:
            payload = self._buf[self._start + port]
            if payload is not None:
                return payload
        raise KeyError(port)

    def get(self, port: int, default: Any = None) -> Any:
        if isinstance(port, int) and 0 <= port < self._degree:
            payload = self._buf[self._start + port]
            if payload is not None:
                return payload
        return default

    def __contains__(self, port: object) -> bool:
        return (
            isinstance(port, int)
            and 0 <= port < self._degree
            and self._buf[self._start + port] is not None
        )

    def __iter__(self) -> Iterator[int]:
        buf = self._buf
        start = self._start
        for port in range(self._degree):
            if buf[start + port] is not None:
                yield port

    def __len__(self) -> int:
        buf = self._buf
        start = self._start
        return sum(1 for i in range(start, start + self._degree) if buf[i] is not None)

    def __bool__(self) -> bool:
        buf = self._buf
        start = self._start
        return any(buf[i] is not None for i in range(start, start + self._degree))

    def keys(self) -> List[int]:
        """Ports that carry a message this round, ascending."""
        buf = self._buf
        start = self._start
        return [p for p in range(self._degree) if buf[start + p] is not None]

    def values(self) -> List[Any]:
        """Payloads in ascending port order."""
        buf = self._buf
        start = self._start
        return [x for x in buf[start : start + self._degree] if x is not None]

    def items(self) -> List[Tuple[int, Any]]:
        """``(port, payload)`` pairs in ascending port order."""
        buf = self._buf
        start = self._start
        return [
            (p, buf[start + p])
            for p in range(self._degree)
            if buf[start + p] is not None
        ]

    def to_dict(self) -> Dict[int, Any]:
        """A snapshot dict that stays valid after ``receive()`` returns."""
        return dict(self.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PortInbox({self.to_dict()!r})"


class RoundInbox:
    """A phase-level, slot-indexed view over one round's whole inbox buffer.

    The batched-receive counterpart of :class:`PortInbox`: instead of one
    per-node view per ``receive()`` call, the simulator hands **one**
    instance to ``algorithm.receive_batch()`` per round, covering every
    node's slots at once.  Slot ``xadj[v] + p`` holds the payload
    delivered to port ``p`` of node ``v`` this round, or ``None`` when
    nothing arrived on that port (``None`` is *absence*, never a
    payload — see the module docstring for the full contract).

    Native batched algorithms read :attr:`buffer` / :meth:`slot_bounds`
    directly and sweep all slots as arrays; :meth:`node` returns a pooled
    :class:`PortInbox` bound to one node's row for per-node fallbacks
    (the default ``receive_batch`` bridge uses it).  Like every pooled
    view, the instance is only valid during the ``receive_batch`` call it
    was passed to — the simulator clears the round's slots afterwards.
    """

    __slots__ = ("_buf", "_xadj", "_port_view")

    def __init__(self, buf: List[Any], xadj: Sequence[int]) -> None:
        self._buf = buf
        self._xadj = xadj
        self._port_view = PortInbox(buf)

    @property
    def buffer(self) -> List[Any]:
        """The flat slot-indexed payload buffer (read-only by contract)."""
        return self._buf

    def slot_bounds(self, node: int) -> Tuple[int, int]:
        """The ``[start, end)`` slot range owned by ``node`` this round."""
        return self._xadj[node], self._xadj[node + 1]

    def node(self, node: int) -> PortInbox:
        """A pooled per-node view (valid until the next ``node()`` call)."""
        start = self._xadj[node]
        return self._port_view._bind(start, self._xadj[node + 1] - start)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        filled = sum(1 for x in self._buf if x is not None)
        return f"RoundInbox(slots={len(self._buf)}, filled={filled})"


class OutboxWriter:
    """A write-only, port-keyed view of one node's outgoing slots.

    The batched-send counterpart of :class:`PortInbox`: the simulator
    pools **one** instance per run and rebinds it to each unfinished node
    before calling ``send_batch()``.  Writes go straight to the
    destination slot of the flat round buffer (via the graph's
    reverse-slot array), so sending a message is one list write — no
    per-round dict, no routing pass.

    Contract (see :class:`repro.distributed.algorithms.NodeAlgorithm`):
    the view is only valid during the ``send_batch`` call it was passed
    to; ``None`` payloads are not sent; each port should be written at
    most once per round.  ``writer[port] = payload`` sends on one port;
    :meth:`broadcast` sends the same payload on every port and audits it
    as a single ``(payload, count)`` group — arithmetically identical to
    ``degree`` per-message audits.
    """

    __slots__ = (
        "_buf",
        "_adj",
        "_rev_slot",
        "_touched",
        "_receivers",
        "_groups",
        "_contexts",
        "_base",
        "_end",
        "_node",
        "_round",
        "sent",
    )

    def __init__(
        self,
        buf: List[Any],
        adj: List[int],
        rev_slot: List[int],
        touched: List[int],
        receivers: Optional[set],
        groups: Optional[List[Tuple[Any, int]]],
        contexts: List["NodeContext"],
    ) -> None:
        self._buf = buf
        self._adj = adj
        self._rev_slot = rev_slot
        self._touched = touched
        self._receivers = receivers  # None while no node is finished yet
        self._groups = groups  # None when auditing is off (LOCAL mode)
        self._contexts = contexts  # error messages resolve node ids lazily
        self._base = 0
        self._end = 0
        self._node = 0
        self._round = 0
        self.sent = 0

    def _bind(self, base: int, end: int, node: int, round_index: int) -> "OutboxWriter":
        """Point the view at one node's slot row (simulator internal)."""
        self._base = base
        self._end = end
        self._node = node
        self._round = round_index
        return self

    @property
    def degree(self) -> int:
        """Number of ports of the bound node."""
        return self._end - self._base

    def __setitem__(self, port: Any, payload: Any) -> None:
        """Send ``payload`` on ``port`` (a ``None`` payload sends nothing)."""
        if type(port) is not int:
            try:
                port = operator.index(port)
            except TypeError:
                raise TypeError(
                    f"node {self._contexts[self._node].node_id} keyed an outbox "
                    f"entry with {port!r} in round {self._round}: ports must be "
                    f"integers"
                ) from None
        slot = self._base + port
        if port < 0 or slot >= self._end:
            raise ValueError(
                f"node {self._contexts[self._node].node_id} sent on invalid port "
                f"{port} in round {self._round}: valid ports are "
                f"0..{self._end - self._base - 1}"
            )
        if payload is None:
            return
        dest = self._rev_slot[slot]
        self._buf[dest] = payload
        self._touched.append(dest)
        if self._receivers is not None:
            self._receivers.add(self._adj[slot])
        self.sent += 1
        if self._groups is not None:
            self._groups.append((payload, 1))

    send = __setitem__

    def broadcast(self, payload: Any) -> None:
        """Send ``payload`` on every port (no-op for ``None`` or degree 0)."""
        base = self._base
        end = self._end
        if payload is None or base == end:
            return
        buf = self._buf
        row = self._rev_slot[base:end]
        for dest in row:
            buf[dest] = payload
        self._touched.extend(row)
        if self._receivers is not None:
            self._receivers.update(self._adj[base:end])
        self.sent += end - base
        if self._groups is not None:
            self._groups.append((payload, end - base))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"OutboxWriter(node={self._node}, ports={self._end - self._base})"


class SynchronousNetwork:
    """A network of nodes executing one algorithm in synchronous rounds."""

    def __init__(
        self,
        graph: Graph,
        model: Model = Model.LOCAL,
        congest_factor: int = 8,
        global_knowledge: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Build a network over ``graph``.

        Args:
            graph: the communication graph.
            model: LOCAL (unbounded messages) or CONGEST.
            congest_factor: constant factor of the CONGEST budget — every
                message may carry up to ``congest_factor * ceil(log2 n)``
                bits before it is counted as a violation.  Ignored in
                LOCAL mode.
            global_knowledge: extra entries for every node's
                ``ctx.globals`` (``num_nodes`` and ``max_degree`` are
                always present).
        """
        self._graph = graph
        self._model = model
        self._auditor = (
            CongestAuditor(num_nodes=graph.num_nodes, factor=congest_factor)
            if model is Model.CONGEST
            else None
        )
        base_globals: Dict[str, Any] = {
            "num_nodes": graph.num_nodes,
            "max_degree": graph.max_degree,
        }
        if global_knowledge:
            base_globals.update(global_knowledge)
        self._contexts: List[NodeContext] = []
        for v in graph.nodes():
            neighbors = graph.neighbors(v)
            self._contexts.append(
                NodeContext(
                    node=v,
                    node_id=graph.node_id(v),
                    degree=len(neighbors),
                    neighbor_ids=[graph.node_id(w) for w in neighbors],
                    globals=dict(base_globals),
                )
            )
        # Port maps: port p of node v leads to neighbor adj[xadj[v] + p];
        # the reverse-slot array routes a message straight to its
        # destination slot in the flat inbox buffer.  All three arrays are
        # shared with (and lazily built by) the graph.
        self._xadj, self._adj = graph.adjacency_csr()
        self._rev_slot = graph.reverse_slot_csr()

    @property
    def graph(self) -> Graph:
        """The communication graph."""
        return self._graph

    @property
    def model(self) -> Model:
        """The model the network simulates."""
        return self._model

    def _coerce_port(self, v: int, port: Any, rounds: int) -> int:
        """Validate a non-``int``-typed outbox key (slow path).

        Index-like values (e.g. numpy integers) are converted; anything
        else — floats, strings, tuples — is rejected with a clear error
        naming the node and round instead of surfacing as a confusing
        ``TypeError`` from a downstream comparison or list index.
        """
        try:
            return operator.index(port)
        except TypeError:
            raise TypeError(
                f"node {self._contexts[v].node_id} keyed an outbox entry with "
                f"{port!r} in round {rounds}: ports must be integers"
            ) from None

    def run(
        self,
        algorithm: NodeAlgorithm,
        max_rounds: int = 10_000,
        send_plane: str = "auto",
        receive_plane: str = "auto",
        fault_plan: Optional[FaultPlan] = None,
    ) -> Tuple[List[Any], ExecutionMetrics]:
        """Run ``algorithm`` on every node until all nodes are finished.

        Returns the per-node outputs and the execution metrics.  Raises
        ``RuntimeError`` if the algorithm does not terminate within
        ``max_rounds`` rounds (an algorithm that finishes in exactly
        ``max_rounds`` rounds terminates normally).

        ``send_plane`` selects how outgoing messages enter the round
        buffer: ``"dict"`` calls ``algorithm.send()`` and routes the
        returned per-port dicts; ``"batched"`` hands a pooled
        :class:`OutboxWriter` to ``algorithm.send_batch()`` (every
        algorithm supports this — the base class bridges to ``send()``);
        ``"auto"`` picks the batched plane when the algorithm declares
        ``batched_send = True`` and the dict plane otherwise.

        ``receive_plane`` symmetrically selects how the round's messages
        are drained: ``"dict"`` calls the per-node ``receive()`` with a
        pooled :class:`PortInbox` view; ``"batched"`` calls
        ``algorithm.receive_batch()`` once per round with a phase-level
        :class:`RoundInbox` view over the whole buffer and the list of
        unfinished nodes (every algorithm supports this — the base class
        bridges back to ``receive()``); ``"auto"`` picks the batched
        plane when the algorithm declares ``batched_receive = True``.
        All four send × receive combinations produce bit-identical
        outputs and metrics.

        ``fault_plan`` opts the run into the deterministic
        fault-injection plane (:mod:`repro.distributed.faults`): the
        plan's drops/delays/duplicates are applied to the flat slot
        buffer *after* the send phase and its CONGEST audit and *before*
        the receive phase, and crash-stopped nodes are halted at the
        start of their crash round — so a fixed plan produces
        bit-identical outputs, metrics and fault statistics across all
        four plane combinations.  ``metrics.messages`` and the audit
        keep counting *sent* payloads; the realized faults land in
        ``metrics.fault_summary``.  ``None`` (the default) bypasses the
        plane entirely.

        The simulator tracks the set of unfinished nodes instead of
        re-querying every node each round: a node reporting finished is
        assumed to stay finished (termination is monotone in the LOCAL /
        CONGEST models), it no longer sends, and its ``receive`` hook only
        runs in rounds where messages actually arrive for it (late
        delivery runs through the per-node hook on both receive planes).

        Messages move through a flat slot-indexed buffer over the CSR
        adjacency (see the module docstring); ``receive()`` gets a pooled
        :class:`PortInbox` view of the node's row, valid only for that
        call.  Only the slots written this round are cleared afterwards,
        so a round costs O(messages), not O(m).
        """
        for name, plane in (("send_plane", send_plane), ("receive_plane", receive_plane)):
            if plane not in PLANES:
                raise ValueError(f"unknown {name} {plane!r}: expected one of {PLANES}")
        use_batched = send_plane == "batched" or (
            send_plane == "auto" and bool(getattr(algorithm, "batched_send", False))
        )
        use_batched_receive = receive_plane == "batched" or (
            receive_plane == "auto" and bool(getattr(algorithm, "batched_receive", False))
        )
        contexts = self._contexts
        states = [algorithm.initialize(ctx) for ctx in contexts]
        auditor = self._auditor
        if auditor is not None:
            # Metrics are per-run: a reused network must not accumulate
            # audit state from earlier executions.
            auditor.reset()
        metrics = ExecutionMetrics(
            congest_budget_bits=auditor.budget_bits if auditor else None
        )
        xadj = self._xadj
        adj = self._adj
        rev_slot = self._rev_slot
        # The fault plane is strictly opt-in: an inactive plan costs one
        # predicate here and nothing per round.
        injector = (
            FaultInjector(fault_plan, self._graph.num_nodes, xadj)
            if fault_plan is not None and fault_plan.active
            else None
        )

        # The message plane: one payload slot per (node, port) direction,
        # plus the bookkeeping to clear and deliver in O(messages).
        inbox_buf: List[Any] = [None] * len(adj)
        touched: List[int] = []  # slots written this round
        receivers: set = set()  # nodes with >= 1 message this round
        inbox = PortInbox(inbox_buf)
        round_inbox = RoundInbox(inbox_buf, xadj) if use_batched_receive else None
        batch: List[Any] = []  # dict plane: this round's payloads for the audit
        groups: Optional[List[Tuple[Any, int]]] = [] if auditor is not None else None
        writer = OutboxWriter(
            inbox_buf, adj, rev_slot, touched, receivers, groups, contexts
        )

        unfinished = [
            v for v, ctx in enumerate(contexts) if not algorithm.finished(ctx, states[v])
        ]
        n = self._graph.num_nodes
        blank: List[Any] = [None] * len(adj)
        rounds = 0
        while unfinished:
            if rounds >= max_rounds:
                raise RuntimeError(f"algorithm did not terminate within {max_rounds} rounds")
            if injector is not None and injector.crashed_at(rounds):
                # Crash-stop: the node halts before this round's send
                # phase and never sends, receives or terminates again.
                crashed = injector.crashed
                unfinished = [v for v in unfinished if v not in crashed]
                if not unfinished:
                    break
            # Receiver tracking only matters for late delivery to nodes
            # that are already finished at round start; while every node
            # is still running, skip the per-message set updates.  The
            # fault plane always tracks: deferred re-deliveries may land
            # after the receiver finished.
            track_receivers = len(unfinished) < n or injector is not None
            if use_batched:
                writer._receivers = receivers if track_receivers else None
                writer.sent = 0
                for v in unfinished:
                    algorithm.send_batch(
                        contexts[v],
                        states[v],
                        rounds,
                        writer._bind(xadj[v], xadj[v + 1], v, rounds),
                    )
                metrics.messages += writer.sent
                if groups:
                    batch_max = auditor.record_batch_grouped(groups)
                    if batch_max > metrics.max_message_bits:
                        metrics.max_message_bits = batch_max
                    groups.clear()
            else:
                sent = 0
                for v in unfinished:
                    outbox = algorithm.send(contexts[v], states[v], rounds)
                    if not outbox:
                        continue
                    base = xadj[v]
                    degree = xadj[v + 1] - base
                    for port, payload in outbox.items():
                        if type(port) is not int:
                            port = self._coerce_port(v, port, rounds)
                        if port < 0 or port >= degree:
                            raise ValueError(
                                f"node {contexts[v].node_id} sent on invalid port "
                                f"{port} in round {rounds}: valid ports are "
                                f"0..{degree - 1}"
                            )
                        if payload is None:
                            continue
                        slot = base + port
                        dest = rev_slot[slot]
                        inbox_buf[dest] = payload
                        touched.append(dest)
                        if track_receivers:
                            receivers.add(adj[slot])
                        sent += 1
                        if auditor is not None:
                            batch.append(payload)
                metrics.messages += sent
                if batch:
                    batch_max = auditor.record_batch(batch)
                    if batch_max > metrics.max_message_bits:
                        metrics.max_message_bits = batch_max
                    batch.clear()
            if injector is not None:
                # Post-send, pre-receive: both send planes have produced
                # the identical buffer (and identical audit totals), so
                # faulting here keeps all plane combinations bit-identical.
                injector.apply(rounds, inbox_buf, touched, receivers)
            if use_batched_receive:
                # Phase-level drain: one call covers every unfinished
                # node's slots this round (the bridge in NodeAlgorithm
                # reproduces the per-node loop below bit-identically).
                algorithm.receive_batch(contexts, states, unfinished, round_inbox, rounds)
            else:
                receive = algorithm.receive
                for v in unfinished:
                    # Inlined PortInbox._bind (one attribute pair instead
                    # of a method call per node per round).
                    start = xadj[v]
                    inbox._start = start
                    inbox._degree = xadj[v + 1] - start
                    receive(contexts[v], states[v], inbox, rounds)
            if receivers:
                # Finished nodes still observe late messages addressed to them.
                unfinished_set = set(unfinished)
                for v in sorted(receivers):
                    if v not in unfinished_set:
                        algorithm.receive(
                            contexts[v],
                            states[v],
                            inbox._bind(xadj[v], xadj[v + 1] - xadj[v]),
                            rounds,
                        )
                receivers.clear()
            # Clearing: O(messages) slot resets, or one C-level copy of
            # the blank row when most of the buffer was written anyway.
            if 2 * len(touched) >= len(inbox_buf):
                inbox_buf[:] = blank
            else:
                for slot in touched:
                    inbox_buf[slot] = None
            touched.clear()
            unfinished = [
                v for v in unfinished if not algorithm.finished(contexts[v], states[v])
            ]
            rounds += 1
        metrics.rounds = rounds
        if auditor is not None:
            metrics.congest_violations = len(auditor.violations)
        if injector is not None:
            injector.finish()
            metrics.fault_summary = injector.summary()
        outputs = [
            algorithm.output(ctx, state) for ctx, state in zip(contexts, states)
        ]
        return outputs, metrics
