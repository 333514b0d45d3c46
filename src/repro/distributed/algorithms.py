"""Base class for algorithms executed on the message-passing simulator.

A :class:`NodeAlgorithm` describes the behaviour of a single node: what
local state it starts with, what messages it sends to each neighbor in a
round, how it updates its state when the neighbors' messages arrive, and
when it has terminated.  The simulator (:class:`repro.distributed.network.
SynchronousNetwork`) instantiates one state object per node and drives
all of them in lock-step synchronous rounds, exactly like the LOCAL /
CONGEST models of Section 2.

Nodes only ever see:

* their own node index, identifier, degree and incident ports,
* global problem parameters handed to every node (n, Δ, the color space),
* the messages received from their neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass
class NodeContext:
    """Read-only local information available to a node.

    Attributes:
        node: the node index (used only as a simulator handle).
        node_id: the unique O(log n)-bit identifier of the node.
        degree: the node's degree.
        neighbor_ids: identifiers of the neighbors, indexed by port.
        globals: problem parameters known to all nodes (n, Δ, ...).
    """

    node: int
    node_id: int
    degree: int
    neighbor_ids: List[int]
    globals: Dict[str, Any] = field(default_factory=dict)


class NodeAlgorithm:
    """Behaviour of a node in a synchronous distributed algorithm.

    Subclasses override :meth:`initialize`, :meth:`send`, :meth:`receive`
    and :meth:`finished`.  Messages are addressed by *port*: the position
    of the neighbor in ``NodeContext.neighbor_ids``.

    **The message plane.**  Every round the simulator calls
    :meth:`send_batch` once per unfinished node with a pooled
    :class:`repro.distributed.network.OutboxWriter` bound to the node's
    slots, then :meth:`receive_batch` **once** with a phase-level
    :class:`repro.distributed.network.RoundInbox` over the whole round's
    flat slot buffer and the ascending list of unfinished nodes.  The
    contract:

    * *slot ownership*: port ``p`` of node ``v`` owns exactly one slot
      ``xadj[v] + p`` of the round buffer.  A node writes only its own
      ports, and a batched receive reads only the slots of the nodes it
      was handed;
    * ``None`` means *no message*: writing ``None`` (or storing it in a
      ``send()`` dict) sends nothing — the payload is neither delivered,
      nor counted, nor audited — and a ``None`` slot is never surfaced
      by the per-node views, so batched implementations must skip it;
    * each port should be written at most once per round (a second
      write overwrites the payload but both writes count as sent
      messages);
    * every view is only valid for the duration of the call it was
      passed to (the simulator clears the round's slots afterwards);
      payloads that must outlive the call have to be copied out;
    * *late delivery*: a message that reaches an already-finished node
      is handed to the per-node :meth:`receive` hook after the
      phase-level call.

    **The per-node bridges.**  The default :meth:`send_batch` writes the
    per-port dict returned by :meth:`send` into the writer, and the
    default :meth:`receive_batch` calls :meth:`receive` for each node
    with a pooled :class:`repro.distributed.network.PortInbox` view, so
    an algorithm that only defines the per-node hooks runs unchanged.
    Native implementations (e.g.
    :class:`repro.coloring.linial.LinialNodeAlgorithm`) override the
    batched hooks, typically with ``outbox.broadcast(payload)`` and one
    vectorized sweep over every incoming slot.
    """

    def initialize(self, ctx: NodeContext) -> Dict[str, Any]:
        """Initial local state of the node."""
        return {}

    def send(self, ctx: NodeContext, state: Dict[str, Any], round_index: int) -> Dict[int, Any]:
        """Messages to send this round, keyed by port.  Missing ports send nothing."""
        return {}

    def send_batch(
        self, ctx: NodeContext, state: Dict[str, Any], round_index: int, outbox: Any
    ) -> None:
        """Write this round's messages into ``outbox`` (an ``OutboxWriter``).

        The default bridges to :meth:`send`; native implementations
        override this (see the class docstring for the contract) and
        typically use ``outbox.broadcast(payload)`` or
        ``outbox[port] = payload``.
        """
        for port, payload in self.send(ctx, state, round_index).items():
            outbox[port] = payload

    def receive(
        self,
        ctx: NodeContext,
        state: Dict[str, Any],
        inbox: Dict[int, Any],
        round_index: int,
    ) -> None:
        """Update the local state given the messages received this round.

        ``inbox`` is a read-only, port-keyed mapping (the simulator hands
        a pooled :class:`repro.distributed.network.PortInbox` view that
        is only valid for the duration of this call); copy it out
        (``dict(inbox.items())``) if the messages must outlive the call.
        """

    def receive_batch(
        self,
        contexts: List[NodeContext],
        states: List[Dict[str, Any]],
        nodes: List[int],
        inbox: Any,
        round_index: int,
    ) -> None:
        """Process one round's messages for every node in ``nodes``.

        ``inbox`` is a :class:`repro.distributed.network.RoundInbox`
        covering the whole round's slot buffer; ``nodes`` lists the
        unfinished nodes in ascending order.  The default bridges to the
        per-node :meth:`receive` through pooled views; native
        implementations override this (see the class docstring for the
        contract) and typically sweep all slots as arrays.
        """
        receive = self.receive
        for v in nodes:
            receive(contexts[v], states[v], inbox.node(v), round_index)

    def finished(self, ctx: NodeContext, state: Dict[str, Any]) -> bool:
        """Whether this node has produced its final output."""
        return True

    def output(self, ctx: NodeContext, state: Dict[str, Any]) -> Any:
        """The node's final output (read by the caller after termination)."""
        return state.get("output")
